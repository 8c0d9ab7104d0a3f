package repro.core

import repro.{Oracle, SparkSpec}

class MetricsSpec extends SparkSpec {

  import spark.implicits._

  private def recs(rows: (Long, Long)*) = rows.toDF("recordId", "entityId")
  private def pairs(rows: (Long, Long)*) = rows.toDF("src", "dst")
  private def assign(rows: (Long, Long)*) = rows.toDF("id", "component")

  test("PairScores formulas") {
    val s = Metrics.PairScores(tp = 8, fp = 2, fn = 8)
    assert(math.abs(s.precision - 0.8) < 1e-9)
    assert(math.abs(s.recall - 0.5) < 1e-9)
    assert(math.abs(s.f1 - 2 * 0.8 * 0.5 / 1.3) < 1e-9)
  }

  test("PairScores degenerate cases are zero, not NaN") {
    assert(Metrics.PairScores(0, 0, 0).precision == 0.0)
    assert(Metrics.PairScores(0, 0, 0).recall == 0.0)
    assert(Metrics.PairScores(0, 0, 0).f1 == 0.0)
  }

  test("truthPairCount sums n choose 2 per entity") {
    // entity 1: 3 records -> 3 pairs; entity 2: 2 records -> 1 pair
    val df = recs((1L, 1L), (2L, 1L), (3L, 1L), (4L, 2L), (5L, 2L), (6L, 3L))
    assert(Metrics.truthPairCount(df) == 4L)
  }

  test("scorePairs counts tp/fp/fn correctly") {
    val records = recs((1L, 1L), (2L, 1L), (3L, 1L), (4L, 2L))
    val s = Metrics.scorePairs(pairs((1L, 2L), (1L, 4L)), records)
    assert(s == Metrics.PairScores(tp = 1, fp = 1, fn = 2))
  }

  test("scorePairs deduplicates pairs") {
    val records = recs((1L, 1L), (2L, 1L))
    val s = Metrics.scorePairs(pairs((1L, 2L), (1L, 2L)), records)
    assert(s.tp == 1)
  }

  test("scorePairs and scoreGroups each run one Spark action") {
    val records = recs((1L, 1L), (2L, 1L), (3L, 1L), (4L, 2L))
    val a = assign((1L, 1L), (2L, 1L), (3L, 3L))
    assert(sparkActions(Metrics.scorePairs(pairs((1L, 2L), (1L, 4L)), records)) == Seq("head"))
    assert(sparkActions(Metrics.scoreGroups(a, records)) == Seq("head"))
  }

  test("scoreGroups on a perfect assignment") {
    val records = recs((1L, 1L), (2L, 1L), (3L, 2L), (4L, 2L))
    val (s, pur) = Metrics.scoreGroups(assign((1L, 1L), (2L, 1L), (3L, 3L), (4L, 3L)), records)
    assert(s == Metrics.PairScores(tp = 2, fp = 0, fn = 0))
    assert(math.abs(pur - 1.0) < 1e-9)
  }

  test("scoreGroups counts implied transitive pairs as predictions") {
    // one component of 4 records from two entities of 2 → pred = 6, tp = 2
    val records = recs((1L, 1L), (2L, 1L), (3L, 2L), (4L, 2L))
    val (s, pur) = Metrics.scoreGroups(
      assign((1L, 1L), (2L, 1L), (3L, 1L), (4L, 1L)), records)
    assert(s == Metrics.PairScores(tp = 2, fp = 4, fn = 0))
    // purity: single group of 4 with 2 true pairs of 6 → 1/3
    assert(math.abs(pur - 2.0 / 6.0) < 1e-9)
  }

  test("scoreGroups counts missed entities as fn") {
    val records = recs((1L, 1L), (2L, 1L), (3L, 1L))
    val (s, _) = Metrics.scoreGroups(
      assign((1L, 1L), (2L, 1L), (3L, 3L)), records) // record 3 split off
    assert(s == Metrics.PairScores(tp = 1, fp = 0, fn = 2))
  }

  test("singleton components count as pure") {
    val records = recs((1L, 1L), (2L, 2L))
    val (s, pur) = Metrics.scoreGroups(assign((1L, 1L), (2L, 2L)), records)
    assert(s == Metrics.PairScores(0, 0, 0))
    assert(math.abs(pur - 1.0) < 1e-9)
  }

  test("cluster purity weights groups by size") {
    // group A: 3 records, 1 true pair of 3 (purity 1/3); group B: 2 records pure
    val records = recs((1L, 1L), (2L, 1L), (3L, 2L), (4L, 3L), (5L, 3L))
    val (_, pur) = Metrics.scoreGroups(
      assign((1L, 1L), (2L, 1L), (3L, 1L), (4L, 4L), (5L, 4L)), records)
    val expected = (3 * (1.0 / 3) + 2 * 1.0) / 5
    assert(math.abs(pur - expected) < 1e-9)
  }

  test("oracle: scorePairs tp/fp match DuckDB") {
    val records = recs((1L, 1L), (2L, 1L), (3L, 1L), (4L, 2L), (5L, 2L), (6L, 3L))
    val p = pairs((1L, 2L), (2L, 3L), (1L, 4L), (4L, 5L), (5L, 6L))
    val s = Metrics.scorePairs(p, records)
    val got = Seq((s.tp, s.fp)).toDF("tp", "fp")
    Oracle.assertEquivalent(
      got,
      """SELECT
        |  SUM(CASE WHEN ra.entityId = rb.entityId THEN 1 ELSE 0 END) AS tp,
        |  SUM(CASE WHEN ra.entityId <> rb.entityId THEN 1 ELSE 0 END) AS fp
        |FROM pairs p
        |JOIN recs ra ON p.src = ra.recordId
        |JOIN recs rb ON p.dst = rb.recordId""".stripMargin,
      "pairs" -> p, "recs" -> records)
  }

  test("oracle: scoreGroups implied-pair arithmetic matches DuckDB") {
    val records = recs((1L, 1L), (2L, 1L), (3L, 2L), (4L, 2L), (5L, 3L))
    val a = assign((1L, 1L), (2L, 1L), (3L, 1L), (4L, 4L), (5L, 4L))
    val (s, _) = Metrics.scoreGroups(a, records)
    val got = Seq((s.tp, s.tp + s.fp)).toDF("tp", "pred")
    Oracle.assertEquivalent(
      got,
      """WITH tagged AS (
        |  SELECT a.id, CAST(a.component AS BIGINT) AS component, r.entityId
        |  FROM asg a JOIN recs r ON a.id = r.recordId
        |), per_entity AS (
        |  SELECT component, entityId, COUNT(*) AS m FROM tagged GROUP BY 1, 2
        |), per_comp AS (
        |  SELECT component, SUM(m) AS n, SUM(m * (m - 1) / 2) AS tpc
        |  FROM per_entity GROUP BY 1
        |)
        |SELECT CAST(SUM(tpc) AS BIGINT) AS tp,
        |       CAST(SUM(n * (n - 1) / 2) AS BIGINT) AS pred
        |FROM per_comp""".stripMargin,
      "asg" -> a, "recs" -> records)
  }
}
