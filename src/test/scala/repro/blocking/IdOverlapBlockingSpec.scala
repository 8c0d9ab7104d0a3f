package repro.blocking

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import repro.datagen.{EmDatasets, GenParams}

class IdOverlapBlockingSpec extends SparkSpec {

  import spark.implicits._

  private def secs(rows: (Long, Int, String, String, String, String)*): DataFrame =
    rows.toDF("recordId", "source", "isin", "cusip", "valor", "sedol")
      .withColumn("issuerRecordId", org.apache.spark.sql.functions.lit(-1L))

  test("shared isin across sources produces a candidate pair") {
    val df = secs((1L, 1, "US1", null, null, null), (2L, 2, "US1", null, null, null))
    val out = IdOverlapBlocking.securityCandidates(df).collect()
    assert(out.map(r => (r.getLong(0), r.getLong(1))).toSet == Set((1L, 2L)))
    assert(out.forall(_.getString(2) == Blocking.IdOverlap))
  }

  test("explodedIds emits one namespaced row per non-null identifier") {
    val df = secs((1L, 1, "US1", null, "V1", null), (2L, 2, null, null, null, null))
    val out = IdOverlapBlocking.explodedIds(df).collect()
      .map(r => (r.getAs[Long]("recordId"), r.getAs[String]("id"))).toSet
    assert(out == Set((1L, "isin:US1"), (1L, "valor:V1")))
  }

  test("same-source records never pair") {
    val df = secs((1L, 1, "US1", null, null, null), (2L, 1, "US1", null, null, null))
    assert(IdOverlapBlocking.securityCandidates(df).count() == 0)
  }

  test("null identifiers never pair") {
    val df = secs((1L, 1, null, null, null, null), (2L, 2, null, null, null, null))
    assert(IdOverlapBlocking.securityCandidates(df).count() == 0)
  }

  test("identifier systems are namespaced: isin value == cusip value does not pair") {
    val df = secs((1L, 1, "XYZ", null, null, null), (2L, 2, null, "XYZ", null, null))
    assert(IdOverlapBlocking.securityCandidates(df).count() == 0)
  }

  test("any of the four identifier columns can pair") {
    val df = secs(
      (1L, 1, null, "C1", null, null), (2L, 2, null, "C1", null, null),
      (3L, 1, null, null, "V1", null), (4L, 2, null, null, "V1", null),
      (5L, 1, null, null, null, "S1"), (6L, 2, null, null, null, "S1"))
    val out = IdOverlapBlocking.securityCandidates(df)
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(out == Set((1L, 2L), (3L, 4L), (5L, 6L)))
  }

  test("multiple shared ids still yield one pair row") {
    val df = secs((1L, 1, "I1", "C1", null, null), (2L, 2, "I1", "C1", null, null))
    assert(IdOverlapBlocking.securityCandidates(df).count() == 1)
  }

  test("pairs are canonical (src < dst)") {
    val df = secs((9L, 1, "I1", null, null, null), (2L, 2, "I1", null, null, null))
    val out = IdOverlapBlocking.securityCandidates(df).collect().head
    assert(out.getLong(0) == 2L && out.getLong(1) == 9L)
  }

  test("oracle: security candidates match DuckDB") {
    val df = secs(
      (1L, 1, "I1", "C7", null, null),
      (2L, 2, "I1", null, "V1", null),
      (3L, 3, null, "C7", "V1", null),
      (4L, 1, "I9", null, null, "S1"),
      (5L, 2, null, null, null, "S1"),
      (6L, 2, "I9", null, null, null),
      (7L, 3, null, null, null, null))
    Oracle.assertEquivalent(
      IdOverlapBlocking.securityCandidates(df).select("src", "dst"),
      """WITH ids AS (
        |  SELECT recordId, source, 'isin:' || isin AS id FROM secs WHERE isin IS NOT NULL
        |  UNION ALL SELECT recordId, source, 'cusip:' || cusip FROM secs WHERE cusip IS NOT NULL
        |  UNION ALL SELECT recordId, source, 'valor:' || valor FROM secs WHERE valor IS NOT NULL
        |  UNION ALL SELECT recordId, source, 'sedol:' || sedol FROM secs WHERE sedol IS NOT NULL
        |)
        |SELECT DISTINCT
        |  LEAST(CAST(a.recordId AS BIGINT), CAST(b.recordId AS BIGINT)) AS src,
        |  GREATEST(CAST(a.recordId AS BIGINT), CAST(b.recordId AS BIGINT)) AS dst
        |FROM ids a JOIN ids b
        |  ON a.id = b.id AND a.source <> b.source AND a.recordId <> b.recordId""".stripMargin,
      "secs" -> df.select("recordId", "source", "isin", "cusip", "valor", "sedol")
    )
  }

  test("company candidates traverse issuer links") {
    import org.apache.spark.sql.functions._
    val securities = Seq(
      (101L, 1, "I1", 11L), // company 11 in source 1
      (102L, 2, "I1", 22L)  // company 22 in source 2
    ).toDF("recordId", "source", "isin", "issuerRecordId")
      .withColumn("cusip", lit(null: String))
      .withColumn("valor", lit(null: String))
      .withColumn("sedol", lit(null: String))
    val companies = Seq((11L, 1), (22L, 2)).toDF("recordId", "source")
    val out = IdOverlapBlocking.companyCandidates(companies, securities)
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(out == Set((11L, 22L)))
  }

  test("company candidates skip securities without an issuer link") {
    import org.apache.spark.sql.functions._
    val securities = Seq(
      (101L, 1, "I1", -1L),
      (102L, 2, "I1", 22L)
    ).toDF("recordId", "source", "isin", "issuerRecordId")
      .withColumn("cusip", lit(null: String))
      .withColumn("valor", lit(null: String))
      .withColumn("sedol", lit(null: String))
    val companies = Seq((22L, 2)).toDF("recordId", "source")
    assert(IdOverlapBlocking.companyCandidates(companies, securities).count() == 0)
  }

  test("generated dataset: id-overlap candidates are mostly true matches") {
    val p = GenParams.synthetic(nGroups = 200, seed = 19L)
    val d = EmDatasets.generate(spark, p)
    val cands = IdOverlapBlocking.securityCandidates(d.securities.toDF())
    val truth = d.securities.select($"recordId".as("rid"), $"entityId")
    val joined = cands
      .join(truth.withColumnRenamed("rid", "src").withColumnRenamed("entityId", "eA"), "src")
      .join(truth.withColumnRenamed("rid", "dst").withColumnRenamed("entityId", "eB"), "dst")
    val total = joined.count()
    val pos = joined.where($"eA" === $"eB").count()
    assert(total > 0)
    // mergers pollute ids, so not 100%, but the heuristic should be mostly right
    assert(pos.toDouble / total > 0.8, s"id-overlap precision ${pos.toDouble / total}")
    // ...and not perfect either (the paper's challenge 1 requires FP bait)
    assert(pos < total, "expected some merger-polluted false candidates")
  }
}
