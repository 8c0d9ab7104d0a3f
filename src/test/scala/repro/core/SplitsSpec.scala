package repro.core

import org.apache.spark.sql.{CacheManagerAccess, DataFrame}
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.datagen.{EmDatasets, GenParams, WdcGen}
import repro.blocking.IdOverlapBlocking

class SplitsSpec extends SparkSpec {

  import spark.implicits._

  private def recs(rows: (Long, Long)*) =
    rows.toDF("recordId", "entityId")

  test("splitOf is deterministic and covers all three splits") {
    val splits = (0L until 3000L).map(Splits.splitOf(_, 1L))
    assert(splits == (0L until 3000L).map(Splits.splitOf(_, 1L)))
    assert(splits.toSet == Set(0, 1, 2))
  }

  test("splitOf proportions are roughly 60/20/20") {
    val splits = (0L until 20000L).map(Splits.splitOf(_, 7L))
    val train = splits.count(_ == Splits.Train) / 20000.0
    val test  = splits.count(_ == Splits.Test) / 20000.0
    assert(math.abs(train - 0.6) < 0.03, s"train share $train")
    assert(math.abs(test - 0.2) < 0.03, s"test share $test")
  }

  test("withSplit groups whole entities into one split") {
    val df = Splits.withSplit(recs((1L, 10L), (2L, 10L), (3L, 20L)), 5L)
    val perEntity = df.groupBy("entityId").agg(countDistinct("split").as("k")).collect()
    assert(perEntity.forall(_.getLong(1) == 1L))
  }

  test("positivePairs emits all intra-entity pairs canonically") {
    val out = Splits.positivePairs(recs((1L, 10L), (2L, 10L), (3L, 10L), (4L, 20L)))
      .select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(out == Set((1L, 2L), (1L, 3L), (2L, 3L)))
  }

  test("oracle: positive pairs match DuckDB self-join") {
    val df = recs((1L, 10L), (2L, 10L), (3L, 10L), (4L, 20L), (5L, 20L), (6L, 30L))
    Oracle.assertEquivalent(
      Splits.positivePairs(df).select("src", "dst"),
      """SELECT CAST(a.recordId AS BIGINT) AS src, CAST(b.recordId AS BIGINT) AS dst
        |FROM recs a JOIN recs b
        |  ON a.entityId = b.entityId
        | AND CAST(a.recordId AS BIGINT) < CAST(b.recordId AS BIGINT)""".stripMargin,
      "recs" -> df)
  }

  test("negativePairs produces the requested count of cross-entity pairs") {
    val df = recs((1L to 40L).map(i => (i, i % 10)): _*)
    val neg = Splits.negativePairs(df, 50L, 3L)
    assert(neg.count() == 50L)
    val joined = neg
      .join(df.withColumnRenamed("recordId", "src").withColumnRenamed("entityId", "eA"), "src")
      .join(df.withColumnRenamed("recordId", "dst").withColumnRenamed("entityId", "eB"), "dst")
    assert(joined.where($"eA" === $"eB").count() == 0)
  }

  test("negativePairs is deterministic") {
    val df = recs((1L to 30L).map(i => (i, i % 7)): _*)
    val a = Splits.negativePairs(df, 20L, 9L).collect().toSet
    val b = Splits.negativePairs(df, 20L, 9L).collect().toSet
    assert(a == b)
  }

  test("labeledPairs keeps a 5:1 negative ratio") {
    val df = recs((1L to 30L).map(i => (i, i % 10)): _*)
    val lp = Splits.labeledPairs(df, seed = 3L)
    val pos = lp.where($"label" === 1).count()
    val neg = lp.where($"label" === 0).count()
    assert(neg == 5 * pos)
  }

  test("idConnectedEntities accepts a fully id-connected entity") {
    val records = recs((1L, 10L), (2L, 10L), (3L, 10L))
    val idPairs = Seq((1L, 2L), (2L, 3L)).toDF("src", "dst")
    val clean = Splits.idConnectedEntities(records, idPairs)
      .collect().map(_.getLong(0)).toSet
    assert(clean == Set(10L))
  }

  test("idConnectedEntities rejects split id-cliques (acquisition shape)") {
    val records = recs((1L, 10L), (2L, 10L), (3L, 10L), (4L, 10L))
    val idPairs = Seq((1L, 2L), (3L, 4L)).toDF("src", "dst") // two disjoint cliques
    assert(Splits.idConnectedEntities(records, idPairs).count() == 0)
  }

  test("idConnectedEntities treats singleton entities as clean") {
    val records = recs((1L, 10L))
    val idPairs = Seq.empty[(Long, Long)].toDF("src", "dst")
    assert(Splits.idConnectedEntities(records, idPairs)
      .collect().map(_.getLong(0)).toSet == Set(10L))
  }

  test("idConnectedEntities ignores cross-entity id pairs") {
    val records = recs((1L, 10L), (2L, 10L), (3L, 20L))
    val idPairs = Seq((1L, 3L)).toDF("src", "dst") // merger-style pollution
    val clean = Splits.idConnectedEntities(records, idPairs)
      .collect().map(_.getLong(0)).toSet
    // entity 10 is NOT id-connected (1-2 lack an id edge); entity 20 is a singleton
    assert(clean == Set(20L))
  }

  test("cleanLabeledPairs caps positives and keeps the 5:1 ratio") {
    val records = recs((1L to 20L).map(i => (i, i % 5)): _*)
    val idPairs = Splits.positivePairs(records).select("src", "dst") // fully connected groups
    val lp = Splits.cleanLabeledPairs(records, idPairs, maxPositives = 4, seed = 31L)
    assert(lp.where($"label" === 1).count() == 4)
    assert(lp.where($"label" === 0).count() == 20)
  }

  test("cornerLabeledPairs: 5:1, cross-entity negatives, >= 80% siblings, deterministic") {
    val family = WdcGen.family
    // Generated WDC offers have fewer sibling pairs than 80% of the
    // negatives; 30 families of four 2-record entities have enough.
    val wdc = WdcGen.generate(spark, WdcGen.WdcParams(nFamilies = 120, seed = 5L)).toDF()
      .select("recordId", "entityId")
    val dense = recs((0L until 240L).map(r => (r, r / 2)): _*)
    for (records <- Seq(wdc, dense)) {
      val lp = Splits.cornerLabeledPairs(records, family, seed = 3L).cache()
      val pos = lp.where($"label" === 1).count()
      val neg = lp.where($"label" === 0)
      val nNeg = neg.count()
      // The random remainder is drawn before the pairs that repeat a sibling
      // pair are dropped, and those are not redrawn, so the ratio may fall a
      // little short of 5:1.
      assert(pos > 0 && nNeg <= 5 * pos && nNeg >= 0.99 * 5 * pos, s"$nNeg negatives, $pos positives")

      val fam = records.select($"recordId", $"entityId", family.as("family"))
      val joined = neg
        .join(fam.toDF("src", "eA", "fA"), "src")
        .join(fam.toDF("dst", "eB", "fB"), "dst")
      assert(joined.count() == nNeg)
      assert(joined.where($"eA" === $"eB").count() == 0)
      val siblingPairs = fam.toDF("src", "eA", "family")
        .join(fam.toDF("dst", "eB", "family"), "family")
        .where($"eA" =!= $"eB" && $"src" < $"dst")
        .count()
      assert(joined.where($"fA" === $"fB").count() >= math.min(siblingPairs, 0.8 * nNeg))

      val again = Splits.cornerLabeledPairs(records, family, seed = 3L)
      assert(again.collect().toSet == lp.collect().toSet)
    }
  }

  test("the labeled-pair samplers leave no cached frame behind once consumed") {
    val samplers = Seq[DataFrame => DataFrame](
      Splits.labeledPairs(_, seed = 3L),
      Splits.cornerLabeledPairs(_, WdcGen.family, seed = 3L),
      records => Splits.cleanLabeledPairs(
        records, Splits.positivePairs(records).select("src", "dst"), maxPositives = 4, seed = 3L))
    // fresh records per sampler, so no sampler finds another's frame cached
    for ((sample, i) <- samplers.zipWithIndex) {
      val records = recs((1L to 30L).map(r => (1000L * i + r, r % 6)): _*)
      val before = CacheManagerAccess.numCachedEntries(spark)
      assert(sample(records).collect().nonEmpty)
      assert(CacheManagerAccess.numCachedEntries(spark) == before, s"sampler $i left a cached frame")
    }
  }

  test("on generated data, acquisition entities are filtered out as unclean") {
    val p = GenParams.synthetic(nGroups = 200, seed = 41L)
    val d = EmDatasets.generate(spark, p)
    val secs = d.securities.toDF().cache()
    val idPairs = IdOverlapBlocking.securityCandidates(secs).select("src", "dst")
    val clean = Splits.idConnectedEntities(secs, idPairs)
    val total = secs.select("entityId").distinct().count()
    val cleanN = clean.count()
    assert(cleanN > 0 && cleanN < total, s"clean $cleanN of $total")
  }
}
