package repro.core

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.blocking.IdOverlapBlocking
import repro.datagen.{EmDatasets, GenParams, WdcGen}

/** Differential test: the one-pass samplers of [[Splits]] return the same
  * labeled pairs as the unioned-join, window-capped [[reference.Splits]] on
  * generated data, whatever the shuffle partition count or input row order.
  */
class SplitsReferenceSpec extends SparkSpec {

  import spark.implicits._

  private val Seed = 17L
  private val Family = floor(col("entityId") / 4).cast("long")

  private def labeled(df: DataFrame): Set[(Long, Long, Int)] =
    df.select(col("src"), col("dst"), col("label")).as[(Long, Long, Int)].collect().toSet

  private def entities(df: DataFrame): Set[Long] =
    df.select(col("entityId")).as[Long].collect().toSet

  private def train(records: DataFrame): DataFrame =
    Splits.withSplit(records, 5L).where(col("split") === Splits.Train)
      .select("recordId", "entityId", "split").cache()

  /** Train-split company records and the id-overlap pairs of all records. */
  private def companies(seed: Long): (DataFrame, DataFrame) = {
    val d = EmDatasets.generate(spark, GenParams.synthetic(nGroups = 200, seed = seed))
    val ids = IdOverlapBlocking.companyCandidates(d.companies.toDF(), d.securities.toDF())
      .select("src", "dst").cache()
    (train(d.companies.toDF()), ids)
  }

  private def products(seed: Long): DataFrame =
    train(WdcGen.generate(spark, WdcGen.WdcParams(nFamilies = 120, seed = seed)).toDF())

  /** Positives cap that binds: half of the clean entities' positives. */
  private def cap(records: DataFrame, ids: DataFrame): Int =
    (Splits.positivePairs(records.join(Splits.idConnectedEntities(records, ids), "entityId"))
      .count() / 2).toInt

  private def reversed(df: DataFrame): DataFrame =
    spark.createDataFrame(df.collect().reverse.toSeq.asJava, df.schema)

  private def withShufflePartitions[A](n: Int)(f: => A): A = {
    val key = "spark.sql.shuffle.partitions"
    val old = spark.conf.get(key)
    spark.conf.set(key, n.toString)
    try f finally spark.conf.set(key, old)
  }

  for (seed <- Seq(41L, 42L, 43L)) {
    test(s"labeledPairs and cleanLabeledPairs equal the reference on synthetic companies, seed $seed") {
      val (records, ids) = companies(seed)
      val n = cap(records, ids)
      assert(n > 0)
      assert(labeled(Splits.labeledPairs(records, Seed)) ==
        labeled(reference.Splits.labeledPairs(records, Seed)))
      val clean = labeled(Splits.cleanLabeledPairs(records, ids, n, Seed))
      assert(clean.count(_._3 == 1) == n)
      assert(clean == labeled(reference.Splits.cleanLabeledPairs(spark, records, ids, n, Seed)))
    }
  }

  test("idConnectedEntities equals the reference on synthetic securities") {
    val secs = EmDatasets.generate(spark, GenParams.synthetic(nGroups = 200, seed = 41L))
      .securities.toDF().cache()
    val ids = IdOverlapBlocking.securityCandidates(secs).select("src", "dst")
    val clean = entities(Splits.idConnectedEntities(secs, ids))
    assert(clean.nonEmpty)
    assert(clean == entities(reference.Splits.idConnectedEntities(spark, secs, ids)))
  }

  for (seed <- Seq(5L, 6L)) {
    test(s"cornerLabeledPairs equals the reference on WDC products, seed $seed") {
      val records = products(seed).select("recordId", "entityId")
      assert(labeled(Splits.cornerLabeledPairs(records, Family, Seed)) ==
        labeled(reference.Splits.cornerLabeledPairs(records, Family, Seed)))
    }
  }

  test("every sampler's output is independent of shuffle partitions and row order") {
    val (records, ids) = companies(41L)
    val wdc = products(5L).select("recordId", "entityId")
    val n = cap(records, ids)
    def all(records: DataFrame, ids: DataFrame, wdc: DataFrame) = (
      labeled(Splits.labeledPairs(records, Seed)),
      labeled(Splits.cleanLabeledPairs(records, ids, n, Seed)),
      entities(Splits.idConnectedEntities(records, ids)),
      labeled(Splits.cornerLabeledPairs(wdc, Family, Seed)))
    val expected = (
      labeled(reference.Splits.labeledPairs(records, Seed)),
      labeled(reference.Splits.cleanLabeledPairs(spark, records, ids, n, Seed)),
      entities(reference.Splits.idConnectedEntities(spark, records, ids)),
      labeled(reference.Splits.cornerLabeledPairs(wdc, Family, Seed)))
    for (p <- Seq(1, 7, 64))
      assert(withShufflePartitions(p)(all(records, ids, wdc)) == expected, s"$p partitions")
    assert(all(reversed(records), reversed(ids), reversed(wdc)) == expected, "reversed rows")
  }
}
