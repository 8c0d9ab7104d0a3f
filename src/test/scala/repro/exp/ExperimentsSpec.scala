package repro.exp

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.blocking.{Blocking, IdOverlapBlocking}
import repro.core.Splits
import repro.datagen.{EmDatasets, GenParams, WdcGen}
import repro.exp.Experiments._
import repro.matcher.ModelZoo.{TrainAll, TrainFilteredClean, TrainPolicy}

/** The five dataset recipes of [[Experiments]], built from small generator
  * params.
  */
class ExperimentsSpec extends SparkSpec {

  import spark.implicits._

  private val synthParams = GenParams.synthetic(nGroups = 200, seed = 41L)
  private val realParams  = GenParams.real(nGroups = 100, seed = 42L)

  private lazy val realCompanies = emDataset(spark, realParams, synthetic = false, securities = false)
  private lazy val synthCompanies = emDataset(spark, synthParams, synthetic = true, securities = false)
  private lazy val realSecurities = emDataset(spark, realParams, synthetic = false, securities = true)
  private lazy val synthSecurities = emDataset(spark, synthParams, synthetic = true, securities = true)
  private lazy val wdc = wdcProducts(spark, WdcGen.WdcParams(nFamilies = 100, seed = 43L))

  private def labeled(pairs: DataFrame, label: Int): DataFrame =
    pairs.where(col("label") === label).select("src", "dst")

  test("each dataset has its paper name, blockings and variants") {
    def blockings(ds: Built): Set[String] =
      ds.candidates.select("blocking").distinct().as[String].collect().toSet
    val expected = Seq(
      realCompanies   -> Set(Blocking.IdOverlap, Blocking.TokenOverlap),
      synthCompanies  -> Set(Blocking.IdOverlap, Blocking.TokenOverlap),
      realSecurities  -> Set(Blocking.IdOverlap, Blocking.IssuerMatch),
      synthSecurities -> Set(Blocking.IdOverlap, Blocking.IssuerMatch),
      wdc             -> Set(Blocking.TokenOverlap))
    for ((ds, names) <- expected) {
      assert(blockings(ds) == names, ds.name)
      assert(PaperNumbers.table2.contains(ds.name), ds.name)
      for (v <- ds.variants) assert(PaperNumbers.table3.contains((ds.name, v.name)), s"${ds.name}/${v.name}")
    }
  }

  test("WDC training negatives are mostly sibling-entity pairs") {
    val fam = wdc.records.where(col("split") === Splits.Train)
      .select(col("recordId"), col("entityId"), WdcGen.family.as("family"))
    val negatives = labeled(wdc.trainPairs(TrainAll), 0)
      .join(fam.toDF("src", "eA", "fA"), "src")
      .join(fam.toDF("dst", "eB", "fB"), "dst")
    val siblingPairs = fam.toDF("src", "eA", "family")
      .join(fam.toDF("dst", "eB", "family"), "family")
      .where(col("eA") =!= col("eB") && col("src") < col("dst"))
      .count()
    val siblingNegatives = negatives.where(col("eA") =!= col("eB") && col("fA") === col("fB")).count()
    assert(siblingNegatives > 0)
    assert(siblingNegatives >= math.min(siblingPairs, 0.8 * negatives.count()))
    intercept[IllegalArgumentException](wdc.trainPairs(TrainFilteredClean))
  }

  test("15K positives come only from id-connected entities and respect the cap") {
    for (ds <- Seq(synthCompanies, synthSecurities)) {
      val idPairs =
        if (ds eq synthSecurities) IdOverlapBlocking.securityCandidates(ds.records)
        else IdOverlapBlocking.companyCandidates(
          ds.records, EmDatasets.generate(spark, synthParams).securities.toDF())
      val train = ds.records.where(col("split") === Splits.Train).select("recordId", "entityId")
      val clean = Splits.idConnectedEntities(train, idPairs.select("src", "dst"))
      val cleanPositives = Splits.positivePairs(train.join(clean, "entityId")).count()

      val positives = labeled(ds.trainPairs(TrainFilteredClean), 1)
      assert(positives.count() == math.min(cap15k(train), cleanPositives), ds.name)
      val unclean = positives
        .join(train.toDF("src", "entityId"), "src")
        .join(clean, Seq("entityId"), "left_anti")
      assert(unclean.count() == 0, ds.name)
    }
  }

  test("building a dataset runs no Spark action") {
    assert(sparkActions(emDataset(spark, synthParams, synthetic = true, securities = false)) == Nil)
  }

  test("every variant of a dataset is scored on the same test pairs, sampled once") {
    var calls = 0
    val counted = synthCompanies.copy(sample = (policy: TrainPolicy, records: DataFrame, seed: Long) => {
      calls += 1
      synthCompanies.sample(policy, records, seed)
    })
    val rows = counted.variants.map(v => fineTune(counted, v)._2)
    assert(rows.map(_.model) == synthCompanies.variants.map(_.name))
    // one train sample per variant, one test sample for all of them
    assert(calls == counted.variants.size + 1)
  }
}
