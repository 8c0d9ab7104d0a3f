package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.blocking._
import repro.core._
import repro.datagen._
import repro.graph.ConnectedComponents
import repro.matcher._
import repro.matcher.ModelZoo._
import repro.matcher.PairwiseMatcher.RecordSchema

/** The experiment harness behind every reproduced table (paper §5–§6).
  *
  * Scale: the paper's synthetic datasets have 200K groups; benches run the
  * same pipeline at a laptop scale set by `REPRO_SCALE` (default 1.0 ≈
  * 6K synthetic groups). All rates/proportions match the paper's setup, so
  * the table *shapes* are preserved while absolute counts scale down (see
  * EXPERIMENTS.md).
  */
object Experiments {

  val Seed      = 7L
  val SplitSeed = 3L

  def scale: Double = sys.env.get("REPRO_SCALE").map(_.toDouble).getOrElse(1.0)

  private def even(n: Int): Int = if (n % 2 == 0) n else n + 1

  def syntheticParams: GenParams = GenParams.synthetic(even((6000 * scale).toInt.max(200)), Seed)
  def realParams: GenParams      = GenParams.real(even((1400 * scale).toInt.max(100)), Seed + 1)
  def wdcParams: WdcGen.WdcParams = WdcGen.WdcParams(nFamilies = (800 * scale).toInt.max(100), seed = Seed + 2)

  // ----------------------------------------------------------------------
  // datasets
  // ----------------------------------------------------------------------

  /** A dataset prepared for the experiments. */
  final case class Built(
      name: String,
      /** full record set with a `split` column */
      records: DataFrame,
      schema: RecordSchema,
      /** records the entity-group-matching pipeline runs on (paper: the
        * test split for the synthetic/WDC datasets, the whole labeled
        * subset for the real ones)
        */
      pipelineRecords: DataFrame,
      /** blocking candidates over `pipelineRecords` */
      candidates: DataFrame,
      /** id-overlap pairs over the full records (15K clean-group filter) */
      idPairs: DataFrame,
      gamma: Int,
      mu: Int,
      /** model variants evaluated on this dataset (paper Tables 3/4) */
      variants: Seq[ModelVariant],
      /** WDC Products: fine-tuning negatives are corner cases (sibling
        * entities of the same product family), not random pairs
        */
      cornerNegatives: Boolean = false
  )

  /** 15K-policy positive-pair cap, scaled like the paper's 15K of ~900K. */
  def cap15k(records: DataFrame): Int = {
    val pos = Metrics.truthPairCount(records.where(col("split") === Splits.Train))
    math.max(200, (pos * 15000.0 / 900000.0).toInt)
  }

  private def withSplit(df: DataFrame): DataFrame = Splits.withSplit(df, SplitSeed)

  private def companyBuilt(
      name: String, data: EmDatasets.EmData, gamma: Int, mu: Int,
      pipelineOnTest: Boolean, variants: DataFrame => Seq[ModelVariant]
  ): Built = {
    val companies  = withSplit(data.companies.toDF()).cache()
    val securities = data.securities.toDF().cache()
    val pipeline =
      if (pipelineOnTest) companies.where(col("split") === Splits.Test).cache()
      else companies
    // securities issued by the pipeline companies drive the id blocking
    val secsOfPipeline = securities.join(
      pipeline.select(col("recordId").as("issuerRecordId")),
      Seq("issuerRecordId"), "left_semi")
    val cands = Blocking.combine(
      IdOverlapBlocking.companyCandidates(pipeline, secsOfPipeline),
      TokenOverlapBlocking.candidates(pipeline, "name", topN = 5, maxDocFreq = 500))
    val idPairsFull = IdOverlapBlocking.companyCandidates(companies, securities)
      .select("src", "dst")
    Built(name, companies, RecordSchema.Companies, pipeline, cands.cache(),
      idPairsFull.cache(), gamma, mu, variants(companies))
  }

  private def securityBuilt(
      name: String, data: EmDatasets.EmData, gamma: Int, mu: Int,
      pipelineOnTest: Boolean, variants: DataFrame => Seq[ModelVariant]
  )(spark: SparkSession): Built = {
    val securities = withSplit(data.securities.toDF()).cache()
    val companies  = data.companies.toDF().cache()
    val pipeline =
      if (pipelineOnTest) securities.where(col("split") === Splits.Test).cache()
      else securities
    // Issuer Match needs a previous matching of the issuers; the paper's
    // benchmark heuristic is used: company groups = connected components of
    // the company id-overlap candidates.
    val companyIdPairs = IdOverlapBlocking.companyCandidates(companies, securities)
    val companyGroups = ConnectedComponents
      .run(spark, companyIdPairs.select("src", "dst"),
        Some(companies.select(col("recordId").as("id"))))
      .select(col("id").as("recordId"), col("component").as("group"))
    val cands = Blocking.combine(
      IdOverlapBlocking.securityCandidates(pipeline),
      IssuerMatchBlocking.candidates(pipeline, companyGroups))
    val idPairsFull = IdOverlapBlocking.securityCandidates(securities).select("src", "dst")
    Built(name, securities, RecordSchema.Securities, pipeline, cands.cache(),
      idPairsFull.cache(), gamma, mu, variants(securities))
  }

  private def threeModels: Seq[ModelVariant] = Seq(ditto128, ditto256, distilBert128All)

  private def fourModels(records: DataFrame): Seq[ModelVariant] =
    Seq(ditto128, ditto256, distilBert128_15K(cap15k(records)), distilBert128All)

  def realCompanies(spark: SparkSession): Built =
    companyBuilt("Real Companies", EmDatasets.generate(spark, realParams),
      gamma = 40, mu = 8, pipelineOnTest = false, _ => threeModels)

  def syntheticCompanies(spark: SparkSession): Built =
    companyBuilt("Synthetic Companies", EmDatasets.generate(spark, syntheticParams),
      gamma = 25, mu = 5, pipelineOnTest = true, fourModels)

  def realSecurities(spark: SparkSession): Built =
    securityBuilt("Real Securities", EmDatasets.generate(spark, realParams),
      gamma = 40, mu = 8, pipelineOnTest = false, _ => threeModels)(spark)

  def syntheticSecurities(spark: SparkSession): Built =
    securityBuilt("Synthetic Securities", EmDatasets.generate(spark, syntheticParams),
      gamma = 25, mu = 5, pipelineOnTest = true, fourModels)(spark)

  def wdcProducts(spark: SparkSession): Built = {
    val products = withSplit(WdcGen.generate(spark, wdcParams).toDF()).cache()
    val pipeline = products.where(col("split") === Splits.Test).cache()
    val cands = TokenOverlapBlocking.candidates(pipeline, "title", topN = 5, maxDocFreq = 500)
    val empty = products.sparkSession.emptyDataFrame
      .withColumn("src", lit(0L)).withColumn("dst", lit(0L))
      .select("src", "dst").limit(0)
    Built("WDC Products", products, RecordSchema.Products, pipeline, cands.cache(),
      empty, gamma = 25, mu = 5, threeModels,
      cornerNegatives = true)
  }

  // ----------------------------------------------------------------------
  // fine-tuning (Table 3)
  // ----------------------------------------------------------------------

  final case class FineTuneRow(
      dataset: String, model: String,
      precision: Double, recall: Double, f1: Double,
      trainSeconds: Double, nTrainPairs: Long)

  /** Confusion-based scores on a labeled pair set (fine-tuning evaluation:
    * every positive of the split is in the set, so recall is local).
    */
  def evalLabeled(preds: DataFrame): Metrics.PairScores = {
    val agg = preds.agg(
      coalesce(sum(when(col("pred") && col("label") === 1, 1L).otherwise(0L)), lit(0L)),
      coalesce(sum(when(col("pred") && col("label") === 0, 1L).otherwise(0L)), lit(0L)),
      coalesce(sum(when(!col("pred") && col("label") === 1, 1L).otherwise(0L)), lit(0L))
    ).head()
    Metrics.PairScores(agg.getLong(0), agg.getLong(1), agg.getLong(2))
  }

  /** Fine-tunes a variant on the train split and scores it on test pairs. */
  def fineTune(spark: SparkSession, ds: Built, variant: ModelVariant): (TrainedModel, FineTuneRow) = {
    val train = ds.records.where(col("split") === Splits.Train)
    val family = floor(col("entityId") / 4).cast("long")
    val t0 = System.nanoTime()
    val labeled = variant.trainPolicy match {
      case TrainAll if ds.cornerNegatives =>
        Splits.cornerLabeledPairs(train.select("recordId", "entityId"), family, seed = Seed)
      case TrainAll =>
        Splits.labeledPairs(train.select("recordId", "entityId"), seed = Seed)
      case TrainFilteredClean(maxPairs) =>
        Splits.cleanLabeledPairs(train.select("recordId", "entityId", "split"),
          ds.idPairs, maxPairs, seed = Seed)
    }
    val feat = PairwiseMatcher.featurize(
      labeled, ds.records, ds.schema, variant.scheme, variant.tokenBudget)
    val (model, n) = PairwiseMatcher.train(feat)
    val seconds = (System.nanoTime() - t0) / 1e9
    val trained = TrainedModel(variant, model, seconds, n)

    val test = ds.records.where(col("split") === Splits.Test)
    val testPairs =
      if (ds.cornerNegatives)
        Splits.cornerLabeledPairs(test.select("recordId", "entityId"), family, seed = Seed + 13)
      else
        Splits.labeledPairs(test.select("recordId", "entityId"), seed = Seed + 13)
    val testFeat = PairwiseMatcher.featurize(
      testPairs, ds.records, ds.schema, variant.scheme, variant.tokenBudget)
    val s = evalLabeled(PairwiseMatcher.predict(model, testFeat))
    (trained,
      FineTuneRow(ds.name, variant.name, s.precision, s.recall, s.f1, seconds, n))
  }

  // ----------------------------------------------------------------------
  // entity group matching (Table 4)
  // ----------------------------------------------------------------------

  final case class GroupMatchRow(
      dataset: String, model: String,
      pairwise: Metrics.PairScores,
      pre: Pipeline.StageScores,
      post: Pipeline.StageScores,
      inferenceSeconds: Double)

  /** One Table-4 row per `(row label, thresholds)`, all from one prediction. */
  def groupMatch(
      spark: SparkSession, ds: Built, trained: TrainedModel,
      thresholds: Seq[(String, GraLMatch.Thresholds)]
  ): Seq[GroupMatchRow] = {
    val p = Pipeline.predict(
      spark, ds.pipelineRecords, ds.candidates, trained.model, ds.schema,
      trained.variant.scheme, trained.variant.tokenBudget)
    try thresholds.map { case (label, th) =>
      val res = Pipeline.cleanup(p, th)
      res.groups.unpersist()
      GroupMatchRow(ds.name, label, p.pairwise, p.preCleanup, res.postCleanup, p.inferenceSeconds)
    } finally p.positives.unpersist()
  }

  // ----------------------------------------------------------------------
  // dataset statistics (Table 1)
  // ----------------------------------------------------------------------

  final case class StatsRow(
      name: String, nSources: Long, nEntities: Long, nRecords: Long,
      nMatches: Long, avgMatchesPerEntity: Double, descShare: Option[Double])

  def stats(records: DataFrame, name: String, withDesc: Boolean): StatsRow = {
    val nRecords  = records.count()
    val nSources  = records.select("source").distinct().count()
    val nEntities = records.select("entityId").distinct().count()
    val nMatches  = Metrics.truthPairCount(records)
    val desc =
      if (withDesc)
        Some(records.where(col("description").isNotNull).count().toDouble / nRecords)
      else None
    StatsRow(name, nSources, nEntities, nRecords, nMatches,
      nMatches.toDouble / nEntities, desc)
  }
}
