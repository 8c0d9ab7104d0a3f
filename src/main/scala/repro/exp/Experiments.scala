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

  /** A dataset prepared for the experiments, with its fine-tuning recipe. */
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
      gamma: Int,
      mu: Int,
      /** model variants evaluated on this dataset (paper Tables 3/4) */
      variants: Seq[ModelVariant],
      /** the dataset's labeled `(src, dst, label)` pairs of one split's
        * `(recordId, entityId)` records under a training policy, for a seed
        */
      sample: (TrainPolicy, DataFrame, Long) => DataFrame
  ) {
    private def split(s: Int): DataFrame =
      records.where(col("split") === s).select("recordId", "entityId")

    /** Fine-tuning pairs of the train split under `policy`. */
    def trainPairs(policy: TrainPolicy): DataFrame = sample(policy, split(Splits.Train), Seed)

    /** The test-split pairs every variant is scored on, sampled on first use. */
    lazy val testPairs: DataFrame = sample(TrainAll, split(Splits.Test), Seed + 13).cache()
  }

  /** 15K-policy positive-pair cap of one split, scaled like the paper's 15K of ~900K. */
  def cap15k(splitRecords: DataFrame): Int = {
    val pos = Metrics.truthPairCount(splitRecords)
    math.max(200, (pos * 15000.0 / 900000.0).toInt)
  }

  private def withSplit(df: DataFrame): DataFrame = Splits.withSplit(df, SplitSeed)

  private val threeModels: Seq[ModelVariant] = Seq(ditto128, ditto256, distilBert128All)

  /** One of the four company and security datasets (paper Table 2), matching
    * the security records if `securities`, else the company records. A
    * synthetic dataset runs the pipeline on its test split at γ/μ 25/5 and
    * adds the 15K variant; a real one runs it on every labeled record at 40/8.
    */
  def emDataset(spark: SparkSession, p: GenParams, synthetic: Boolean, securities: Boolean): Built = {
    val data = EmDatasets.generate(spark, p)
    val records = withSplit(if (securities) data.securities.toDF() else data.companies.toDF()).cache()
    val companies = if (securities) data.companies.toDF().cache() else records
    val secs = if (securities) records else data.securities.toDF().cache()
    val pipeline = if (synthetic) records.where(col("split") === Splits.Test).cache() else records
    val candidates =
      if (securities) {
        // Issuer Match needs a previous matching of the issuers; the paper's
        // benchmark heuristic is used: company groups = connected components
        // of the company id-overlap candidates.
        val companyGroups = ConnectedComponents
          .run(spark, IdOverlapBlocking.companyCandidates(companies, secs).select("src", "dst"),
            Some(companies.select(col("recordId").as("id"))))
        Blocking.combine(
          IdOverlapBlocking.securityCandidates(pipeline),
          IssuerMatchBlocking.candidates(pipeline, companyGroups))
      } else {
        // securities issued by the pipeline companies drive the id blocking
        val secsOfPipeline = secs.join(
          pipeline.select(col("recordId").as("issuerRecordId")), Seq("issuerRecordId"), "left_semi")
        Blocking.combine(
          IdOverlapBlocking.companyCandidates(pipeline, secsOfPipeline),
          TokenOverlapBlocking.candidates(pipeline, "name", topN = 5, maxDocFreq = 500))
      }
    // id-overlap pairs over all records, read only by the 15K policy
    lazy val idPairs =
      (if (securities) IdOverlapBlocking.securityCandidates(records)
       else IdOverlapBlocking.companyCandidates(records, secs)).select("src", "dst")
    Built(
      s"${if (synthetic) "Synthetic" else "Real"} ${if (securities) "Securities" else "Companies"}",
      records, if (securities) RecordSchema.Securities else RecordSchema.Companies,
      pipeline, candidates.cache(),
      gamma = if (synthetic) 25 else 40, mu = if (synthetic) 5 else 8,
      if (synthetic) Seq(ditto128, ditto256, distilBert128_15K, distilBert128All)
      else threeModels,
      (policy, splitRecords, seed) => policy match {
        case TrainAll => Splits.labeledPairs(splitRecords, seed)
        case TrainFilteredClean =>
          Splits.cleanLabeledPairs(splitRecords, idPairs, cap15k(splitRecords), seed)
      })
  }

  /** WDC Products: the pipeline runs on the test split at γ/μ 25/5, and the
    * fine-tuning negatives are mostly corner cases, pairs of sibling
    * entities (paper §5.1.4). Offers carry no identifiers, so there is no
    * 15K policy.
    */
  def wdcProducts(spark: SparkSession, p: WdcGen.WdcParams): Built = {
    val products = withSplit(WdcGen.generate(spark, p).toDF()).cache()
    val pipeline = products.where(col("split") === Splits.Test).cache()
    val cands = TokenOverlapBlocking.candidates(pipeline, "title", topN = 5, maxDocFreq = 500)
    Built("WDC Products", products, RecordSchema.Products, pipeline, cands.cache(),
      gamma = 25, mu = 5, threeModels,
      (policy, splitRecords, seed) => {
        require(policy == TrainAll, s"WDC Products has no identifiers for the $policy policy")
        Splits.cornerLabeledPairs(splitRecords, WdcGen.family, seed)
      })
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

  /** Fine-tunes a variant on the dataset's train pairs under the variant's
    * policy and scores it on the dataset's test pairs. `trainSeconds` covers
    * sampling the train pairs, featurizing them and training.
    */
  def fineTune(ds: Built, variant: ModelVariant): (LogisticModel, FineTuneRow) = {
    val t0 = System.nanoTime()
    val feat = PairwiseMatcher.featurize(
      ds.trainPairs(variant.trainPolicy), ds.records, ds.schema, variant.scheme, variant.tokenBudget)
    val (model, n) = PairwiseMatcher.train(feat)
    val seconds = (System.nanoTime() - t0) / 1e9
    val testFeat = PairwiseMatcher.featurize(
      ds.testPairs, ds.records, ds.schema, variant.scheme, variant.tokenBudget)
    val s = evalLabeled(PairwiseMatcher.predict(model, testFeat))
    (model, FineTuneRow(ds.name, variant.name, s.precision, s.recall, s.f1, seconds, n))
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

  /** One Table-4 row per `(row label, thresholds)`, all from one prediction of `model`. */
  def groupMatch(
      spark: SparkSession, ds: Built, variant: ModelVariant, model: LogisticModel,
      thresholds: Seq[(String, GraLMatch.Thresholds)]
  ): Seq[GroupMatchRow] = {
    val p = Pipeline.predict(
      spark, ds.pipelineRecords, ds.candidates, model, ds.schema,
      variant.scheme, variant.tokenBudget)
    try thresholds.map { case (label, th) =>
      val res = Pipeline.cleanup(p, th)
      res.groups.unpersist()
      GroupMatchRow(ds.name, label, p.pairwise, res.preCleanup, res.postCleanup, p.inferenceSeconds)
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
