package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.graph.ConnectedComponents
import repro.matcher.{LogisticModel, PairwiseMatcher, Serializer}
import repro.matcher.PairwiseMatcher.RecordSchema

/** The end-to-end entity group matching pipeline (paper Fig. 1):
  * blocking candidates → pairwise model → Pre Graph Cleanup → GraLMatch
  * Graph Cleanup → entity groups, with the three evaluation stages of
  * §5.3.2 snapshotted along the way.
  *
  * Connected components are computed once per run, at stage 2. Pre Graph
  * Cleanup and GraLMatch only delete edges, so every final group lies
  * inside a stage-2 component: both reuse that assignment
  * ([[PreCleanup.keep]], [[GraLMatch.cleanup]]) instead of running their
  * own pass.
  */
object Pipeline {

  final case class StageScores(scores: Metrics.PairScores, clusterPurity: Double)

  final case class Result(
      nCandidates: Long,
      nPositive: Long,
      pairwise: Metrics.PairScores,       // stage 1: positive predictions
      preCleanup: StageScores,            // stage 2: transitive closure
      postCleanup: StageScores,           // stage 3: after GraLMatch
      inferenceSeconds: Double,
      groups: DataFrame                   // final (id, group) assignment, cached
  )

  /** Runs the matching on one dataset.
    *
    * @param records      records with `recordId`, `entityId` + model columns
    * @param candidates   blocking output `(src, dst, blocking)`
    * @param model        trained pairwise classifier
    * @param schema       which record columns the model serializes
    * @param scheme       serialization scheme of the model variant
    * @param tokenBudget  max tokens of a serialized pair
    * @param thresholds   Algorithm 1's γ/μ
    * @param preCleanupMax components larger than this lose token-only edges
    */
  def run(
      spark: SparkSession,
      records: DataFrame,
      candidates: DataFrame,
      model: LogisticModel,
      schema: RecordSchema,
      scheme: Serializer.Scheme,
      tokenBudget: Int,
      thresholds: GraLMatch.Thresholds,
      preCleanupMax: Int = 50
  ): Result = {
    // one row per pair, provenance aggregated
    val pairs = candidates
      .groupBy("src", "dst")
      .agg(collect_set(col("blocking")).as("blockings"))
      .cache()
    val nCandidates = pairs.count()

    // ---- stage 1: pairwise predictions --------------------------------
    val t0 = System.nanoTime()
    val featurized = PairwiseMatcher.featurize(pairs, records, schema, scheme, tokenBudget)
    val positives = PairwiseMatcher.predict(model, featurized)
      .where(col("pred"))
      .select(col("src"), col("dst"), col("blockings"))
      .cache()
    val nPositive = positives.count()
    val inferenceSeconds = (System.nanoTime() - t0) / 1e9

    val pairwise = Metrics.scorePairs(positives, records)

    val allIds = records.select(col("recordId").as("id"))

    // ---- stage 2: transitive closure of raw predictions ---------------
    // the run's only connected-components pass; stage 3 reuses it
    val preAssign = ConnectedComponents
      .run(spark, positives.select("src", "dst"), Some(allIds))
    val (preScores, prePurity) = Metrics.scoreGroups(preAssign, records)

    // ---- stage 3: Pre Graph Cleanup + GraLMatch -----------------------
    val kept = PreCleanup.keep(positives, preAssign, preCleanupMax)
    val groups = GraLMatch.cleanup(spark, kept, preAssign, thresholds).cache()
    val (postScores, postPurity) = Metrics.scoreGroups(groups, records)
    positives.unpersist()
    pairs.unpersist()

    Result(
      nCandidates, nPositive, pairwise,
      StageScores(preScores, prePurity),
      StageScores(postScores, postPurity),
      inferenceSeconds,
      groups)
  }
}
