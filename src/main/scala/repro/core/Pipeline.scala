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
  * [[predict]] runs stages 1–2 and [[cleanup]] stage 3, so one prediction
  * can be cleaned at several γ/μ (Table 4's sensitivity rows). Connected
  * components are computed once per prediction, at stage 2. Pre Graph
  * Cleanup and GraLMatch only delete edges, so every final group lies
  * inside a stage-2 component: both reuse that assignment
  * ([[PreCleanup.keep]], [[GraLMatch.cleanup]]).
  *
  * Besides the connected components, a run's Spark actions are the count
  * that materializes the cached positives (where the inference timer stops)
  * and one `head()` per stage score ([[Metrics]]).
  */
object Pipeline {

  final case class StageScores(scores: Metrics.PairScores, clusterPurity: Double)

  /** Stages 1–2 over `records`: the stage-1 (`pairwise`) and stage-2
    * (`preCleanup`) scores, the inference time, the cached positives
    * `(src, dst, blockings)` and their stage-2 `(id, component)` assignment.
    */
  final case class Prediction(
      records: DataFrame, pairwise: Metrics.PairScores, preCleanup: StageScores,
      inferenceSeconds: Double, positives: DataFrame, assign: DataFrame)

  /** A cleaned prediction: the stage-3 scores and the final `(id, group)`
    * assignment, cached.
    */
  final case class Result(prediction: Prediction, postCleanup: StageScores, groups: DataFrame)

  /** Stages 1–2: scores the candidates and takes the connected components
    * of the positive predictions.
    *
    * @param records      records with `recordId`, `entityId` + model columns
    * @param candidates   blocking output `(src, dst, blocking)`
    * @param model        trained pairwise classifier
    * @param schema       which record columns the model serializes
    * @param scheme       serialization scheme of the model variant
    * @param tokenBudget  max tokens of a serialized pair
    */
  def predict(
      spark: SparkSession, records: DataFrame, candidates: DataFrame, model: LogisticModel,
      schema: RecordSchema, scheme: Serializer.Scheme, tokenBudget: Int
  ): Prediction = {
    // ---- stage 1: pairwise predictions --------------------------------
    // timed from grouping the candidates (one row per pair) to the cached positives
    val t0 = System.nanoTime()
    val pairs = candidates
      .groupBy("src", "dst")
      .agg(collect_set(col("blocking")).as("blockings"))
    val featurized = PairwiseMatcher.featurize(pairs, records, schema, scheme, tokenBudget)
    val positives = PairwiseMatcher.predict(model, featurized)
      .where(col("pred"))
      .select(col("src"), col("dst"), col("blockings"))
      .cache()
    positives.count()
    val inferenceSeconds = (System.nanoTime() - t0) / 1e9

    val pairwise = Metrics.scorePairs(positives, records)

    val allIds = records.select(col("recordId").as("id"))

    // ---- stage 2: transitive closure of raw predictions ---------------
    // the prediction's only connected-components pass; stage 3 reuses it
    val assign = ConnectedComponents
      .run(spark, positives.select("src", "dst"), Some(allIds))
    val (preScores, prePurity) = Metrics.scoreGroups(assign, records)

    Prediction(records, pairwise, StageScores(preScores, prePurity), inferenceSeconds,
      positives, assign)
  }

  /** Stage 3: Pre Graph Cleanup, then GraLMatch at `thresholds` (Algorithm
    * 1's γ/μ). Leaves `p.positives` cached, so `p` can be cleaned again.
    */
  def cleanup(p: Prediction, thresholds: GraLMatch.Thresholds): Result = {
    val kept = PreCleanup.keep(p.positives, p.assign)
    val groups = GraLMatch.cleanup(kept, p.assign, thresholds).cache()
    val (postScores, postPurity) = Metrics.scoreGroups(groups, p.records)
    Result(p, StageScores(postScores, postPurity), groups)
  }

  /** [[predict]], then [[cleanup]]; the result's prediction is unpersisted. */
  def run(
      spark: SparkSession,
      records: DataFrame,
      candidates: DataFrame,
      model: LogisticModel,
      schema: RecordSchema,
      scheme: Serializer.Scheme,
      tokenBudget: Int,
      thresholds: GraLMatch.Thresholds
  ): Result = {
    val p = predict(spark, records, candidates, model, schema, scheme, tokenBudget)
    val res = cleanup(p, thresholds)
    p.positives.unpersist()
    res
  }
}
