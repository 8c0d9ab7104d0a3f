package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._

import repro.graph.ConnectedComponents
import repro.matcher.{LogisticModel, PairwiseMatcher, Serializer}
import repro.matcher.PairwiseMatcher.RecordSchema

/** The end-to-end entity group matching pipeline (paper Fig. 1):
  * blocking candidates → pairwise model → Pre Graph Cleanup → GraLMatch
  * Graph Cleanup → entity groups, scored at the three evaluation stages of
  * §5.3.2 along the way.
  *
  * [[predict]] runs stages 1–2 and [[cleanup]] stage 3, so one prediction
  * can be cleaned at several γ/μ (Table 4's sensitivity rows). Connected
  * components are computed once per prediction, at stage 2. Pre Graph
  * Cleanup and GraLMatch only delete edges, so every final group lies
  * inside a stage-2 component: [[GraLMatch.cleanup]] groups the positives
  * by that assignment once and runs both per component.
  *
  * No stage re-joins a prediction to the ground truth. The featurize join
  * carries each pair's two entities into the positives, so stage 1 is
  * tallied from them, and GraLMatch's per-component task tallies stages 2
  * and 3 ([[Metrics.GroupTally]]). A run's Spark actions are, in order:
  *  - a `head()` of the positives' stage-1 tallies, which materializes
  *    their cache and stops the inference timer;
  *  - a `head()` of the ground-truth pair count;
  *  - the connected components;
  *  - a `head()` of the stage-2 and stage-3 tallies, which runs and caches
  *    the per-component task;
  *  - a `foreach` that caches the final `(id, group)` rows from that cache,
  *    which is then dropped.
  */
object Pipeline {

  final case class StageScores(scores: Metrics.PairScores, clusterPurity: Double)

  /** Stages 1–2: the stage-1 (`pairwise`) scores, the inference time, the
    * cached positives `(src, dst, blockings, eSrc, eDst)` and their stage-2
    * `(id, component)` assignment.
    */
  final case class Prediction(
      pairwise: Metrics.PairScores, inferenceSeconds: Double, positives: DataFrame, assign: DataFrame)

  /** A cleaned prediction: the stage-2 and stage-3 scores and the final
    * `(id, group)` assignment, cached.
    */
  final case class Result(
      prediction: Prediction, preCleanup: StageScores, postCleanup: StageScores, groups: DataFrame)

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
      .select("src", "dst", "blockings", "eSrc", "eDst")
      .cache()
    // the pairs are unique, and featurize drops those without both records
    val tallies = Metrics.pairTallies(col("eSrc"), col("eDst"))
    val stage1 = positives.agg(tallies.head, tallies.tail: _*).head()
    val inferenceSeconds = (System.nanoTime() - t0) / 1e9

    val tp = stage1.getLong(0)
    val pairwise = Metrics.PairScores(tp, stage1.getLong(1), Metrics.truthPairCount(records) - tp)

    // ---- stage 2: transitive closure of raw predictions ---------------
    // the prediction's only connected-components pass; stage 3 reuses it
    val allIds = records.select(col("recordId").as("id"))
    val assign = ConnectedComponents
      .run(spark, positives.select("src", "dst"), Some(allIds))

    Prediction(pairwise, inferenceSeconds, positives, assign)
  }

  /** Stage 3: Pre Graph Cleanup, then GraLMatch at `thresholds` (Algorithm
    * 1's γ/μ), scored with stage 2 from the same per-component task. Leaves
    * `p.positives` cached, so `p` can be cleaned again.
    */
  def cleanup(p: Prediction, thresholds: GraLMatch.Thresholds): Result = {
    val tallied = GraLMatch.cleanup(p.positives, p.assign, thresholds).cache()
    val tallies = Metrics.groupTallies(col("pre.n"), col("pre.tp")) ++
      Metrics.groupTallies(col("post.n"), col("post.tp"))
    val row = tallied.agg(tallies.head, tallies.tail: _*).head()
    val groups = tallied.select("id", "group").cache()
    groups.foreach((_: Row) => ())
    tallied.unpersist()

    val truth = p.pairwise.tp + p.pairwise.fn
    def stage(i: Int) = StageScores.tupled(Metrics.groupScores(row, i, truth))
    Result(p, stage(0), stage(4), groups)
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
