package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Precision / recall / F1 over match-pair sets and the Cluster Purity
  * score (paper §5.3.2–§5.3.3).
  *
  * Stage 2/3 scores treat a group assignment as the complete graph over
  * each group: a component with n records implies n·(n−1)/2 predicted
  * pairs. Those counts are computed arithmetically from per-component
  * entity tallies — the transitive closure is never materialized, so large
  * (even pathological) components cost nothing.
  *
  * Each score is one Spark action: one `head()` of its one-row aggregate
  * cross-joined with the one-row ground-truth pair count.
  */
object Metrics {

  final case class PairScores(tp: Long, fp: Long, fn: Long) {
    def precision: Double = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
    def recall: Double    = if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn)
    def f1: Double = {
      val p = precision; val r = recall
      if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    }
  }

  // n·(n−1)/2 — Spark's `/` yields Double, so cast back to long
  private def c2(n: Column): Column = ((n * (n - lit(1))) / lit(2)).cast("long")
  private type Column = org.apache.spark.sql.Column

  /** One row, one column `truth`: Σ over entities of n·(n−1)/2. */
  private def truthPairs(records: DataFrame): DataFrame =
    records
      .groupBy("entityId")
      .agg(count(lit(1)).as("n"))
      .agg(coalesce(sum(c2(col("n"))), lit(0L)).as("truth"))

  /** Total ground-truth matches: Σ over entities of n·(n−1)/2. */
  def truthPairCount(records: DataFrame): Long = truthPairs(records).head().getLong(0)

  /** Scores an explicit pair set (stage 1, pairwise predictions) against the
    * ground truth in `records(recordId, entityId)`.
    */
  def scorePairs(pairs: DataFrame, records: DataFrame): PairScores = {
    val ent = records.select(col("recordId"), col("entityId"))
    val joined = pairs.select("src", "dst").distinct()
      .join(ent.withColumnRenamed("recordId", "src").withColumnRenamed("entityId", "eA"), "src")
      .join(ent.withColumnRenamed("recordId", "dst").withColumnRenamed("entityId", "eB"), "dst")
    val agg = joined.agg(
      coalesce(sum(when(col("eA") === col("eB"), 1L).otherwise(0L)), lit(0L)).as("tp"),
      coalesce(sum(when(col("eA") =!= col("eB"), 1L).otherwise(0L)), lit(0L)).as("fp")
    ).crossJoin(truthPairs(records)).head()
    val tp = agg.getLong(0)
    PairScores(tp, agg.getLong(1), agg.getLong(2) - tp)
  }

  /** Scores a group assignment (stage 2/3): `(PairScores, clusterPurity)`.
    *
    * @param assignment `(id, label)` — the record id, then its group label
    *                   under any column name (`component` from connected
    *                   components, `group` from GraLMatch); every evaluated
    *                   record must appear (records with no predicted match
    *                   form singleton components)
    */
  def scoreGroups(assignment: DataFrame, records: DataFrame): (PairScores, Double) = {
    val ent = records.select(col("recordId").as("id"), col("entityId"))
    val tagged = assignment.toDF("id", "component").join(ent, "id")

    // per (component, entity) record counts m → per component: n and Σ C(m,2)
    val perEntity = tagged.groupBy("component", "entityId").agg(count(lit(1)).as("m"))
    val perComp = perEntity.groupBy("component").agg(
      sum(col("m")).as("n"),
      sum(c2(col("m"))).as("tpC"))

    val agg = perComp.agg(
      coalesce(sum(col("tpC")), lit(0L)).as("tp"),
      coalesce(sum(c2(col("n"))), lit(0L)).as("pred"),
      coalesce(sum(col("n")), lit(0L)).as("vertices"),
      // cluster purity numerator: |V_c| · tp_c / E_c, singletons count pure
      coalesce(sum(
        when(col("n") === 1, lit(1.0))
          .otherwise(col("n") * col("tpC") / c2(col("n")))), lit(0.0)).as("purNum")
    ).crossJoin(truthPairs(records)).head()

    val tp   = agg.getLong(0)
    val pred = agg.getLong(1)
    val nV   = agg.getLong(2)
    val purity = if (nV == 0) 0.0 else agg.getDouble(3) / nV
    (PairScores(tp, pred - tp, agg.getLong(4) - tp), purity)
  }
}
