package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._

/** Precision / recall / F1 over match-pair sets and the Cluster Purity
  * score (paper §5.3.2–§5.3.3).
  *
  * Stage 2/3 scores treat a group assignment as the complete graph over
  * each group: a group with n records implies n·(n−1)/2 predicted pairs.
  * Those counts are computed arithmetically from per-group entity tallies
  * ([[GroupTally]]) — the transitive closure is never materialized, so large
  * (even pathological) groups cost nothing.
  *
  * [[scorePairs]] and [[scoreGroups]] each join a prediction to `entityId`
  * and are one Spark action: one `head()` of their one-row aggregate
  * cross-joined with the one-row ground-truth pair count. [[Pipeline]] runs
  * neither: it sums the same tallies ([[pairTallies]], [[groupTallies]])
  * over passes it runs anyway, and [[groupScores]] is the one formula from
  * those sums to scores.
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

  /** One group's size `n` and true pairs `tp`: Σ over its entities of m·(m−1)/2. */
  final case class GroupTally(n: Long, tp: Long)

  object GroupTally {
    /** The tally of a group whose members have `entities`. */
    def of(entities: Seq[Long]): GroupTally = GroupTally(
      entities.size, entities.groupBy(identity).values.map(m => m.size.toLong * (m.size - 1) / 2).sum)
  }

  // n·(n−1)/2 — Spark's `/` yields Double, so cast back to long
  private def c2(n: Column): Column = ((n * (n - lit(1))) / lit(2)).cast("long")

  /** One row, one column `truth`: Σ over entities of n·(n−1)/2. */
  private def truthPairs(records: DataFrame): DataFrame =
    records
      .groupBy("entityId")
      .agg(count(lit(1)).as("n"))
      .agg(coalesce(sum(c2(col("n"))), lit(0L)).as("truth"))

  /** Total ground-truth matches: Σ over entities of n·(n−1)/2. */
  def truthPairCount(records: DataFrame): Long = truthPairs(records).head().getLong(0)

  /** Aggregates `(tp, fp)` of pairs whose endpoints have entities `a` and `b`. */
  private[core] def pairTallies(a: Column, b: Column): Seq[Column] = Seq(
    coalesce(sum(when(a === b, 1L).otherwise(0L)), lit(0L)),
    coalesce(sum(when(a =!= b, 1L).otherwise(0L)), lit(0L)))

  /** Aggregates `(Σ tp, Σ n·(n−1)/2, Σ n, purity numerator)` of per-group
    * tallies `n` and `tp`; rows where they are null add nothing.
    */
  private[core] def groupTallies(n: Column, tp: Column): Seq[Column] = Seq(
    coalesce(sum(tp), lit(0L)),
    coalesce(sum(c2(n)), lit(0L)),
    coalesce(sum(n), lit(0L)),
    // cluster purity numerator: |V_c| · tp_c / E_c, singletons count pure
    coalesce(sum(when(n === 1, lit(1.0)).otherwise(n * tp / c2(n))), lit(0.0)))

  /** A group assignment's `(PairScores, clusterPurity)` from the four
    * [[groupTallies]] at `i` of `row` and the ground-truth pair count.
    */
  private[core] def groupScores(row: Row, i: Int, truth: Long): (PairScores, Double) = {
    val tp = row.getLong(i)
    val vertices = row.getLong(i + 2)
    (PairScores(tp, row.getLong(i + 1) - tp, truth - tp),
      if (vertices == 0) 0.0 else row.getDouble(i + 3) / vertices)
  }

  /** Scores an explicit pair set (stage 1, pairwise predictions) against the
    * ground truth in `records(recordId, entityId)`.
    */
  def scorePairs(pairs: DataFrame, records: DataFrame): PairScores = {
    val ent = records.select(col("recordId"), col("entityId"))
    // `dst` first: pipeline positives come out of a `dst` join, so a pair
    // set already hash-partitioned by `dst` needs no exchange on that side
    val joined = pairs.select("src", "dst").distinct()
      .join(ent.withColumnRenamed("recordId", "dst").withColumnRenamed("entityId", "eB"), "dst")
      .join(ent.withColumnRenamed("recordId", "src").withColumnRenamed("entityId", "eA"), "src")
    val tallies = pairTallies(col("eA"), col("eB"))
    val agg = joined.agg(tallies.head, tallies.tail: _*).crossJoin(truthPairs(records)).head()
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
    // one exchange: hash partitioning by `component` satisfies both
    // groupBys below, so neither needs a shuffle of its own
    val tagged = assignment.toDF("id", "component").join(ent, "id")
      .repartition(col("component"))

    // per (component, entity) record counts m → per component: n and Σ C(m,2)
    val perEntity = tagged.groupBy("component", "entityId").agg(count(lit(1)).as("m"))
    val perComp = perEntity.groupBy("component").agg(
      sum(col("m")).as("n"),
      sum(c2(col("m"))).as("tpC"))

    val tallies = groupTallies(col("n"), col("tpC"))
    val agg = perComp.agg(tallies.head, tallies.tail: _*).crossJoin(truthPairs(records)).head()
    groupScores(agg, 0, agg.getLong(4))
  }
}
