package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.blocking.Blocking
import repro.graph.ConnectedComponents

/** Pre Graph Cleanup (paper §4.2.1).
  *
  * Sets of pairwise predictions can produce exceedingly large connected
  * components (token-sharing company names chain thousands of records);
  * Algorithm 1's edge-removal techniques are too slow on those. Before the
  * GraLMatch cleanup, all positively predicted matches whose *only* blocking
  * provenance is Token Overlap are removed from connected components larger
  * than [[MaxComponent]] (50, as in the paper) records.
  *
  * The components are those of the raw predictions (the pipeline's stage-2
  * assignment). The pipeline applies the rule in [[GraLMatch.cleanup]]'s
  * per-component task. [[run]] and [[keep]] are the reference that task is
  * tested against, and `run` is perfbench's traced pre-cleanup step.
  */
object PreCleanup {

  val MaxComponent = 50

  /** True for an edge whose only `blockings` provenance is Token Overlap. */
  val tokenOnly: Column =
    size(filter(col("blockings"), b => b =!= lit(Blocking.TokenOverlap))) === 0

  /** Pre-cleanup of a prediction graph: its connected components, then
    * [[keep]].
    *
    * @param edges positive predictions with `src`, `dst` and a `blockings`
    *              array column (the provenance of the candidate pair)
    * @return the retained edges (same schema)
    */
  def run(spark: SparkSession, edges: DataFrame): DataFrame =
    keep(edges, ConnectedComponents.run(spark, edges.select("src", "dst")))

  /** Pre-cleanup against a known component assignment.
    *
    * @param edges  positive predictions with `src`, `dst` and `blockings`
    * @param assign `(id, component)` of the graph formed by `edges`; it may
    *               also hold isolated records (singleton components)
    * @return the retained edges (same schema as `edges`)
    */
  def keep(edges: DataFrame, assign: DataFrame): DataFrame = {
    val compOf = assign
      .withColumn("size", count(lit(1)).over(Window.partitionBy("component")))
      .where(col("size") > MaxComponent)
      .select(col("id").as("src"), lit(true).as("inBig"))

    edges
      .join(compOf, Seq("src"), "left")
      .where(!(coalesce(col("inBig"), lit(false)) && tokenOnly))
      .drop("inBig")
  }
}
