package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.graph.{Betweenness, ConnectedComponents, LocalGraph, MinCut}

/** GraLMatch Graph Cleanup — Algorithm 1 of the paper.
  *
  * Input: the graph of positive pairwise predictions. Two phases per
  * connected component:
  *
  *  1. while a (sub)component is larger than γ, remove a *Minimum Edge Cut*
  *     (guaranteed to disconnect it, tends to cut the sparse false-positive
  *     links between dense groups);
  *  2. while a (sub)component is larger than μ, remove the single edge of
  *     highest *Edge Betweenness Centrality* and re-split.
  *
  * μ is set to the number of data sources (at most one record per source is
  * expected per group); γ trades cut quality for speed.
  *
  * Distribution: operations on one component never affect another, so the
  * paper's global argmax loop is equivalent to processing every initial
  * component independently — a `groupByKey(component).flatMapGroups`
  * dataflow where each task runs the two phases on its component's local
  * edge list. The grouping key may be any component assignment the edges
  * refine (e.g. the components before Pre Graph Cleanup): the local kernel
  * splits its input into connected components itself.
  */
object GraLMatch {

  final case class Thresholds(gamma: Int, mu: Int) {
    require(gamma >= mu, s"gamma ($gamma) must be >= mu ($mu)")
  }

  /** Per-component cleanup: returns the final record→group assignment of
    * the vertices of `edges` (group label = min record id of the
    * subcomponent). The edges may span several connected components; each
    * is cleaned independently. Exposed for testing.
    *
    * @param maxLocalVertices safety valve: connected components of `edges`
    *                         larger than this are returned unsplit (the Pre
    *                         Graph Cleanup is responsible for keeping
    *                         components tractable); smaller ones in the
    *                         same call are still cleaned
    */
  def cleanupComponent(
      edges: Seq[(Long, Long)],
      thresholds: Thresholds,
      maxLocalVertices: Int = 1500
  ): Seq[(Long, Long)] = {
    var g = LocalGraph.fromEdges(edges)
    // Components are only ever split, so one within the valve stays within.
    def over(limit: Int) =
      g.components.filter(c => c.size > limit && c.size <= maxLocalVertices)

    // Phase 1: minimum edge cut until every subcomponent is <= gamma.
    var guard = g.numEdges + 1
    var work = over(thresholds.gamma)
    while (work.nonEmpty && guard > 0) {
      val comp = work.head
      val cut  = MinCut.minimumEdgeCut(g.subgraph(comp))
      g = g.removeEdges(cut)
      guard -= math.max(1, cut.size)
      work = over(thresholds.gamma)
    }

    // Phase 2: highest-betweenness edge removal until <= mu.
    guard = g.numEdges + 1
    var big = over(thresholds.mu)
    while (big.nonEmpty && guard > 0) {
      val comp = big.head
      val e    = Betweenness.maxBetweennessEdge(g.subgraph(comp))
      g = g.removeEdges(Set(e))
      guard -= 1
      big = over(thresholds.mu)
    }

    g.components.flatMap(c => c.toSeq.map(_ -> c.min))
  }

  /** Runs the cleanup over the full prediction graph: its connected
    * components, then [[cleanup]].
    *
    * @param edges    positive predictions (`src`, `dst`)
    * @param vertices optional `(id)` frame of all records to assign;
    *                 records without any edge become singleton groups
    * @return `(id, group)` — the final entity group assignment
    */
  def run(
      spark: SparkSession,
      edges: DataFrame,
      thresholds: Thresholds,
      vertices: Option[DataFrame] = None
  ): DataFrame =
    cleanup(spark, edges, ConnectedComponents.run(spark, edges, vertices), thresholds)

  /** Algorithm 1 over `edges`, one task per component of `assign`.
    *
    * @param edges  predictions to clean (`src`, `dst`); every edge must lie
    *               inside one component of `assign`
    * @param assign `(id, component)` for every record to assign; records
    *               without an edge in `edges` become singleton groups
    * @return `(id, group)` — the final entity group assignment
    */
  def cleanup(
      spark: SparkSession,
      edges: DataFrame,
      assign: DataFrame,
      thresholds: Thresholds
  ): DataFrame = {
    import spark.implicits._

    val e = edges.select(col("src").cast("long"), col("dst").cast("long")).distinct()
    val byComp = e
      .join(assign.withColumnRenamed("id", "src"), "src")
      .select(col("component"), col("src"), col("dst"))
      .as[(Long, Long, Long)]

    val cleaned = byComp
      .groupByKey(_._1)
      .flatMapGroups { (_, rows) =>
        val es = rows.map(r => (r._2, r._3)).toSeq
        cleanupComponent(es, thresholds).iterator
      }
      .toDF("id", "group")

    val singletons = assign.join(cleaned, Seq("id"), "left_anti")
      .select(col("id"), col("id").as("group"))
    cleaned.unionByName(singletons)
  }
}
