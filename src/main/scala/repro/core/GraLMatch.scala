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
  * component independently — a `cogroup` by component of the edges and the
  * member ids, where each group runs the two phases once on its
  * component's local edge list plus a self-loop per member, so the members
  * without an edge come back as singletons. The grouping key may be any
  * component assignment the edges refine (e.g. the components before Pre
  * Graph Cleanup): the local kernel splits its input into connected
  * components itself.
  */
object GraLMatch {

  final case class Thresholds(gamma: Int, mu: Int) {
    require(mu >= 1, s"mu ($mu) must be >= 1")
    require(gamma >= mu, s"gamma ($gamma) must be >= mu ($mu)")
  }

  /** Per-component cleanup: returns the final record→group assignment of
    * the vertices of `edges` (group label = min record id of the
    * subcomponent). The edges may span several connected components; each
    * is cleaned independently. Exposed for testing.
    *
    * Termination is checked: every step must remove an alive edge (a cut of
    * a connected component of ≥ 2 vertices is never empty, and the BC
    * argmax is an alive edge), so both phases end within `edges.size` steps.
    */
  def cleanupComponent(edges: Seq[(Long, Long)], thresholds: Thresholds): Seq[(Long, Long)] = {
    var g = LocalGraph.fromEdges(edges)
    val all = Array.range(0, g.numVertices)

    // Removes `step`'s edges from the component with the smallest minimum
    // vertex among those over `limit` until none is left, re-splitting only
    // the component that lost edges.
    def phase(limit: Int, step: Array[Int] => Array[Int]): Unit = {
      val work = new java.util.TreeMap[Int, Array[Int]] // by smallest member
      def enqueue(cs: Seq[Array[Int]]): Unit =
        for (c <- cs if c.length > limit) work.put(c(0), c)
      enqueue(g.componentsWithin(all))
      while (!work.isEmpty) {
        val comp = work.pollFirstEntry().getValue
        val next = g.withoutEdges(step(comp))
        require(next.numEdges < g.numEdges,
          s"Algorithm 1 removed no edge from a component of ${comp.length} vertices")
        g = next
        enqueue(g.componentsWithin(comp))
      }
    }
    // Phase 1: minimum edge cut until every subcomponent is <= gamma.
    phase(thresholds.gamma, MinCut.cutEdges(g, _))
    // Phase 2: highest-betweenness edge removal until <= mu.
    phase(thresholds.mu, c => Array(Betweenness.maxEdge(g, c)))

    g.componentsWithin(all).flatMap(c => c.map(v => g.ids(v) -> g.ids(c(0))))
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
    cleanup(edges, ConnectedComponents.run(spark, edges, vertices), thresholds)

  /** Algorithm 1 over `edges`, one kernel run per component of `assign`.
    * Each member reaches the kernel as a self-loop `(id, id)`, which keeps
    * its vertex only, so members without an edge come back as singletons.
    *
    * @param edges  predictions to clean (`src`, `dst`); every edge must lie
    *               inside one component of `assign`
    * @param assign `(id, component)` for every record to assign
    * @return `(id, group)` — the final entity group assignment
    */
  def cleanup(edges: DataFrame, assign: DataFrame, thresholds: Thresholds): DataFrame = {
    val spark = edges.sparkSession
    import spark.implicits._

    // Parallel and reversed edges reach the kernel, whose LocalGraph
    // collapses them.
    val edgesByComp = edges
      .select(col("src").cast("long"), col("dst").cast("long"))
      .join(assign.withColumnRenamed("id", "src"), "src")
      .select(col("component"), col("src"), col("dst"))
      .as[(Long, Long, Long)]
      .groupByKey(_._1)
    val membersByComp = assign.select(col("component"), col("id")).as[(Long, Long)].groupByKey(_._1)

    membersByComp
      .cogroup(edgesByComp) { (_, members, rows) =>
        val loops = members.map(m => (m._2, m._2))
        cleanupComponent((loops ++ rows.map(r => (r._2, r._3))).toSeq, thresholds)
      }
      .toDF("id", "group")
  }
}
