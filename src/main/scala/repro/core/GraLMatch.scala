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
  * component independently — one grouping by component of the edges and a
  * self-loop per member, where each group runs the two phases once on its
  * component's local edge list, so the members without an edge come back
  * as singletons. The grouping key may be any component assignment the
  * edges refine (e.g. the components before Pre Graph Cleanup): the local
  * kernel splits its input into connected components itself.
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
    * When the edges carry their provenance (`blockings`), the task applies
    * Pre Graph Cleanup (§4.2.1) first: in a component of more than
    * [[PreCleanup.MaxComponent]] members it drops the token-only edges.
    *
    * When the edges also carry their endpoints' entities (`eSrc`, `eDst`),
    * the task tallies both group assignments it sees (§5.3.2): `pre` holds
    * the component's [[Metrics.GroupTally]] on the row of its smallest
    * member, and `post` each final group's on the row of its label; both
    * are null elsewhere. A member with no edge is a singleton and needs no
    * entity, so `assign` must be the connected components of `edges`.
    *
    * @param edges  predictions (`src`, `dst`, optionally `blockings` and
    *               `eSrc`/`eDst`); every edge must lie inside one component
    *               of `assign`
    * @param assign `(id, component)` for every record to assign
    * @return `(id, group)` — the final entity group assignment — followed,
    *         with entities, by `pre` and `post`
    */
  def cleanup(edges: DataFrame, assign: DataFrame, thresholds: Thresholds): DataFrame = {
    val spark = edges.sparkSession
    import spark.implicits._

    // One row per edge, keyed by its component, and one self-loop per
    // member; with provenance or entities, a token-only flag follows, then
    // the entities (null on self-loops). Parallel and reversed edges reach
    // the kernel, whose LocalGraph collapses them.
    val tallied = edges.columns.contains("eSrc")
    val flag =
      if (edges.columns.contains("blockings")) Seq(PreCleanup.tokenOnly.as("t"))
      else if (tallied) Seq(lit(false).as("t"))
      else Nil
    val entities = if (tallied) Seq("eSrc", "eDst").map(c => col(c).cast("long").as(c)) else Nil
    val e = edges.select(col("src").cast("long") +: col("dst").cast("long") +: (flag ++ entities): _*)
    val rows = e
      .join(assign.withColumnRenamed("id", "src"), "src")
      .select(col("component") +: e.columns.toSeq.map(col): _*)
      .union(assign.select(Seq(col("component"), col("id"), col("id")) ++
        flag.map(_ => lit(false)) ++ entities.map(_ => lit(null).cast("long")): _*))
      .groupBy(col("component"))

    if (tallied)
      rows.as[Long, (Long, Long, Long, Boolean, Option[Long], Option[Long])].flatMapGroups { (_, rs) =>
        val all = rs.toSeq
        val entity = all.flatMap(r => r._5.map(r._2 -> _) ++ r._6.map(r._3 -> _)).toMap
        def tally(ids: Seq[Long]) =
          if (ids.size == 1) Metrics.GroupTally(1, 0) else Metrics.GroupTally.of(ids.map(entity))
        val members = all.collect { case r if r._2 == r._3 => r._2 }
        val out = cleanTask(all.map(r => (r._2, r._3, r._4)), thresholds)
        val post = out.groupBy(_._2).map { case (g, ms) => g -> tally(ms.map(_._1)) }
        val first = members.min
        out.map { case (id, g) => (id, g, if (id == first) Some(tally(members)) else None, post.get(id)) }
      }.toDF("id", "group", "pre", "post")
    else if (flag.nonEmpty)
      rows.as[Long, (Long, Long, Long, Boolean)]
        .flatMapGroups((_, rs) => cleanTask(rs.map(r => (r._2, r._3, r._4)).toSeq, thresholds))
        .toDF("id", "group")
    else
      rows.as[Long, (Long, Long, Long)]
        .flatMapGroups((_, rs) => cleanupComponent(rs.map(r => (r._2, r._3)).toSeq, thresholds))
        .toDF("id", "group")
  }

  /** Pre Graph Cleanup, then [[cleanupComponent]], on one component's rows
    * `(src, dst, token-only)`, with a self-loop per member: predictions
    * never pair a record with itself.
    */
  private def cleanTask(rows: Seq[(Long, Long, Boolean)], thresholds: Thresholds): Seq[(Long, Long)] = {
    val big = rows.count(r => r._1 == r._2) > PreCleanup.MaxComponent
    cleanupComponent(rows.collect { case (s, d, t) if !(big && t) => (s, d) }, thresholds)
  }
}
