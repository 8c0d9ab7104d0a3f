package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable

/** Distributed connected components over a DataFrame edge list.
  *
  * Group assignment in GraLMatch is "output the connected components of the
  * (cleaned-up) prediction graph" — this is the distributed dataflow
  * implementation used at every stage of the pipeline.
  *
  * Algorithm: union-find (Tarjan, JACM 1975) in two Spark stages.
  *
  *  1. Each edge partition runs a union-find over its own edges and emits
  *     `(v, localRoot)` for every vertex it touched. A partition's forest
  *     connects exactly what its edges connect, so the union of all forests
  *     has the components of the whole graph, in at most one row per
  *     (partition, vertex).
  *  2. Those rows, plus `(id, id)` for every given vertex, are shuffled into
  *     one partition (`repartition(1)`, so the upstream lineage still runs in
  *     parallel; `coalesce(1)` would pull it into the one task), where the
  *     same union-find merges the forests and emits `(v, root)`.
  *
  * Linking the larger root under the smaller keeps every root the minimum
  * of its tree, so the root is the component label. Path halving keeps
  * `find` near-constant amortized. The work is two stages whatever the
  * graph's diameter.
  *
  * Memory: the merge task holds one `LongMap` entry per vertex (key, boxed
  * parent and hash-table slack: under ~100 bytes per vertex), ~15K vertices
  * on the `cleanup-chains` bench graph and under 1M even at the paper's full
  * scale (868K company records), so under 100 MB of one executor's heap.
  *
  * The result is returned eagerly local-checkpointed: its plan is a leaf,
  * so every consumer reads the stored labels instead of re-planning and
  * re-running both stages.
  */
object ConnectedComponents {

  /** Computes connected components.
    *
    * @param edges    DataFrame with `src`/`dst` Long columns (undirected;
    *                 duplicates and self-loops tolerated)
    * @param vertices optional DataFrame with an `id` column for vertices that
    *                 must appear in the output even when isolated
    * @return DataFrame `(id: Long, component: Long)` where `component` is the
    *         minimum vertex id of the component
    */
  def run(
      spark: SparkSession,
      edges: DataFrame,
      vertices: Option[DataFrame] = None
  ): DataFrame = {
    import spark.implicits._

    val forests = edges
      .select($"src".cast("long"), $"dst".cast("long"))
      .as[(Long, Long)]
      .mapPartitions(unionFind)
    val pairs = vertices
      .map(v => forests.union(v.select($"id".cast("long"), $"id".cast("long").as("root"))
        .as[(Long, Long)]))
      .getOrElse(forests)
    pairs
      .repartition(1)
      .mapPartitions(unionFind)
      .toDF("id", "component")
      .localCheckpoint()
  }

  /** Union-find over the pairs `(u, v)`: `(v, root)` for every vertex seen,
    * where `root` is the minimum vertex of `v`'s component.
    */
  private def unionFind(pairs: Iterator[(Long, Long)]): Iterator[(Long, Long)] = {
    val parent = mutable.LongMap.empty[Long]
    def find(v: Long): Long = { // path halving
      var x = v
      var p = parent(x)
      while (p != x) {
        val gp = parent(p)
        parent(x) = gp
        x = gp
        p = parent(x)
      }
      x
    }
    for ((u, v) <- pairs) {
      parent.getOrElseUpdate(u, u)
      parent.getOrElseUpdate(v, v)
      val ru = find(u)
      val rv = find(v)
      if (ru < rv) parent(rv) = ru
      else if (rv < ru) parent(ru) = rv
    }
    parent.keysIterator.toArray.iterator.map(v => (v, find(v)))
  }
}
