package repro.graph.reference

import scala.collection.mutable

/** Reference implementation, kept as the oracle for
  * [[repro.graph.Betweenness]]: Brandes over boxed maps.
  *
  * Edge betweenness centrality via Brandes' algorithm (paper §4.2 (2)).
  *
  * For an undirected, unweighted graph, the betweenness of edge e is
  * c_B(e) = Σ_{s,t} σ(s,t|e)/σ(s,t) — the fraction of all-pairs shortest
  * paths passing through e. GraLMatch removes the argmax edge from
  * components still larger than μ after the min-cut phase: a false-positive
  * bridge between two dense groups carries nearly all cross-group shortest
  * paths and therefore maximizes c_B.
  *
  * Complexity O(n·m) per component (one BFS + dependency accumulation per
  * source), matching the bound cited in the paper [1].
  */
object Betweenness {

  /** Betweenness for every canonical edge. Each unordered source pair {s,t}
    * is counted once (the per-source accumulation counts each pair twice, so
    * the result is halved).
    */
  def edgeBetweenness(g: LocalGraph): Map[(Long, Long), Double] = {
    val score = mutable.Map.empty[(Long, Long), Double].withDefaultValue(0.0)
    val verts = g.vertices.toArray.sorted

    for (s <- verts) {
      // Brandes single-source phase (BFS since edges are unweighted).
      val stack = mutable.ArrayBuffer.empty[Long]
      val pred  = mutable.Map.empty[Long, mutable.ArrayBuffer[Long]]
      val sigma = mutable.Map.empty[Long, Double].withDefaultValue(0.0)
      val dist  = mutable.Map.empty[Long, Int]
      sigma(s) = 1.0; dist(s) = 0
      val queue = mutable.Queue(s)
      while (queue.nonEmpty) {
        val v = queue.dequeue()
        stack += v
        for (w <- g.neighbors(v).toSeq.sorted) {
          if (!dist.contains(w)) { dist(w) = dist(v) + 1; queue += w }
          if (dist(w) == dist(v) + 1) {
            sigma(w) += sigma(v)
            pred.getOrElseUpdate(w, mutable.ArrayBuffer.empty) += v
          }
        }
      }
      // Dependency accumulation over vertices in reverse BFS order.
      val delta = mutable.Map.empty[Long, Double].withDefaultValue(0.0)
      for (w <- stack.reverseIterator) {
        for (v <- pred.getOrElse(w, Nil)) {
          val c = sigma(v) / sigma(w) * (1.0 + delta(w))
          score(LocalGraph.canonical(v, w)) += c
          delta(v) += c
        }
      }
    }
    // Each unordered pair {s,t} was counted from both endpoints.
    score.view.mapValues(_ / 2.0).toMap
  }

  /** Edge with the highest betweenness within the (sub)graph; deterministic
    * tie-break on the canonical edge ordering. Requires at least one edge.
    */
  def maxBetweennessEdge(g: LocalGraph): (Long, Long) = {
    val bc = edgeBetweenness(g)
    require(bc.nonEmpty, "graph has no edges")
    bc.toSeq.maxBy { case ((u, v), s) => (s, -u, -v) }._1
  }
}
