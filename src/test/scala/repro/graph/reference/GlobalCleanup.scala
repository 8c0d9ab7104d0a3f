package repro.graph.reference

import repro.core.GraLMatch.Thresholds

/** Reference implementation, kept as the oracle for the per-component
  * dataflow of [[repro.core.GraLMatch]]: Algorithm 1 as the paper states it,
  * one loop over the whole graph.
  *
  *  1. While a component of the whole graph is larger than γ, remove a
  *     [[MinCut]] of every such component.
  *  2. While a component is larger than μ, compute the edge betweenness of
  *     the *whole* graph and remove the single highest-scoring edge among
  *     the edges of those components (ties go to the smallest canonical
  *     edge, the order of [[Betweenness.maxBetweennessEdge]]).
  */
object GlobalCleanup {

  /** `(id, group)` for every vertex of `edges` and `vertices`; the group
    * label is the minimum member id.
    */
  def run(
      edges: Seq[(Long, Long)], vertices: Iterable[Long], thresholds: Thresholds
  ): Set[(Long, Long)] = {
    var g = LocalGraph.fromEdges(edges, vertices)
    def over(limit: Int): Seq[Set[Long]] = g.components.filter(_.size > limit)
    def remove(es: Set[(Long, Long)]): Unit = {
      val before = g.numEdges
      g = g.removeEdges(es)
      require(g.numEdges < before, "Algorithm 1 removed no edge")
    }

    var big = over(thresholds.gamma)
    while (big.nonEmpty) {
      remove(big.flatMap(c => MinCut.minimumEdgeCut(g.subgraph(c))).toSet)
      big = over(thresholds.gamma)
    }

    big = over(thresholds.mu)
    while (big.nonEmpty) {
      val inBig = big.flatten.toSet
      val candidates = Betweenness.edgeBetweenness(g).toSeq.filter { case ((u, _), _) => inBig(u) }
      remove(Set(candidates.maxBy { case ((u, v), s) => (s, -u, -v) }._1))
      big = over(thresholds.mu)
    }

    g.components.flatMap(c => c.map(_ -> c.min)).toSet
  }
}
