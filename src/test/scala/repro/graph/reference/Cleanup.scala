package repro.graph.reference

import repro.core.GraLMatch.Thresholds

/** Reference implementation, kept as the oracle for
  * [[repro.core.GraLMatch.cleanupComponent]]: Algorithm 1 on the map-based
  * [[LocalGraph]], recomputing the components of the whole graph after
  * every removal.
  */
object Cleanup {

  def cleanupComponent(edges: Seq[(Long, Long)], thresholds: Thresholds): Seq[(Long, Long)] = {
    var g = LocalGraph.fromEdges(edges)
    def over(limit: Int) = g.components.filter(_.size > limit)

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
}
