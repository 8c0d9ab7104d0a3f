package repro.graph

/** Edge betweenness centrality via Brandes' algorithm (paper §4.2 (2)).
  *
  * For an undirected, unweighted graph, the betweenness of edge e is
  * c_B(e) = Σ_{s,t} σ(s,t|e)/σ(s,t) — the fraction of all-pairs shortest
  * paths passing through e. GraLMatch removes the argmax edge from
  * components still larger than μ after the min-cut phase: a false-positive
  * bridge between two dense groups carries nearly all cross-group shortest
  * paths and therefore maximizes c_B.
  *
  * Complexity O(n·m) per component (one BFS + dependency accumulation per
  * source), matching the bound cited in the paper [1]. Sources and each
  * vertex's neighbours are visited in ascending id order, so every score is
  * summed in a fixed order and the result is deterministic to the bit.
  */
object Betweenness {

  /** Betweenness for every canonical edge. Each unordered source pair {s,t}
    * is counted once (the per-source accumulation counts each pair twice, so
    * the result is halved).
    */
  def edgeBetweenness(g: LocalGraph): Map[(Long, Long), Double] = {
    val all = Array.range(0, g.numVertices)
    val score = scores(g, all)
    g.edgesWithin(all).iterator
      .map(e => (g.ids(g.edgeU(e)), g.ids(g.edgeV(e))) -> score(e))
      .toMap
  }

  /** Edge with the highest betweenness within the (sub)graph; deterministic
    * tie-break on the canonical edge ordering. Requires at least one edge.
    */
  def maxBetweennessEdge(g: LocalGraph): (Long, Long) = {
    val e = maxEdge(g, Array.range(0, g.numVertices))
    (g.ids(g.edgeU(e)), g.ids(g.edgeV(e)))
  }

  /** Number of the highest-betweenness edge among the edges of `comp`
    * (ascending labels, closed under alive edges): the first, in canonical
    * order, of those with the maximal score — the argmax of
    * `(score, -src, -dst)`.
    */
  private[repro] def maxEdge(g: LocalGraph, comp: Array[Int]): Int = {
    val es = g.edgesWithin(comp)
    require(es.nonEmpty, "graph has no edges")
    val score = scores(g, comp)
    var best = es(0)
    for (e <- es if score(e) > score(best)) best = e
    best
  }

  /** Brandes from every source in `comp`, ascending; the result is indexed
    * by edge number and holds the halved score of every edge within `comp`
    * (0 elsewhere).
    */
  private def scores(g: LocalGraph, comp: Array[Int]): Array[Double] = {
    val score = new Array[Double](g.alive.length)
    val dist  = Array.fill(g.numVertices)(-1)
    val sigma = new Array[Double](g.numVertices)
    val delta = new Array[Double](g.numVertices)
    val order = new Array[Int](comp.length) // BFS order: queue, then stack
    for (s <- comp) {
      // Brandes single-source phase (BFS since edges are unweighted).
      for (v <- comp) { dist(v) = -1; sigma(v) = 0.0; delta(v) = 0.0 }
      dist(s) = 0; sigma(s) = 1.0
      order(0) = s
      var head = 0; var tail = 1
      while (head < tail) {
        val v = order(head); head += 1
        var i = g.offsets(v)
        while (i < g.offsets(v + 1)) {
          if (g.alive(g.slotEdge(i))) {
            val w = g.nbr(i)
            if (dist(w) < 0) { dist(w) = dist(v) + 1; order(tail) = w; tail += 1 }
            if (dist(w) == dist(v) + 1) sigma(w) += sigma(v)
          }
          i += 1
        }
      }
      // Dependency accumulation over vertices in reverse BFS order; the
      // predecessors of w are its neighbours one level closer to s.
      var k = tail - 1
      while (k >= 0) {
        val w = order(k)
        var i = g.offsets(w)
        while (i < g.offsets(w + 1)) {
          val v = g.nbr(i)
          if (g.alive(g.slotEdge(i)) && dist(v) == dist(w) - 1) {
            val c = sigma(v) / sigma(w) * (1.0 + delta(w))
            score(g.slotEdge(i)) += c
            delta(v) += c
          }
          i += 1
        }
        k -= 1
      }
    }
    // Each unordered pair {s,t} was counted from both endpoints.
    score.map(_ / 2.0)
  }
}
