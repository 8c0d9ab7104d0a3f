package repro.graph.reference

import scala.collection.mutable

/** Reference implementation, kept as the oracle for [[repro.graph.MinCut]]:
  * a linear-scan Stoer–Wagner over adjacency maps, O(n³) per call.
  *
  * Global minimum edge cut via the Stoer–Wagner algorithm (paper §4.2 (1)).
  *
  * GraLMatch uses the minimum edge cut to disconnect over-large connected
  * components: false-positive pairwise predictions are usually the only link
  * between two densely connected record groups, so the minimum cut tends to
  * consist exactly of those false edges.
  *
  * The implementation uses adjacency maps (no dense matrix) so components of
  * a few thousand nodes are fine; edge weights are all 1 (unweighted
  * predictions).
  */
object MinCut {

  /** Returns the set of canonical edges crossing a global minimum cut of the
    * connected graph `g`. Requires `g.numVertices >= 2`; if `g` is already
    * disconnected, returns the empty set (nothing needs to be removed to
    * disconnect it).
    */
  def minimumEdgeCut(g: LocalGraph): Set[(Long, Long)] = {
    require(g.numVertices >= 2, s"min cut needs >=2 vertices, got ${g.numVertices}")
    if (!g.isConnected) return Set.empty
    val side = minimumCutSide(g)
    g.edges.filter { case (u, v) => side.contains(u) != side.contains(v) }.toSet
  }

  /** One side (the smaller original-vertex set found) of a global minimum cut. */
  def minimumCutSide(g: LocalGraph): Set[Long] = {
    // Supernodes indexed by their representative id; each holds the original
    // vertices merged into it and weighted adjacency to other supernodes.
    val members = mutable.Map.empty[Long, mutable.Set[Long]]
    val weight  = mutable.Map.empty[Long, mutable.Map[Long, Double]]
    for (v <- g.vertices) {
      members(v) = mutable.Set(v)
      weight(v)  = mutable.Map.empty
    }
    for ((u, v) <- g.edges) {
      weight(u)(v) = weight(u).getOrElse(v, 0.0) + 1.0
      weight(v)(u) = weight(v).getOrElse(u, 0.0) + 1.0
    }

    var bestWeight = Double.MaxValue
    var bestSide: Set[Long] = Set.empty

    while (members.size > 1) {
      // --- minimum cut phase ---------------------------------------------
      val inA = mutable.Set.empty[Long]
      val w   = mutable.Map.empty[Long, Double] // connectivity to A
      val start = members.keysIterator.min // deterministic
      var last = start; var secondLast = start
      inA += start
      for ((n, wt) <- weight(start)) w(n) = wt
      var remaining = members.size - 1
      while (remaining > 0) {
        // most tightly connected vertex not in A (deterministic tie-break)
        val next = w.iterator
          .filterNot { case (v, _) => inA(v) }
          .foldLeft((-1L, Double.MinValue)) { case (acc @ (bv, bw), (v, wt)) =>
            if (wt > bw || (wt == bw && (bv == -1L || v < bv))) (v, wt) else acc
          }
          ._1
        val pick =
          if (next != -1L) next
          else members.keysIterator.filterNot(inA).min // disconnected supernode
        secondLast = last; last = pick
        inA += pick
        for ((n, wt) <- weight(pick) if !inA(n)) w(n) = w.getOrElse(n, 0.0) + wt
        remaining -= 1
      }
      val cutOfPhase = weight(last).valuesIterator.sum
      if (cutOfPhase < bestWeight) {
        bestWeight = cutOfPhase
        bestSide = members(last).toSet
      }
      // --- merge last into secondLast ------------------------------------
      members(secondLast) ++= members(last)
      for ((n, wt) <- weight(last) if n != secondLast) {
        weight(secondLast)(n) = weight(secondLast).getOrElse(n, 0.0) + wt
        weight(n)(secondLast) = weight(n).getOrElse(secondLast, 0.0) + wt
        weight(n) -= last
      }
      weight(secondLast) -= last
      weight -= last
      members -= last
    }
    bestSide
  }
}
