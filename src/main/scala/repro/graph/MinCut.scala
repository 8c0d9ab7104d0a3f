package repro.graph

import java.util.Arrays

/** Global minimum edge cut via the Stoer–Wagner algorithm (paper §4.2 (1)).
  *
  * GraLMatch uses the minimum edge cut to disconnect over-large connected
  * components: false-positive pairwise predictions are usually the only link
  * between two densely connected record groups, so the minimum cut tends to
  * consist exactly of those false edges.
  *
  * Supernodes keep sparse weighted adjacency lists in growable arrays (edge
  * weights start at 1: unweighted predictions), and each phase picks the
  * most tightly connected supernode from a binary max-heap with lazy
  * deletion. A phase costs O((n + m) log m), so a cut of a component with n
  * vertices and m edges costs O(n·(n + m)·log m) over its n − 1 phases
  * (Stoer & Wagner, JACM 1997).
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
    cutEdges(g, Array.range(0, g.numVertices))
      .map(e => (g.ids(g.edgeU(e)), g.ids(g.edgeV(e))))
      .toSet
  }

  /** Numbers of the edges crossing a global minimum cut of the connected
    * component `comp` (ascending labels) of `g`.
    *
    * Tie-breaks: every phase starts from the smallest supernode; the next
    * supernode is the most tightly connected one, the smallest on ties, or
    * the smallest remaining one when none is connected; `last` merges into
    * `secondLast`; a phase's cut replaces the best only when strictly
    * smaller. Supernodes are named by the label of a member, so "smallest"
    * is the same in labels and in ids.
    */
  private[repro] def cutEdges(g: LocalGraph, comp: Array[Int]): Array[Int] = {
    val k = comp.length
    require(k >= 2, s"min cut needs >=2 vertices, got $k")
    // Supernodes are local indices 0..k-1 (the order of comp); a supernode
    // holds weighted adjacency to other supernodes and a member list.
    val local = new Array[Int](g.numVertices)
    for (i <- 0 until k) local(comp(i)) = i
    val adjN = new Array[Array[Int]](k)
    val adjW = new Array[Array[Int]](k)
    val adjLen = new Array[Int](k)
    var edgeSlots = 0
    for (i <- 0 until k) {
      val v = comp(i)
      val ns = Array.newBuilder[Int]
      var s = g.offsets(v)
      while (s < g.offsets(v + 1)) {
        if (g.alive(g.slotEdge(s))) ns += local(g.nbr(s))
        s += 1
      }
      adjN(i) = ns.result()
      adjLen(i) = adjN(i).length
      adjW(i) = Array.fill(adjLen(i))(1)
      edgeSlots += adjLen(i)
    }
    val nextMember = Array.fill(k)(-1)
    val lastMember = Array.range(0, k)
    val isRep = Array.fill(k)(true)
    var reps = k
    var smallestRep = 0

    val inA = new Array[Boolean](k)
    val conn = new Array[Int](k) // connectivity to A
    // Max-heap of (connectivity desc, supernode asc), one entry per update;
    // an entry is stale once its supernode joined A or gained connectivity.
    val heap = new Array[Long](edgeSlots + 1)
    var heapSize = 0
    def key(c: Int, v: Int): Long = c.toLong << 32 | (Int.MaxValue - v)
    def push(x: Long): Unit = {
      var i = heapSize; heapSize += 1
      while (i > 0 && heap((i - 1) / 2) < x) { heap(i) = heap((i - 1) / 2); i = (i - 1) / 2 }
      heap(i) = x
    }
    def pop(): Long = {
      val top = heap(0)
      heapSize -= 1
      val x = heap(heapSize)
      var i = 0
      var done = false
      while (!done) {
        var c = 2 * i + 1
        if (c + 1 < heapSize && heap(c + 1) > heap(c)) c += 1
        if (c < heapSize && heap(c) > x) { heap(i) = heap(c); i = c } else done = true
      }
      heap(i) = x
      top
    }
    def removeAt(v: Int, i: Int): Unit = {
      adjLen(v) -= 1
      adjN(v)(i) = adjN(v)(adjLen(v)); adjW(v)(i) = adjW(v)(adjLen(v))
    }
    def addToA(v: Int): Unit = {
      inA(v) = true
      var j = 0
      while (j < adjLen(v)) {
        val x = adjN(v)(j)
        if (!inA(x)) { conn(x) += adjW(v)(j); push(key(conn(x), x)) }
        j += 1
      }
    }

    var bestWeight = Long.MaxValue
    val bestSide = new Array[Boolean](k)
    val pos = Array.fill(k)(-1)

    while (reps > 1) {
      // --- minimum cut phase ---------------------------------------------
      while (!isRep(smallestRep)) smallestRep += 1
      Arrays.fill(inA, false)
      Arrays.fill(conn, 0)
      heapSize = 0
      var last = smallestRep; var secondLast = smallestRep
      addToA(smallestRep)
      var remaining = reps - 1
      while (remaining > 0) {
        var pick = -1
        while (pick < 0 && heapSize > 0) {
          val top = pop()
          val v = Int.MaxValue - top.toInt
          if (!inA(v) && conn(v) == (top >>> 32).toInt) pick = v
        }
        if (pick < 0) { // disconnected supernode
          pick = smallestRep
          while (!isRep(pick) || inA(pick)) pick += 1
        }
        secondLast = last; last = pick
        addToA(pick)
        remaining -= 1
      }
      var cutOfPhase = 0L
      for (j <- 0 until adjLen(last)) cutOfPhase += adjW(last)(j)
      if (cutOfPhase < bestWeight) {
        bestWeight = cutOfPhase
        Arrays.fill(bestSide, false)
        var m = last
        while (m >= 0) { bestSide(m) = true; m = nextMember(m) }
      }
      // --- merge last into secondLast ------------------------------------
      val sl = secondLast
      for (j <- 0 until adjLen(sl)) pos(adjN(sl)(j)) = j
      for (j <- 0 until adjLen(last)) {
        val x = adjN(last)(j); val w = adjW(last)(j)
        if (x != sl) {
          if (pos(x) >= 0) adjW(sl)(pos(x)) += w
          else {
            if (adjLen(sl) == adjN(sl).length) {
              val cap = math.max(4, 2 * adjLen(sl))
              adjN(sl) = Arrays.copyOf(adjN(sl), cap); adjW(sl) = Arrays.copyOf(adjW(sl), cap)
            }
            pos(x) = adjLen(sl)
            adjN(sl)(adjLen(sl)) = x; adjW(sl)(adjLen(sl)) = w; adjLen(sl) += 1
          }
          // In x's list, last becomes sl (or folds into x's entry for sl).
          var iLast = -1; var iSl = -1
          for (i <- 0 until adjLen(x)) {
            if (adjN(x)(i) == last) iLast = i else if (adjN(x)(i) == sl) iSl = i
          }
          if (iSl < 0) adjN(x)(iLast) = sl
          else { adjW(x)(iSl) += adjW(x)(iLast); removeAt(x, iLast) }
        }
      }
      if (pos(last) >= 0) removeAt(sl, pos(last))
      for (j <- 0 until adjLen(sl)) pos(adjN(sl)(j)) = -1
      pos(last) = -1
      nextMember(lastMember(sl)) = last
      lastMember(sl) = lastMember(last)
      isRep(last) = false
      adjLen(last) = 0
      reps -= 1
    }
    g.edgesWithin(comp).filter(e => bestSide(local(g.edgeU(e))) != bestSide(local(g.edgeV(e))))
  }
}
