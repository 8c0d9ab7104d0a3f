package repro.graph

import java.util.Arrays

/** Undirected graph over `Long` vertex ids, small enough to live in one task.
  *
  * GraLMatch's Algorithm 1 operates per connected component: the distributed
  * pipeline groups the edge list by component id and hands each component's
  * edges to a task, which materializes it as a `LocalGraph` and runs the
  * per-component algorithms ([[MinCut]], [[Betweenness]]) locally.
  *
  * Compact representation, built once per call: vertex ids are relabelled to
  * `0..n-1` in ascending id order (so every order on labels is the order on
  * ids), edges are numbered `0..m-1` in canonical `(src < dst)` order, and
  * the adjacency is a CSR array pair with each vertex's neighbours sorted.
  * Edge removal shares those arrays and copies only the alive-edge mask, so
  * a `LocalGraph` value never changes. Parallel edges collapse; a self-loop
  * `(v, v)` adds only its vertex, which is how an isolated vertex is given.
  */
final class LocalGraph private (
    /** Vertex id of each label, ascending. */
    private[repro] val ids: Array[Long],
    /** Adjacency slots of label `v` are `offsets(v) until offsets(v + 1)`. */
    private[graph] val offsets: Array[Int],
    /** Neighbour label of each slot, ascending per vertex. */
    private[graph] val nbr: Array[Int],
    /** Edge number of each slot. */
    private[graph] val slotEdge: Array[Int],
    /** Endpoint labels of each edge, `edgeU(e) < edgeV(e)`. */
    private[graph] val edgeU: Array[Int],
    private[graph] val edgeV: Array[Int],
    private[graph] val alive: Array[Boolean],
    val numEdges: Int
) extends Serializable {

  def numVertices: Int = ids.length

  /** All vertices, including isolated ones. */
  def vertices: Set[Long] = ids.toSet

  /** Canonical edge list (`src < dst`), deterministic order. */
  def edges: Seq[(Long, Long)] =
    edgeU.indices.collect { case e if alive(e) => (ids(edgeU(e)), ids(edgeV(e))) }

  def neighbors(v: Long): Set[Long] = {
    val i = Arrays.binarySearch(ids, v)
    if (i < 0) Set.empty
    else (offsets(i) until offsets(i + 1)).collect { case s if alive(slotEdge(s)) => ids(nbr(s)) }.toSet
  }

  /** Connected components via BFS; deterministic order (by smallest member). */
  def components: Seq[Set[Long]] =
    componentsWithin(Array.range(0, numVertices)).map(_.iterator.map(ids).toSet)

  def isConnected: Boolean =
    numVertices <= 1 || componentsWithin(Array.range(0, numVertices)).size == 1

  /** The graph without the given edge numbers (already-removed ones are
    * ignored).
    */
  private[repro] def withoutEdges(es: Array[Int]): LocalGraph = {
    val mask = alive.clone()
    var removed = 0
    for (e <- es if mask(e)) { mask(e) = false; removed += 1 }
    new LocalGraph(ids, offsets, nbr, slotEdge, edgeU, edgeV, mask, numEdges - removed)
  }

  /** Connected components of the alive edges, restricted to `members`, which
    * must be ascending and closed under alive edges (a union of components).
    * Each component is returned ascending; components are ordered by their
    * smallest member.
    */
  private[repro] def componentsWithin(members: Array[Int]): Seq[Array[Int]] = {
    val seen  = new Array[Boolean](numVertices)
    val queue = new Array[Int](members.length)
    val out   = Seq.newBuilder[Array[Int]]
    for (start <- members if !seen(start)) {
      seen(start) = true
      queue(0) = start
      var head = 0; var tail = 1
      while (head < tail) {
        val u = queue(head); head += 1
        var s = offsets(u)
        while (s < offsets(u + 1)) {
          val w = nbr(s)
          if (alive(slotEdge(s)) && !seen(w)) { seen(w) = true; queue(tail) = w; tail += 1 }
          s += 1
        }
      }
      val comp = Arrays.copyOf(queue, tail)
      Arrays.sort(comp)
      out += comp
    }
    out.result()
  }

  /** Alive edge numbers with both endpoints in the ascending label set
    * `comp`, which must be closed under alive edges; ascending, that is in
    * canonical `(src, dst)` order.
    */
  private[graph] def edgesWithin(comp: Array[Int]): Array[Int] = {
    val out = Array.newBuilder[Int]
    for (u <- comp) {
      var s = offsets(u)
      while (s < offsets(u + 1)) {
        if (nbr(s) > u && alive(slotEdge(s))) out += slotEdge(s)
        s += 1
      }
    }
    out.result()
  }
}

object LocalGraph {

  /** Builds a graph from an edge list; a self-loop `(v, v)` adds vertex `v`
    * and no edge.
    */
  def fromEdges(edgeList: Iterable[(Long, Long)]): LocalGraph = {
    val endpoints = Array.newBuilder[Long]
    edgeList.foreach { case (u, v) => endpoints += u; endpoints += v }
    val ids = distinctSorted(endpoints.result())
    def label(v: Long) = Arrays.binarySearch(ids, v)

    // Canonical edges packed as (src label << 32 | dst label): sorting the
    // packed values sorts them by (src, dst).
    val packed = distinctSorted(edgeList.iterator.collect {
      case (u, v) if u != v =>
        val (a, b) = (label(u), label(v))
        math.min(a, b).toLong << 32 | math.max(a, b)
    }.toArray)
    val m = packed.length
    val edgeU = packed.map(p => (p >>> 32).toInt)
    val edgeV = packed.map(p => p.toInt)

    val n = ids.length
    val offsets = new Array[Int](n + 1)
    for (e <- 0 until m) { offsets(edgeU(e) + 1) += 1; offsets(edgeV(e) + 1) += 1 }
    for (v <- 0 until n) offsets(v + 1) += offsets(v)
    // Edges arrive in (src, dst) order, so every vertex receives its smaller
    // neighbours (as dst) before its larger ones (as src), each ascending.
    val fill = offsets.clone()
    val nbr = new Array[Int](2 * m)
    val slotEdge = new Array[Int](2 * m)
    for (e <- 0 until m) {
      val (u, v) = (edgeU(e), edgeV(e))
      nbr(fill(u)) = v; slotEdge(fill(u)) = e; fill(u) += 1
      nbr(fill(v)) = u; slotEdge(fill(v)) = e; fill(v) += 1
    }
    new LocalGraph(ids, offsets, nbr, slotEdge, edgeU, edgeV, Array.fill(m)(true), m)
  }

  private def distinctSorted(xs: Array[Long]): Array[Long] = {
    Arrays.sort(xs)
    var k = 0
    for (i <- xs.indices if i == 0 || xs(i) != xs(i - 1)) { xs(k) = xs(i); k += 1 }
    Arrays.copyOf(xs, k)
  }
}
