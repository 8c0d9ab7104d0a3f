package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.testkit.Props

class BetweennessSpec extends AnyFunSuite with Props {

  private def g(edges: (Long, Long)*): LocalGraph = LocalGraph.fromEdges(edges)

  private val Eps = 1e-9

  /** Brute-force edge betweenness via explicit shortest-path enumeration. */
  private def bruteEdgeBetweenness(gr: LocalGraph): Map[(Long, Long), Double] = {
    val verts = gr.vertices.toSeq.sorted
    val score = scala.collection.mutable.Map.empty[(Long, Long), Double].withDefaultValue(0.0)
    def allShortestPaths(s: Long, t: Long): Seq[Seq[Long]] = {
      // BFS layering then DFS back-enumeration
      val dist = scala.collection.mutable.Map(s -> 0)
      val q    = scala.collection.mutable.Queue(s)
      while (q.nonEmpty) {
        val u = q.dequeue()
        for (v <- gr.neighbors(u) if !dist.contains(v)) { dist(v) = dist(u) + 1; q += v }
      }
      if (!dist.contains(t)) return Nil
      def back(v: Long): Seq[Seq[Long]] =
        if (v == s) Seq(Seq(s))
        else gr.neighbors(v).toSeq.filter(p => dist.get(p).contains(dist(v) - 1))
          .flatMap(p => back(p).map(_ :+ v))
      back(t)
    }
    for {
      i <- verts.indices; j <- (i + 1) until verts.size
      s = verts(i); t = verts(j)
      paths = allShortestPaths(s, t)
      if paths.nonEmpty
    } {
      val frac = 1.0 / paths.size
      for (p <- paths; e <- p.sliding(2)) score((e(0) min e(1), e(0) max e(1))) += frac
    }
    score.toMap
  }

  test("single edge has betweenness 1") {
    val bc = Betweenness.edgeBetweenness(g(1L -> 2L))
    assert(math.abs(bc((1L, 2L)) - 1.0) < Eps)
  }

  test("path graph P4: middle edge carries the most pairs") {
    val bc = Betweenness.edgeBetweenness(g(1L -> 2L, 2L -> 3L, 3L -> 4L))
    // edge (i,i+1) in a path of n=4: (i)(n-i) pairs
    assert(math.abs(bc((1L, 2L)) - 3.0) < Eps)
    assert(math.abs(bc((2L, 3L)) - 4.0) < Eps)
    assert(math.abs(bc((3L, 4L)) - 3.0) < Eps)
  }

  test("star graph: every spoke carries n-1 pairs") {
    val bc = Betweenness.edgeBetweenness(g(0L -> 1L, 0L -> 2L, 0L -> 3L, 0L -> 4L))
    // spoke (0,k): pair (0,k) plus 3 pairs (k, other) each fully through it
    bc.values.foreach(v => assert(math.abs(v - 4.0) < Eps))
  }

  test("triangle: all edges equal, value 1") {
    val bc = Betweenness.edgeBetweenness(g(1L -> 2L, 2L -> 3L, 1L -> 3L))
    bc.values.foreach(v => assert(math.abs(v - 1.0) < Eps))
  }

  test("square C4: two shortest paths between opposite corners split evenly") {
    val bc = Betweenness.edgeBetweenness(g(1L -> 2L, 2L -> 3L, 3L -> 4L, 4L -> 1L))
    // each edge: its own endpoint pair (1.0) + two diagonal pairs at 0.5 = 2
    bc.values.foreach(v => assert(math.abs(v - 2.0) < Eps))
  }

  test("bridge between two triangles maximizes betweenness") {
    val gr = g(1L -> 2L, 2L -> 3L, 1L -> 3L, 4L -> 5L, 5L -> 6L, 4L -> 6L, 3L -> 4L)
    assert(Betweenness.maxBetweennessEdge(gr) == (3L, 4L))
    val bc = Betweenness.edgeBetweenness(gr)
    // all 9 cross pairs go through the bridge, plus the pair (3,4) itself... the
    // bridge carries 3*3 = 9 cross pairs exactly (endpoints included).
    assert(math.abs(bc((3L, 4L)) - 9.0) < Eps)
  }

  test("disconnected graph: per-component scores") {
    val bc = Betweenness.edgeBetweenness(g(1L -> 2L, 3L -> 4L))
    assert(math.abs(bc((1L, 2L)) - 1.0) < Eps)
    assert(math.abs(bc((3L, 4L)) - 1.0) < Eps)
  }

  test("maxBetweennessEdge requires edges") {
    intercept[IllegalArgumentException] {
      Betweenness.maxBetweennessEdge(LocalGraph.fromEdges(Seq(1L -> 1L)))
    }
  }

  test("maxBetweennessEdge is deterministic under ties") {
    val gr = g(1L -> 2L, 2L -> 3L, 1L -> 3L) // all tie
    assert(Betweenness.maxBetweennessEdge(gr) == Betweenness.maxBetweennessEdge(gr))
  }

  private val smallGraph: Gen[LocalGraph] = for {
    n  <- Gen.choose(2, 7)
    es <- Gen.listOf(for {
            u <- Gen.choose(0L, n - 1L); v <- Gen.choose(0L, n - 1L)
          } yield (u, v))
  } yield LocalGraph.fromEdges(es.filter { case (u, v) => u != v })

  test("property: Brandes agrees with brute-force path enumeration") {
    checkProp(Prop.forAll(smallGraph) { gr =>
      val fast  = Betweenness.edgeBetweenness(gr)
      val brute = bruteEdgeBetweenness(gr)
      fast.keySet == brute.keySet &&
        fast.forall { case (e, v) => math.abs(v - brute(e)) < 1e-6 }
    }, minTests = 40)
  }

  test("property: total betweenness equals sum of pair distances") {
    // Σ_e c_B(e) = Σ_{s<t reachable} d(s,t) since each pair distributes
    // weight d(s,t) across its shortest paths' edges.
    checkProp(Prop.forAll(smallGraph) { gr =>
      val bc = Betweenness.edgeBetweenness(gr)
      val verts = gr.vertices.toSeq.sorted
      def bfsDist(s: Long): Map[Long, Int] = {
        val dist = scala.collection.mutable.Map(s -> 0)
        val q    = scala.collection.mutable.Queue(s)
        while (q.nonEmpty) {
          val u = q.dequeue()
          for (v <- gr.neighbors(u) if !dist.contains(v)) { dist(v) = dist(u) + 1; q += v }
        }
        dist.toMap
      }
      val sumDist = (for {
        i <- verts.indices; d = bfsDist(verts(i))
        j <- (i + 1) until verts.size if d.contains(verts(j))
      } yield d(verts(j))).sum
      math.abs(bc.values.sum - sumDist) < 1e-6
    }, minTests = 40)
  }
}
