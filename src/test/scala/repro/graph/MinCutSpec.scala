package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.testkit.Props

class MinCutSpec extends AnyFunSuite with Props {

  private def g(edges: (Long, Long)*): LocalGraph = LocalGraph.fromEdges(edges)

  /** `gr` without the canonical edges `cut`, keeping every vertex. */
  private def without(gr: LocalGraph, cut: Set[(Long, Long)]): LocalGraph =
    LocalGraph.fromEdges(gr.edges.filterNot(cut) ++ gr.vertices.map(v => (v, v)))

  /** Brute-force minimum edge cut size: try all edge subsets up to |E|. */
  private def bruteMinCutSize(gr: LocalGraph): Int = {
    val es = gr.edges
    if (!gr.isConnected) return 0
    (1 to es.size).iterator
      .flatMap(k => es.combinations(k).find(sub => !without(gr, sub.toSet).isConnected).map(_ => k))
      .next()
  }

  test("single edge: the cut is that edge") {
    assert(MinCut.minimumEdgeCut(g(1L -> 2L)) == Set((1L, 2L)))
  }

  test("path graph: cut size 1") {
    val cut = MinCut.minimumEdgeCut(g(1L -> 2L, 2L -> 3L, 3L -> 4L))
    assert(cut.size == 1)
  }

  test("triangle: cut size 2") {
    val gr  = g(1L -> 2L, 2L -> 3L, 1L -> 3L)
    val cut = MinCut.minimumEdgeCut(gr)
    assert(cut.size == 2)
    assert(!without(gr, cut).isConnected)
  }

  test("bridge between two triangles is the unique min cut") {
    // triangles {1,2,3} and {4,5,6} joined by bridge 3-4
    val gr = g(1L -> 2L, 2L -> 3L, 1L -> 3L, 4L -> 5L, 5L -> 6L, 4L -> 6L, 3L -> 4L)
    assert(MinCut.minimumEdgeCut(gr) == Set((3L, 4L)))
  }

  test("bridge between two K4s is the unique min cut") {
    val k4a = for (u <- 1L to 4L; v <- (u + 1) to 4L) yield (u, v)
    val k4b = for (u <- 5L to 8L; v <- (u + 1) to 8L) yield (u, v)
    val gr  = LocalGraph.fromEdges(k4a ++ k4b :+ (4L -> 5L))
    assert(MinCut.minimumEdgeCut(gr) == Set((4L, 5L)))
  }

  test("cycle: cut size 2 and removing it disconnects") {
    val gr  = g(1L -> 2L, 2L -> 3L, 3L -> 4L, 4L -> 1L)
    val cut = MinCut.minimumEdgeCut(gr)
    assert(cut.size == 2)
    assert(!without(gr, cut).isConnected)
  }

  test("complete graph K4: cut size 3 (degree of one vertex)") {
    val gr = LocalGraph.fromEdges(for (u <- 1L to 4L; v <- (u + 1) to 4L) yield (u, v))
    assert(MinCut.minimumEdgeCut(gr).size == 3)
  }

  test("star graph: cut size 1") {
    val gr = g(0L -> 1L, 0L -> 2L, 0L -> 3L, 0L -> 4L)
    assert(MinCut.minimumEdgeCut(gr).size == 1)
  }

  test("disconnected graph yields the empty cut") {
    assert(MinCut.minimumEdgeCut(g(1L -> 2L, 3L -> 4L)).isEmpty)
  }

  test("requires at least 2 vertices") {
    intercept[IllegalArgumentException] {
      MinCut.minimumEdgeCut(LocalGraph.fromEdges(Seq(1L -> 1L)))
    }
  }

  test("two groups linked by two false edges: cut removes exactly those") {
    // This is the GraLMatch motif: dense groups, sparse false links.
    val k4a = for (u <- 1L to 4L; v <- (u + 1) to 4L) yield (u, v)
    val k4b = for (u <- 5L to 8L; v <- (u + 1) to 8L) yield (u, v)
    val gr  = LocalGraph.fromEdges(k4a ++ k4b ++ Seq(1L -> 5L, 4L -> 8L))
    val cut = MinCut.minimumEdgeCut(gr)
    assert(cut == Set((1L, 5L), (4L, 8L)))
  }

  test("deterministic across calls") {
    val gr = g(1L -> 2L, 2L -> 3L, 3L -> 4L, 4L -> 1L, 1L -> 3L)
    assert(MinCut.minimumEdgeCut(gr) == MinCut.minimumEdgeCut(gr))
  }

  private val smallConnectedGraph: Gen[LocalGraph] = for {
    n     <- Gen.choose(2, 7)
    extra <- Gen.listOf(for {
               u <- Gen.choose(0L, n - 1L); v <- Gen.choose(0L, n - 1L)
             } yield (u, v))
  } yield {
    // spanning path guarantees connectivity
    val path = (0L until n.toLong).sliding(2).map(s => (s(0), s(1))).toSeq
    LocalGraph.fromEdges(path ++ extra.filter { case (u, v) => u != v })
  }

  test("property: removing the min cut disconnects the graph") {
    checkProp(Prop.forAll(smallConnectedGraph) { gr =>
      val cut = MinCut.minimumEdgeCut(gr)
      cut.nonEmpty && !without(gr, cut).isConnected
    })
  }

  test("property: cut size matches brute-force minimum") {
    checkProp(Prop.forAll(smallConnectedGraph) { gr =>
      MinCut.minimumEdgeCut(gr).size == bruteMinCutSize(gr)
    }, minTests = 40)
  }

  test("property: cut size is at most the minimum degree") {
    checkProp(Prop.forAll(smallConnectedGraph) { gr =>
      MinCut.minimumEdgeCut(gr).size <= gr.vertices.map(gr.neighbors(_).size).min
    })
  }
}
