package repro.graph

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.core.GraLMatch
import repro.core.GraLMatch.Thresholds
import repro.testkit.Props

/** Differential tests: the compact kernel against the map-based reference
  * implementation in [[repro.graph.reference]], which must agree to the bit
  * (same cut, same scores, same groups).
  */
class KernelReferenceSpec extends AnyFunSuite with Props {

  private val thresholds = Seq(Thresholds(25, 5), Thresholds(10, 5), Thresholds(5, 5))

  /** Up to 40 vertices with sparse, non-contiguous ids. */
  private val randomGraph: Gen[Seq[(Long, Long)]] = for {
    n  <- Gen.choose(1, 40)
    m  <- Gen.choose(0, 3 * n)
    es <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
  } yield es.map { case (u, v) => (7L * u + 3, 7L * v + 3) }

  /** A chain of n/5 5-cliques: one bridge between consecutive cliques and
    * n/10 noise edges from a clique to the one two ahead, endpoints drawn
    * from the seed.
    */
  private val cliqueChain: Gen[Seq[(Long, Long)]] = for {
    k    <- Gen.choose(2, 50)
    seed <- Gen.long
  } yield {
    val rng = new scala.util.Random(seed)
    def member(c: Int): Long = 100L + 5 * c + rng.nextInt(5)
    val cliques = for (c <- 0 until k; i <- 0 until 5; j <- i + 1 until 5)
      yield (100L + 5 * c + i, 100L + 5 * c + j)
    val bridges = (0 until k - 1).map(c => (member(c), member(c + 1)))
    val noise =
      if (k < 3) Nil
      else (0 until k / 2).map { _ => val c = rng.nextInt(k - 2); (member(c), member(c + 2)) }
    cliques ++ bridges ++ noise
  }

  private def sameCleanup(edges: Seq[(Long, Long)]): Boolean =
    thresholds.forall { t =>
      GraLMatch.cleanupComponent(edges, t).sorted ==
        reference.Cleanup.cleanupComponent(edges, t).sorted
    }

  test("property: cleanupComponent equals the reference on random graphs") {
    checkProp(Prop.forAll(randomGraph)(sameCleanup), minTests = 100)
  }

  test("property: cleanupComponent equals the reference on clique chains") {
    checkProp(Prop.forAll(cliqueChain)(sameCleanup), minTests = 12)
  }

  test("property: min cut and betweenness equal the reference to the bit") {
    checkProp(Prop.forAll(randomGraph) { es =>
      val g = LocalGraph.fromEdges(es)
      val r = reference.LocalGraph.fromEdges(es)
      val cut = g.numVertices < 2 || MinCut.minimumEdgeCut(g) == reference.MinCut.minimumEdgeCut(r)
      val bc = Betweenness.edgeBetweenness(g) == reference.Betweenness.edgeBetweenness(r)
      val max = g.numEdges == 0 ||
        Betweenness.maxBetweennessEdge(g) == reference.Betweenness.maxBetweennessEdge(r)
      cut && bc && max
    }, minTests = 100)
  }

  test("property: the graph API equals the reference") {
    checkProp(Prop.forAll(randomGraph) { es =>
      val g = LocalGraph.fromEdges(es)
      val r = reference.LocalGraph.fromEdges(es)
      g.vertices == r.vertices && g.edges == r.edges && g.numEdges == r.numEdges &&
        g.components == r.components && g.isConnected == r.isConnected &&
        g.vertices.forall(v => g.neighbors(v) == r.neighbors(v))
    }, minTests = 100)
  }
}
