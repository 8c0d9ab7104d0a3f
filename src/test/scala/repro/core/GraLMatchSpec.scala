package repro.core

import org.apache.spark.sql.execution.{CoGroupExec, MapGroupsExec}
import org.scalacheck.{Gen, Prop}

import repro.SparkSpec
import repro.blocking.Blocking
import repro.graph.{ConnectedComponents, LocalGraph}
import repro.graph.reference.GlobalCleanup
import repro.testkit.Props
import GraLMatch.Thresholds

class GraLMatchSpec extends SparkSpec with Props {

  import spark.implicits._

  private def groupsOf(assign: Seq[(Long, Long)]): Set[Set[Long]] =
    assign.groupBy(_._2).values.map(_.map(_._1).toSet).toSet

  // two K4s joined by one false edge — the canonical GraLMatch motif
  private val barbell: Seq[(Long, Long)] = {
    val k4a = for (u <- 1L to 4L; v <- (u + 1) to 4L) yield (u, v)
    val k4b = for (u <- 5L to 8L; v <- (u + 1) to 8L) yield (u, v)
    (k4a ++ k4b :+ (4L -> 5L)).toSeq
  }

  test("small components pass through untouched") {
    val edges = Seq(1L -> 2L, 2L -> 3L)
    val out = GraLMatch.cleanupComponent(edges, Thresholds(gamma = 10, mu = 5))
    assert(groupsOf(out) == Set(Set(1L, 2L, 3L)))
  }

  test("barbell splits into the two true groups (betweenness phase)") {
    // size 8 > mu=5 but <= gamma=25: only phase 2 runs
    val out = GraLMatch.cleanupComponent(barbell, Thresholds(gamma = 25, mu = 5))
    assert(groupsOf(out) == Set(Set(1L, 2L, 3L, 4L), Set(5L, 6L, 7L, 8L)))
  }

  test("barbell splits with the min-cut phase too (gamma = mu)") {
    val out = GraLMatch.cleanupComponent(barbell, Thresholds(gamma = 5, mu = 5))
    assert(groupsOf(out) == Set(Set(1L, 2L, 3L, 4L), Set(5L, 6L, 7L, 8L)))
  }

  test("component at exactly mu is left alone") {
    val k5 = for (u <- 1L to 5L; v <- (u + 1) to 5L) yield (u, v)
    val out = GraLMatch.cleanupComponent(k5.toSeq, Thresholds(gamma = 25, mu = 5))
    assert(groupsOf(out) == Set((1L to 5L).toSet))
    // a path has a bridge for BC to take, yet none is removed at |V| = mu
    val p5 = (1L until 5L).map(i => (i, i + 1))
    assert(groupsOf(GraLMatch.cleanupComponent(p5, Thresholds(gamma = 5, mu = 5))) ==
      Set((1L to 5L).toSet))
  }

  test("no edges and a single edge") {
    assert(GraLMatch.cleanupComponent(Nil, Thresholds(25, 5)).isEmpty)
    assert(GraLMatch.cleanupComponent(Seq(2L -> 1L), Thresholds(25, 5)).sorted ==
      Seq(1L -> 1L, 2L -> 1L))
  }

  // 6-cycle at mu = 3. BC alone: all edges tie, (1,2) goes, then the middle
  // edge (4,5) of the path 2-3-4-5-6-1. A min cut first: the first phase
  // ends on 6 with weight 2, which no later phase beats, so {6} is cut off;
  // BC then splits the path 1..5 at (2,3), the smaller of its two tied
  // middle edges.
  private val cycle6 = (1L to 5L).map(i => (i, i + 1)) :+ (1L -> 6L)

  test("component of exactly gamma gets no min cut") {
    val out = GraLMatch.cleanupComponent(cycle6, Thresholds(gamma = 6, mu = 3))
    assert(groupsOf(out) == Set(Set(1L, 5L, 6L), Set(2L, 3L, 4L)))
    assert(out.sorted == GraLMatch.cleanupComponent(cycle6, Thresholds(100, 3)).sorted)
  }

  test("component of gamma + 1 gets a min cut before BC") {
    val out = GraLMatch.cleanupComponent(cycle6, Thresholds(gamma = 5, mu = 3))
    assert(groupsOf(out) == Set(Set(1L, 2L), Set(3L, 4L, 5L), Set(6L)))
  }

  test("three chained K4s split into three groups") {
    def k4(off: Long) = for (u <- off to (off + 3); v <- (u + 1) to (off + 3)) yield (u, v)
    val edges = (k4(1) ++ k4(5) ++ k4(9) :+ (4L -> 5L) :+ (8L -> 9L)).toSeq
    val out = GraLMatch.cleanupComponent(edges, Thresholds(gamma = 25, mu = 5))
    assert(groupsOf(out) == Set(Set(1L, 2L, 3L, 4L), Set(5L, 6L, 7L, 8L), Set(9L, 10L, 11L, 12L)))
  }

  test("oversized clique is still broken below mu") {
    val k8 = for (u <- 1L to 8L; v <- (u + 1) to 8L) yield (u, v)
    val out = GraLMatch.cleanupComponent(k8.toSeq, Thresholds(gamma = 25, mu = 5))
    assert(out.size == 8, "every vertex assigned")
    assert(groupsOf(out).forall(_.size <= 5))
  }

  test("all vertices of the input are assigned exactly once") {
    val out = GraLMatch.cleanupComponent(barbell, Thresholds(5, 5))
    assert(out.map(_._1).sorted == (1L to 8L))
  }

  test("group labels are the minimum member id") {
    val out = GraLMatch.cleanupComponent(barbell, Thresholds(5, 5)).toMap
    assert(out(1L) == 1L && out(5L) == 5L)
  }

  test("distributed run matches local cleanup per component") {
    val edges2 = barbell.map { case (a, b) => (a + 100, b + 100) }
    val all = (barbell ++ edges2).toDF("src", "dst")
    val out = GraLMatch.run(spark, all, Thresholds(25, 5))
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
    assert(groupsOf(out) == Set(
      Set(1L, 2L, 3L, 4L), Set(5L, 6L, 7L, 8L),
      Set(101L, 102L, 103L, 104L), Set(105L, 106L, 107L, 108L)))
  }

  test("distributed run adds singleton groups for isolated vertices") {
    val out = GraLMatch.run(spark, Seq((1L, 2L)).toDF("src", "dst"),
      Thresholds(25, 5), Some(Seq(1L, 2L, 99L).toDF("id")))
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
    assert(groupsOf(out) == Set(Set(1L, 2L), Set(99L)))
  }

  private def cleanupRows(edges: Seq[(Long, Long)], assign: Seq[(Long, Long)]) =
    GraLMatch.cleanup(edges.toDF("src", "dst"), assign.toDF("id", "component"), Thresholds(25, 5))

  test("cleanup with no edges makes every id a singleton") {
    val out = cleanupRows(Nil, Seq(1L -> 1L, 2L -> 1L, 3L -> 3L))
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
    assert(out.sorted == Seq(1L -> 1L, 2L -> 2L, 3L -> 3L))
  }

  test("cleanup emits the ids of a component that have no edge as singletons") {
    val assign = (1L to 8L).map(_ -> 1L) ++ Seq(9L -> 1L, 50L -> 1L)
    val out = cleanupRows(barbell, assign).collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
    assert(out.size == 10)
    assert(groupsOf(out) == Set(
      Set(1L, 2L, 3L, 4L), Set(5L, 6L, 7L, 8L), Set(9L), Set(50L)))
  }

  test("cleanup of duplicated and reversed edges equals cleanup of the canonical list") {
    // BC cuts a 10-path at its middle edge (5, 6), unless copies of an edge
    // count as parallel edges and split its score.
    val path = (1L until 10L).map(i => (i, i + 1))
    val noisy = path ++ path.map(_.swap) ++ Seq.fill(2)(6L -> 5L)
    val assign = (1L to 10L).map(_ -> 1L)
    def rows(edges: Seq[(Long, Long)]) =
      cleanupRows(edges, assign).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val canonical = rows(path)
    assert(groupsOf(canonical.toSeq) == Set((1L to 5L).toSet, (6L to 10L).toSet))
    assert(rows(noisy) == canonical)
  }

  test("cleanup plans one per-component kernel node") {
    val plan = cleanupRows(barbell, (1L to 8L).map(_ -> 1L)).queryExecution.sparkPlan
    val kernels = plan.collect { case p: MapGroupsExec => p; case p: CoGroupExec => p }
    assert(kernels.size == 1, plan.treeString)
  }

  // Groups of one CC pass shared by pre-cleanup and cleanup, checked equal
  // to those of a pass in each step.
  private def onePassGroups(
      edges: Seq[(Long, Long, Seq[String])], ids: Seq[Long]): Set[Set[Long]] = {
    val e = edges.toDF("src", "dst", "blockings")
    val v = ids.toDF("id")
    val th = Thresholds(25, 5)
    def rows(df: org.apache.spark.sql.DataFrame) =
      df.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val cc = ConnectedComponents.run(spark, e.select("src", "dst"), Some(v))
    val one = rows(GraLMatch.cleanup(PreCleanup.keep(e, cc), cc, th))
    val three = rows(GraLMatch.run(spark, PreCleanup.run(spark, e), th, Some(v)))
    assert(one == three)
    groupsOf(one.toSeq)
  }

  test("one CC pass equals three: pre-cleanup splits, then Algorithm 1 cleans") {
    // seven barbells chained by token-only links: 56 records > 50, so
    // pre-cleanup drops the 6 links, then each barbell splits
    val id = Seq(Blocking.IdOverlap)
    val offsets = (0L until 7L).map(_ * 10)
    val barbells = offsets.flatMap(o => barbell.map { case (a, b) => (a + o, b + o, id) })
    val links = offsets.sliding(2).map(w => (w(0) + 8, w(1) + 1, Seq(Blocking.TokenOverlap)))
    val chain = barbells ++ links
    assert(PreCleanup.run(spark, chain.toDF("src", "dst", "blockings")).count() == barbells.size)
    assert(onePassGroups(chain, offsets.flatMap(o => (1L to 8L).map(_ + o))) ==
      offsets.flatMap(o => Seq((1L to 4L).map(_ + o).toSet, (5L to 8L).map(_ + o).toSet)).toSet)
  }

  test("one CC pass equals three: an isolated id is a singleton") {
    assert(onePassGroups(Seq((1L, 2L, Seq(Blocking.TokenOverlap))), Seq(1L, 2L, 99L)) ==
      Set(Set(1L, 2L), Set(99L)))
  }

  test("one CC pass equals three: no edges, every id a singleton") {
    assert(onePassGroups(Seq.empty, Seq(1L, 2L, 3L)) == Set(Set(1L), Set(2L), Set(3L)))
  }

  test("thresholds require gamma >= mu") {
    intercept[IllegalArgumentException] { Thresholds(gamma = 3, mu = 5) }
  }

  test("thresholds require mu >= 1") {
    intercept[IllegalArgumentException] { Thresholds(gamma = 5, mu = 0) }
    intercept[IllegalArgumentException] { Thresholds(gamma = 0, mu = 0) }
    assert(groupsOf(GraLMatch.cleanupComponent(barbell, Thresholds(1, 1))) ==
      (1L to 8L).map(Set(_)).toSet)
  }

  test("phase-1 min cut handles dense pair joined by two false edges") {
    val k5a = for (u <- 1L to 5L; v <- (u + 1) to 5L) yield (u, v)
    val k5b = for (u <- 6L to 10L; v <- (u + 1) to 10L) yield (u, v)
    val edges = (k5a ++ k5b :+ (1L -> 6L) :+ (5L -> 10L)).toSeq
    val out = GraLMatch.cleanupComponent(edges, Thresholds(gamma = 5, mu = 5))
    assert(groupsOf(out) == Set((1L to 5L).toSet, (6L to 10L).toSet))
  }

  test("terminates on pathological long cycle") {
    val n = 60L
    val cycle = (1L until n).map(i => (i, i + 1)) :+ (n, 1L)
    val out = GraLMatch.cleanupComponent(cycle, Thresholds(gamma = 10, mu = 5))
    assert(out.map(_._1).toSet == (1L to n).toSet)
    assert(groupsOf(out).forall(_.size <= 10))
  }

  /** Up to 40 vertices with sparse, non-contiguous ids. */
  private val randomGraph: Gen[Seq[(Long, Long)]] = for {
    n  <- Gen.choose(1, 40)
    m  <- Gen.choose(0, 3 * n)
    es <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
  } yield es.map { case (u, v) => (7L * u + 3, 7L * v + 3) }

  test("property: cleanupComponent partitions the vertices into connected groups of <= mu") {
    checkProp(Prop.forAll(randomGraph) { es =>
      val vertices = es.flatMap { case (u, v) => Seq(u, v) }.distinct.sorted
      Seq(Thresholds(25, 5), Thresholds(10, 5), Thresholds(4, 2)).forall { t =>
        val out = GraLMatch.cleanupComponent(es, t)
        val group = out.toMap
        val intra = es.filter { case (u, v) => group(u) == group(v) }
        val connected = groupsOf(out).forall { g =>
          g.size <= t.mu && LocalGraph.fromEdges(intra.filter(e => g(e._1)), g).isConnected
        }
        // Cleaning the intra-group edges again (self-loops keep every vertex)
        // changes nothing.
        val again = GraLMatch.cleanupComponent(intra ++ vertices.map(v => (v, v)), t)
        out.map(_._1).sorted == vertices && connected && again.sorted == out.sorted
      }
    }, minTests = 100)
  }

  /** 2 to 5 disjoint random pieces, 40 vertices in all at most: the edges
    * and every vertex (isolated ones included).
    */
  private val piecewiseGraph: Gen[(Seq[(Long, Long)], Seq[Long])] = for {
    k      <- Gen.choose(2, 5)
    sizes  <- Gen.listOfN(k, Gen.choose(1, 40 / k))
    pieces <- Gen.sequence[List[Seq[(Long, Long)]], Seq[(Long, Long)]](sizes.map { n =>
                Gen.choose(0, 3 * n).flatMap(m =>
                  Gen.listOfN(m, Gen.zip(Gen.choose(0L, n - 1L), Gen.choose(0L, n - 1L))))
              })
  } yield {
    val offsets = sizes.scanLeft(0L)(_ + _)
    (pieces.zip(offsets).flatMap { case (es, o) => es.map { case (u, v) => (u + o, v + o) } },
      0L until offsets.last)
  }

  test("property: GraLMatch.run equals the global-loop Algorithm 1 on graphs of 2 to 5 pieces") {
    // 30 graphs per run call, their ids offset by 100 each
    checkProp(Prop.forAllNoShrink(Gen.listOfN(30, piecewiseGraph)) { graphs =>
      val shifted = graphs.zipWithIndex.map { case ((es, vs), i) =>
        val o = 100L * i
        (es.map { case (u, v) => (u + o, v + o) }, vs.map(_ + o))
      }
      val edges = shifted.flatMap(_._1).toDF("src", "dst")
      val ids = shifted.flatMap(_._2).toDF("id")
      Seq(Thresholds(25, 5), Thresholds(10, 5), Thresholds(5, 5), Thresholds(4, 2)).forall { t =>
        GraLMatch.run(spark, edges, t, Some(ids)).as[(Long, Long)].collect().toSet ==
          shifted.flatMap { case (es, vs) => GlobalCleanup.run(es, vs, t) }.toSet
      }
    }, minTests = 5)
  }

  test("run gives the same groups at 1, 7 and 64 shuffle partitions and in any row order") {
    val rng = new scala.util.Random(11)
    // 12 components of 5 to 30 vertices: a path plus random chords
    val edges = (0 until 12).flatMap { c =>
      val n = 5 + rng.nextInt(26)
      val path = (0 until n - 1).map(i => (i, i + 1))
      val chords = Seq.fill(2 * n)((rng.nextInt(n), rng.nextInt(n)))
      (path ++ chords).map { case (u, v) => (1000L * c + u, 1000L * c + v) }
    }
    val isolated = Seq(99998L, 99999L)
    val ids = edges.flatMap { case (u, v) => Seq(u, v) }.distinct ++ isolated
    val th = Thresholds(10, 3)
    def groups(es: Seq[(Long, Long)]): Set[(Long, Long)] =
      GraLMatch.run(spark, es.toDF("src", "dst"), th, Some(ids.toDF("id")))
        .as[(Long, Long)].collect().toSet

    val expected = groups(edges)
    assert(expected == (GraLMatch.cleanupComponent(edges, th) ++ isolated.map(i => (i, i))).toSet)
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    try {
      for (n <- Seq(1, 7, 64)) {
        spark.conf.set(key, n.toLong)
        assert(groups(edges) == expected, s"$n shuffle partitions")
      }
    } finally spark.conf.set(key, saved)
    assert(groups(rng.shuffle(edges.map(_.swap))) == expected, "reversed, shuffled rows")
  }
}
