package repro.core

import repro.SparkSpec
import repro.blocking.Blocking
import repro.graph.ConnectedComponents
import GraLMatch.Thresholds

class GraLMatchSpec extends SparkSpec {

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

  test("maxLocalVertices safety valve returns the component unsplit") {
    val out = GraLMatch.cleanupComponent(barbell, Thresholds(25, 5), maxLocalVertices = 4)
    assert(groupsOf(out) == Set((1L to 8L).toSet))
  }

  test("maxLocalVertices applies to each local component, not the whole input") {
    val shifted = barbell.map { case (a, b) => (a + 100, b + 100) }
    val out = GraLMatch.cleanupComponent(barbell ++ shifted, Thresholds(25, 5), maxLocalVertices = 8)
    assert(groupsOf(out) == Set(
      Set(1L, 2L, 3L, 4L), Set(5L, 6L, 7L, 8L),
      Set(101L, 102L, 103L, 104L), Set(105L, 106L, 107L, 108L)))
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

  // Groups of one CC pass shared by pre-cleanup and cleanup, checked equal
  // to those of a pass in each step (pre-cleanup threshold 10).
  private def onePassGroups(
      edges: Seq[(Long, Long, Seq[String])], ids: Seq[Long]): Set[Set[Long]] = {
    val e = edges.toDF("src", "dst", "blockings")
    val v = ids.toDF("id")
    val th = Thresholds(25, 5)
    def rows(df: org.apache.spark.sql.DataFrame) =
      df.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val cc = ConnectedComponents.run(spark, e.select("src", "dst"), Some(v))
    val one = rows(GraLMatch.cleanup(spark, PreCleanup.keep(e, cc, 10), cc, th))
    val three = rows(GraLMatch.run(spark, PreCleanup.run(spark, e, 10), th, Some(v)))
    assert(one == three)
    groupsOf(one.toSeq)
  }

  test("one CC pass equals three: pre-cleanup splits, then Algorithm 1 cleans") {
    // 16 records > 10: the token-only link goes, then each barbell splits
    val id = Seq(Blocking.IdOverlap)
    val twoBarbells = (barbell ++ barbell.map { case (a, b) => (a + 10, b + 10) })
      .map { case (a, b) => (a, b, id) } :+ ((8L, 11L, Seq(Blocking.TokenOverlap)))
    assert(onePassGroups(twoBarbells, (1L to 8L) ++ (11L to 18L)) == Set(
      Set(1L, 2L, 3L, 4L), Set(5L, 6L, 7L, 8L),
      Set(11L, 12L, 13L, 14L), Set(15L, 16L, 17L, 18L)))
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
}
