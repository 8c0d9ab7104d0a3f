package repro.core

import repro.SparkSpec
import repro.blocking.Blocking
import repro.graph.ConnectedComponents

class PreCleanupSpec extends SparkSpec {

  import spark.implicits._

  private def edges(rows: (Long, Long, Seq[String])*) =
    rows.toDF("src", "dst", "blockings")

  private def pairsOf(df: org.apache.spark.sql.DataFrame): Set[(Long, Long)] =
    df.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  // A chain of 60 records: one component above PreCleanup.MaxComponent (50).
  private def chain(provenance: Long => Seq[String]) =
    (1L until 60L).map(i => (i, i + 1, provenance(i)))

  test("small components keep all edges") {
    val e = edges((1L, 2L, Seq(Blocking.TokenOverlap)), (2L, 3L, Seq(Blocking.IdOverlap)))
    assert(pairsOf(PreCleanup.run(spark, e)) == Set((1L, 2L), (2L, 3L)))
  }

  test("token-only edges are dropped inside big components") {
    val alternating = chain(i =>
      if (i % 2 == 0) Seq(Blocking.TokenOverlap) else Seq(Blocking.IdOverlap))
    val out = PreCleanup.run(spark, edges(alternating: _*))
    assert(pairsOf(out) == (1L until 60L by 2).map(i => (i, i + 1)).toSet)
  }

  test("edges with id-overlap provenance survive in big components") {
    val out = PreCleanup.run(spark, edges(chain(_ => Seq(Blocking.IdOverlap)): _*))
    assert(out.count() == 59)
  }

  test("mixed-provenance edges survive (token + id)") {
    val mixed = chain(_ => Seq(Blocking.TokenOverlap, Blocking.IdOverlap))
    assert(PreCleanup.run(spark, edges(mixed: _*)).count() == 59)
  }

  test("issuer-match provenance also survives") {
    assert(PreCleanup.run(spark, edges(chain(_ => Seq(Blocking.IssuerMatch)): _*)).count() == 59)
  }

  test("only the oversized component is affected") {
    val big   = chain(_ => Seq(Blocking.TokenOverlap))
    val small = Seq((100L, 101L, Seq(Blocking.TokenOverlap)))
    val out = PreCleanup.run(spark, edges((big ++ small): _*))
    assert(pairsOf(out) == Set((100L, 101L)))
  }

  test("a component of exactly 50 records keeps its token-only edges, one of 51 loses them") {
    val token = Seq(Blocking.TokenOverlap)
    val at    = (1L until 50L).map(i => (i, i + 1, token))        // 50 records
    val above = (101L until 151L).map(i => (i, i + 1, token))    // 51 records
    val both = edges((at ++ above): _*)
    assert(pairsOf(PreCleanup.run(spark, both)) == at.map(e => (e._1, e._2)).toSet)
    // the same rule in GraLMatch.cleanup's per-component task: at μ = 100
    // Algorithm 1 leaves a connected component whole
    val assign = ConnectedComponents.run(spark, both.select("src", "dst"))
    val sizes = GraLMatch.cleanup(both, assign, GraLMatch.Thresholds(100, 100))
      .groupBy("group").count().select("count").as[Long].collect().sorted.toSeq
    assert(sizes == Seq.fill(51)(1L) :+ 50L)
  }

  test("empty input stays empty") {
    val e = edges()
    assert(PreCleanup.run(spark, e).count() == 0)
  }

  test("output schema keeps the blockings column") {
    val e = edges((1L, 2L, Seq(Blocking.IdOverlap)))
    assert(PreCleanup.run(spark, e).columns.toSet == Set("src", "dst", "blockings"))
  }
}
