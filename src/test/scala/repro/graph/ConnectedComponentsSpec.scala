package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.LogicalRDD
import repro.{Oracle, SparkSpec}

import scala.util.Random

class ConnectedComponentsSpec extends SparkSpec {

  private def edgesDf(edges: Seq[(Long, Long)]): DataFrame = {
    import spark.implicits._
    edges.toDF("src", "dst")
  }

  private def run(edges: Seq[(Long, Long)], vertices: Seq[Long] = Nil): Map[Long, Long] = {
    import spark.implicits._
    val v = if (vertices.isEmpty) None else Some(vertices.toDF("id"))
    ConnectedComponents
      .run(spark, edgesDf(edges), v)
      .collect()
      .map(r => r.getLong(0) -> r.getLong(1))
      .toMap
  }

  test("single edge forms one component labeled by min id") {
    assert(run(Seq(2L -> 1L)) == Map(1L -> 1L, 2L -> 1L))
  }

  test("path graph collapses to one component") {
    val res = run(Seq(1L -> 2L, 2L -> 3L, 3L -> 4L, 4L -> 5L))
    assert(res.values.toSet == Set(1L))
  }

  test("long path of 100 000 vertices is one component") {
    val n    = 100000L
    val path = (1L until n).map(i => (i, i + 1))
    val res  = run(path)
    assert(res.size == n)
    assert(res.values.toSet == Set(1L))
  }

  test("two disjoint components get distinct labels") {
    val res = run(Seq(1L -> 2L, 10L -> 11L))
    assert(res == Map(1L -> 1L, 2L -> 1L, 10L -> 10L, 11L -> 10L))
  }

  test("isolated vertices keep their own label") {
    val res = run(Seq(1L -> 2L), vertices = Seq(1L, 2L, 99L))
    assert(res == Map(1L -> 1L, 2L -> 1L, 99L -> 99L))
  }

  test("self loops are harmless") {
    val res = run(Seq(1L -> 1L, 1L -> 2L))
    assert(res == Map(1L -> 1L, 2L -> 1L))
  }

  test("duplicate and reversed edges are harmless") {
    val res = run(Seq(1L -> 2L, 2L -> 1L, 1L -> 2L, 2L -> 3L))
    assert(res.values.toSet == Set(1L))
  }

  test("empty edges with explicit vertices") {
    val res = run(Nil, vertices = Seq(5L, 6L))
    assert(res == Map(5L -> 5L, 6L -> 6L))
  }

  test("star and clique mix") {
    val star   = Seq(0L -> 1L, 0L -> 2L, 0L -> 3L)
    val clique = for (u <- 10L to 13L; v <- (u + 1) to 13L) yield (u, v)
    val res    = run(star ++ clique)
    assert(res.filter(_._1 < 10).values.toSet == Set(0L))
    assert(res.filter(_._1 >= 10).values.toSet == Set(10L))
  }

  test("random graph agrees with LocalGraph components") {
    val rnd = new Random(7)
    val es  = Seq.fill(300)((rnd.nextInt(120).toLong, rnd.nextInt(120).toLong))
      .filter { case (u, v) => u != v }
    val expected = LocalGraph
      .fromEdges(es)
      .components
      .flatMap(c => c.map(_ -> c.min))
      .toMap
    assert(run(es) == expected)
  }

  test("oracle: component labels match DuckDB recursive reachability") {
    import spark.implicits._
    val rnd = new Random(11)
    val es = Seq.fill(40)((rnd.nextInt(25).toLong, rnd.nextInt(25).toLong))
      .filter { case (u, v) => u != v }
      .distinct
    val ids = es.flatMap(e => Seq(e._1, e._2)).distinct
    val sym = (es ++ es.map(_.swap)).distinct

    val result = ConnectedComponents.run(spark, edgesDf(es))
    Oracle.assertEquivalent(
      result,
      """WITH RECURSIVE reach(a, b) AS (
        |  SELECT id, id FROM vertices
        |  UNION
        |  SELECT r.a, e.dst FROM reach r JOIN edges_sym e ON e.src = r.b
        |)
        |SELECT CAST(a AS BIGINT) AS id, MIN(CAST(b AS BIGINT)) AS component
        |FROM reach GROUP BY a""".stripMargin,
      "vertices"  -> ids.toDF("id"),
      "edges_sym" -> sym.toDF("src", "dst")
    )
  }

  test("component sizes are preserved (no vertex lost)") {
    val rnd = new Random(3)
    val es  = Seq.fill(200)((rnd.nextInt(80).toLong, rnd.nextInt(80).toLong))
    val res = run(es.filter { case (u, v) => u != v })
    val expectedVerts = es.filter { case (u, v) => u != v }.flatMap(e => Seq(e._1, e._2)).toSet
    assert(res.keySet == expectedVerts)
  }

  test("labels are always the component minimum") {
    val rnd = new Random(5)
    val es  = Seq.fill(150)((rnd.nextInt(60).toLong, rnd.nextInt(60).toLong))
      .filter { case (u, v) => u != v }
    val res = run(es)
    // group by assigned label; min of members must equal the label
    res.groupBy(_._2).foreach { case (label, members) =>
      assert(members.keys.min == label)
    }
  }

  test("labels do not depend on partitioning or row order") {
    import spark.implicits._
    val rnd = new Random(13)
    // a 1600-vertex path whose shuffled edges fall in each of 16 partitions,
    // so the merge must join a forest from every one, plus random small
    // components and isolated vertices
    val path  = (1L until 1600L).map(i => (i, i + 1))
    val small = Seq.fill(400)((2000L + rnd.nextInt(500), 2000L + rnd.nextInt(500)))
    val es    = rnd.shuffle(path ++ small)
    val ids   = (0L to 2600L).filterNot(_ % 97 == 0)
    val comps = LocalGraph
      .fromEdges(es.filter { case (u, v) => u != v })
      .components
      .flatMap(c => c.map(_ -> c.min))
      .toMap
    val expected = (ids ++ es.flatMap(e => Seq(e._1, e._2))).map(v => v -> comps.getOrElse(v, v)).toMap
    def labels(rows: Seq[(Long, Long)], partitions: Int): Map[Long, Long] = {
      val df = spark.sparkContext.parallelize(rows, partitions).toDF("src", "dst")
      val pathPartitions = df.rdd
        .mapPartitions(it => Iterator(it.exists(r => r.getLong(0) <= 1600L)))
        .collect()
      assert(pathPartitions.length == partitions && pathPartitions.forall(identity))
      ConnectedComponents.run(spark, df, Some(ids.toDF("id")))
        .as[(Long, Long)].collect().toMap
    }
    assert(labels(es, 1) == expected)
    assert(labels(es, 16) == expected)
    assert(labels(rnd.shuffle(es.map(_.swap)), 16) == expected)
    assert(labels(es.reverse, 16) == expected)
  }

  test("result is a checkpointed leaf") {
    import spark.implicits._
    val res = ConnectedComponents.run(spark, edgesDf(Seq(1L -> 2L)), Some(Seq(3L).toDF("id")))
    assert(res.queryExecution.logical.isInstanceOf[LogicalRDD],
      res.queryExecution.logical.treeString)
    assert(res.columns.toSeq == Seq("id", "component"))
  }
}
