package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import org.scalacheck.{Gen, Prop}
import repro.SparkSpec
import repro.blocking.{Blocking, IdOverlapBlocking, TokenOverlapBlocking}
import repro.datagen.{EmDatasets, GenParams}
import repro.matcher.{LogisticModel, PairwiseMatcher, Serializer}
import repro.matcher.PairwiseMatcher.RecordSchema
import repro.testkit.Props

class PipelineSpec extends SparkSpec with Props {

  import spark.implicits._

  private val p = GenParams.synthetic(nGroups = 150, seed = 57L)

  private lazy val fixtures = {
    val d = EmDatasets.generate(spark, p)
    val secs = d.securities.toDF().cache()
    val cands = Blocking.combine(
      IdOverlapBlocking.securityCandidates(secs),
      TokenOverlapBlocking.candidates(secs, "name", topN = 3, maxDocFreq = 100))
    // train on the train split
    val split = Splits.withSplit(secs, seed = 3L)
    val train = split.where($"split" === Splits.Train)
    val labeled = Splits.labeledPairs(train.select("recordId", "entityId"), seed = 31L)
    val feat = PairwiseMatcher.featurize(
      labeled, secs, RecordSchema.Securities, Serializer.Plain, 128)
    val (model, _) = PairwiseMatcher.train(feat)
    (secs, cands, model)
  }

  private def run(th: GraLMatch.Thresholds, candidates: Option[DataFrame] = None): Pipeline.Result = {
    val (secs, cands, model) = fixtures
    Pipeline.run(spark, secs, candidates.getOrElse(cands), model,
      RecordSchema.Securities, Serializer.Plain, 128, th)
  }

  private lazy val result = run(GraLMatch.Thresholds(gamma = 25, mu = 5))

  private lazy val prediction = {
    val (secs, cands, model) = fixtures
    Pipeline.predict(spark, secs, cands, model, RecordSchema.Securities, Serializer.Plain, 128)
  }

  private def sorted(g: DataFrame) = g.as[(Long, Long)].collect().sorted.toSeq
  private def groups(r: Pipeline.Result) = sorted(r.groups)

  // a 60-record token-only chain with three id-overlap edges, two records
  // per entity
  private lazy val chain = {
    val idEdges = Set(10L, 30L, 50L)
    val cands = (1L until 60L)
      .map(i => (i, i + 1, if (idEdges(i)) Blocking.IdOverlap else Blocking.TokenOverlap))
      .toDF("src", "dst", "blocking")
    ((1L to 60L).map(i => (i, (i + 1) / 2, s"r$i")).toDF("recordId", "entityId", "name"), cands)
  }

  // Stages 1-2 with a model that matches every candidate pair: no weights,
  // and a bias whose sigmoid is over the 0.5 threshold.
  private def predictAll(records: DataFrame, candidates: DataFrame): Pipeline.Prediction =
    Pipeline.predict(spark, records, candidates, LogisticModel(Array.empty, 10.0),
      RecordSchema(Seq("name" -> false)), Serializer.Plain, 128)

  // same groups and scores; the purity sum may differ in the last bits
  private def assertSame(a: Pipeline.Result, b: Pipeline.Result): Unit = {
    assert(groups(a) == groups(b))
    assert(a.prediction.pairwise == b.prediction.pairwise)
    for ((x, y) <- Seq(a.preCleanup -> b.preCleanup, a.postCleanup -> b.postCleanup)) {
      assert(x.scores == y.scores)
      assert(math.abs(x.clusterPurity - y.clusterPurity) < 1e-12)
    }
  }

  test("pipeline produces candidates and positive predictions") {
    val (_, cands, _) = fixtures
    val nCandidates = cands.select("src", "dst").distinct().count()
    val nPositive = result.prediction.positives.count()
    assert(nCandidates > 0)
    assert(nPositive > 0)
    assert(nPositive <= nCandidates)
  }

  test("pairwise stage finds most true matches (plain scheme sees ids)") {
    val pairwise = result.prediction.pairwise
    assert(pairwise.precision > 0.8, s"precision ${pairwise.precision}")
    assert(pairwise.recall > 0.4, s"recall ${pairwise.recall}")
  }

  test("post-cleanup precision is at least pre-cleanup precision") {
    val pre = result.preCleanup
    assert(result.postCleanup.scores.precision >= pre.scores.precision - 1e-9)
  }

  test("every record is assigned to exactly one group") {
    val (secs, _, _) = fixtures
    val n = secs.count()
    assert(result.groups.count() == n)
    assert(result.groups.select("id").distinct().count() == n)
  }

  test("no final group exceeds mu") {
    val sizes = result.groups.groupBy("group").count().select("count").as[Long].collect()
    assert(sizes.max <= 5, s"max group size ${sizes.max}")
  }

  test("cluster purity is high after cleanup") {
    assert(result.postCleanup.clusterPurity > 0.85,
      s"purity ${result.postCleanup.clusterPurity}")
  }

  test("inference time is measured") {
    assert(result.prediction.inferenceSeconds > 0.0)
  }

  test("stage-2 recall >= stage-1 recall (transitive closure adds matches)") {
    assert(result.preCleanup.scores.recall >= result.prediction.pairwise.recall - 1e-9)
  }

  test("run equals cleanup of predict") {
    assertSame(Pipeline.cleanup(prediction, GraLMatch.Thresholds(25, 5)), result)
  }

  test("one prediction cleaned at two thresholds equals two runs") {
    // (5, 5) cleans this fixture exactly as (25, 5) does; mu = 2 does not
    val loose = Pipeline.cleanup(prediction, GraLMatch.Thresholds(25, 5))
    val tight = Pipeline.cleanup(prediction, GraLMatch.Thresholds(5, 2))
    assert(groups(loose) != groups(tight))
    assertSame(loose, result)
    assertSame(tight, run(GraLMatch.Thresholds(5, 2)))
  }

  test("empty candidates: every record is its own group") {
    val (secs, cands, _) = fixtures
    val r = run(GraLMatch.Thresholds(25, 5), Some(cands.limit(0)))
    val ids = secs.select("recordId").as[Long].collect().sorted.toSeq
    assert(groups(r) == ids.map(i => (i, i)))
    assert(r.postCleanup.scores.tp == 0 && r.postCleanup.scores.fp == 0)
    r.groups.unpersist()
  }

  test("cleanup runs Pre Graph Cleanup on a prediction with a component over 50 records") {
    // pre-cleanup leaves only the chain's id-overlap edges, which changes
    // what GraLMatch sees
    val (records, cands) = chain
    val p = predictAll(records, cands)
    val th = GraLMatch.Thresholds(25, 5)
    val edges = p.positives.select("src", "dst", "blockings")
    val expected = sorted(GraLMatch.cleanup(PreCleanup.keep(edges, p.assign), p.assign, th))
    val r = Pipeline.cleanup(p, th)
    assert(groups(r) == expected)
    r.groups.unpersist()
    assert(sorted(GraLMatch.cleanup(p.positives.select("src", "dst"), p.assign, th)) != expected)
    p.positives.unpersist()
  }

  // Each stage score of `p` cleaned at (25, 5) equals the score of what the
  // pipeline outputs at that stage: the positives, the assignment, the groups.
  private def assertOracleScores(p: Pipeline.Prediction, records: DataFrame): Unit = {
    val r = Pipeline.cleanup(p, GraLMatch.Thresholds(25, 5))
    assert(p.pairwise == Metrics.scorePairs(p.positives, records))
    for ((stage, assignment) <- Seq(r.preCleanup -> p.assign, r.postCleanup -> r.groups)) {
      val (scores, purity) = Metrics.scoreGroups(assignment, records)
      assert(stage.scores == scores)
      assert(math.abs(stage.clusterPurity - purity) < 1e-12)
    }
    r.groups.unpersist()
  }

  test("stage scores equal scorePairs and scoreGroups on the securities fixture") {
    assertOracleScores(prediction, fixtures._1)
  }

  test("stage scores equal scorePairs and scoreGroups on the token-only chain") {
    val (records, cands) = chain
    val p = predictAll(records, cands)
    assertOracleScores(p, records)
    p.positives.unpersist()
  }

  test("stage scores equal scorePairs and scoreGroups with no candidates") {
    val (secs, cands, model) = fixtures
    val p = Pipeline.predict(spark, secs, cands.limit(0), model, RecordSchema.Securities, Serializer.Plain, 128)
    assert(p.pairwise.tp == 0 && p.pairwise.fp == 0 && p.pairwise.fn > 0)
    assertOracleScores(p, secs)
    p.positives.unpersist()
  }

  // 1 to 4 disjoint random pieces of up to 70 records each (so pre-cleanup
  // can act), their candidate pairs with random provenance, and each
  // record's entity among few enough that components mix entities.
  private val labeledGraph: Gen[(Seq[(Long, Long, String)], Seq[(Long, Long)])] = for {
    k      <- Gen.choose(1, 4)
    sizes  <- Gen.listOfN(k, Gen.choose(1, 70))
    pieces <- Gen.sequence[List[Seq[(Long, Long, String)]], Seq[(Long, Long, String)]](sizes.map { n =>
                Gen.choose(0, 2 * n).flatMap(m => Gen.listOfN(m, Gen.zip(
                  Gen.choose(0L, n - 1L), Gen.choose(0L, n - 1L),
                  Gen.oneOf(Blocking.IdOverlap, Blocking.TokenOverlap))))
              })
    labels <- Gen.listOfN(sizes.sum, Gen.choose(0L, sizes.sum / 3L))
  } yield {
    val offsets = sizes.scanLeft(0L)(_ + _)
    val cands = pieces.zip(offsets).flatMap { case (es, o) =>
      es.collect { case (u, v, b) if u != v => (o + math.min(u, v), o + math.max(u, v), b) }
    }
    (cands, (0L until offsets.last).zip(labels))
  }

  test("property: relabeling entities bijectively changes no group and no score") {
    val th = GraLMatch.Thresholds(10, 3)
    checkProp(Prop.forAllNoShrink(labeledGraph, Gen.choose(0L, Long.MaxValue)) { case ((cands, labels), seed) =>
      // a random bijection of the labels onto sparse, large values
      val distinct = labels.map(_._2).distinct
      val image = new scala.util.Random(seed).shuffle(distinct).map(_ * 1000003L + 17L)
      val relabel = distinct.zip(image).toMap
      def cleaned(ls: Seq[(Long, Long)]): Pipeline.Result = {
        val records = ls.map { case (i, e) => (i, e, s"r$i") }.toDF("recordId", "entityId", "name")
        val p = predictAll(records, cands.toDF("src", "dst", "blocking"))
        val r = Pipeline.cleanup(p, th)
        // the entities change what the task reports, never what it cleans
        assert(groups(r) == sorted(GraLMatch.cleanup(p.positives.select("src", "dst", "blockings"), p.assign, th)))
        r
      }
      val (a, b) = (cleaned(labels), cleaned(labels.map { case (i, e) => (i, relabel(e)) }))
      assertSame(a, b)
      for (r <- Seq(a, b)) { r.groups.unpersist(); r.prediction.positives.unpersist() }
      true
    }, minTests = 5)
  }

  test("one run on the fixture starts at most 45 Spark jobs") {
    fixtures
    val jobs = sparkJobs(run(GraLMatch.Thresholds(25, 5)).groups.unpersist())
    info(s"$jobs Spark jobs")
    assert(jobs <= 45, s"$jobs Spark jobs")
  }

  test("a run's Spark actions: stage-1 tallies, truth, components, stage-2/3 tallies, groups") {
    fixtures
    val actions = sparkActions(run(GraLMatch.Thresholds(25, 5)).groups.unpersist())
    assert(actions == Seq("head", "head", "localCheckpoint", "head", "foreachPartition"), actions)
  }

  test("cleanup caches only its groups, and nothing once they are unpersisted") {
    val sc = spark.sparkContext
    val p = prediction
    val before = sc.getPersistentRDDs.keySet
    val r = Pipeline.cleanup(p, GraLMatch.Thresholds(25, 5))
    assert(r.groups.storageLevel != StorageLevel.NONE)
    assert((sc.getPersistentRDDs.keySet -- before).size == 1)
    r.groups.unpersist()
    assert(r.groups.storageLevel == StorageLevel.NONE)
    assert(sc.getPersistentRDDs.keySet.subsetOf(before))
  }

  test("run gives the same groups at 1, 7 and 64 shuffle partitions and in any row order") {
    val (_, cands, _) = fixtures
    def runOn(c: DataFrame) = {
      val r = run(GraLMatch.Thresholds(25, 5), Some(c))
      val g = groups(r)
      r.groups.unpersist()
      g
    }
    val expected = groups(result)
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    try {
      for (n <- Seq(1, 7, 64)) {
        spark.conf.set(key, n.toLong)
        assert(runOn(cands) == expected, s"$n shuffle partitions")
      }
    } finally spark.conf.set(key, saved)
    val reversed = spark.createDataFrame(
      spark.sparkContext.parallelize(cands.collect().reverse.toSeq, 4), cands.schema)
    assert(runOn(reversed) == expected, "reversed candidate rows")
  }
}
