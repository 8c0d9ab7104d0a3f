package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.blocking.{Blocking, IdOverlapBlocking, TokenOverlapBlocking}
import repro.datagen.{EmDatasets, GenParams}
import repro.graph.ConnectedComponents
import repro.matcher.{PairwiseMatcher, Serializer}
import repro.matcher.PairwiseMatcher.RecordSchema

class PipelineSpec extends SparkSpec {

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

  private def groups(r: Pipeline.Result) = r.groups.as[(Long, Long)].collect().sorted.toSeq

  // same groups and scores; the purity sum may differ in the last bits
  private def assertSame(a: Pipeline.Result, b: Pipeline.Result): Unit = {
    assert(groups(a) == groups(b))
    val (p, q) = (a.prediction, b.prediction)
    assert(p.pairwise == q.pairwise)
    for ((x, y) <- Seq(p.preCleanup -> q.preCleanup, a.postCleanup -> b.postCleanup)) {
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
    val pre = result.prediction.preCleanup
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
    val p = result.prediction
    assert(p.preCleanup.scores.recall >= p.pairwise.recall - 1e-9)
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
    // a 60-record token-only chain with three id-overlap edges: pre-cleanup
    // leaves only those, which changes what GraLMatch sees
    val token = Seq(Blocking.TokenOverlap)
    val idEdges = Set(10L, 30L, 50L)
    val positives = (1L until 60L)
      .map(i => (i, i + 1, if (idEdges(i)) Seq(Blocking.IdOverlap) else token))
      .toDF("src", "dst", "blockings")
    val records = (1L to 60L).map(i => (i, (i + 1) / 2)).toDF("recordId", "entityId")
    val allIds = records.select($"recordId".as("id"))
    val assign = ConnectedComponents.run(spark, positives.select("src", "dst"), Some(allIds))
    val pairwise = Metrics.scorePairs(positives, records)
    val (pre, prePurity) = Metrics.scoreGroups(assign, records)
    val p = Pipeline.Prediction(records, pairwise, Pipeline.StageScores(pre, prePurity),
      0.0, positives, assign)

    val th = GraLMatch.Thresholds(25, 5)
    def sorted(g: DataFrame) = g.as[(Long, Long)].collect().sorted.toSeq
    val expected = sorted(GraLMatch.cleanup(PreCleanup.keep(p.positives, p.assign), p.assign, th))
    val r = Pipeline.cleanup(p, th)
    assert(groups(r) == expected)
    r.groups.unpersist()
    assert(sorted(GraLMatch.cleanup(p.positives.select("src", "dst"), p.assign, th)) != expected)
  }

  test("one run on the fixture starts at most 53 Spark jobs") {
    fixtures
    val jobs = sparkJobs(run(GraLMatch.Thresholds(25, 5)).groups.unpersist())
    info(s"$jobs Spark jobs")
    assert(jobs <= 53, s"$jobs Spark jobs")
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
