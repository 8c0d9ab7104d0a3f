package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.blocking.{Blocking, IdOverlapBlocking, TokenOverlapBlocking}
import repro.datagen.{EmDatasets, GenParams}
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
    val labeled = Splits.labeledPairs(train.select("recordId", "entityId"))
    val feat = PairwiseMatcher.featurize(
      labeled, secs, RecordSchema.Securities, Serializer.Plain, 128)
    val (model, _) = PairwiseMatcher.train(feat)
    (secs, cands, model)
  }

  private lazy val result = {
    val (secs, cands, model) = fixtures
    Pipeline.run(spark, secs, cands, model, RecordSchema.Securities,
      Serializer.Plain, 128, GraLMatch.Thresholds(gamma = 25, mu = 5))
  }

  test("pipeline produces candidates and positive predictions") {
    assert(result.nCandidates > 0)
    assert(result.nPositive > 0)
    assert(result.nPositive <= result.nCandidates)
  }

  test("pairwise stage finds most true matches (plain scheme sees ids)") {
    assert(result.pairwise.precision > 0.8, s"precision ${result.pairwise.precision}")
    assert(result.pairwise.recall > 0.4, s"recall ${result.pairwise.recall}")
  }

  test("post-cleanup precision is at least pre-cleanup precision") {
    assert(result.postCleanup.scores.precision >= result.preCleanup.scores.precision - 1e-9)
  }

  test("every record is assigned to exactly one group") {
    val (secs, _, _) = fixtures
    val n = secs.count()
    assert(result.groups.count() == n)
    assert(result.groups.select("id").distinct().count() == n)
  }

  test("no final group exceeds mu... unless it was protected by gamma split") {
    val sizes = result.groups.groupBy("group").count().select("count").as[Long].collect()
    assert(sizes.max <= 25, s"max group size ${sizes.max}")
  }

  test("cluster purity is high after cleanup") {
    assert(result.postCleanup.clusterPurity > 0.85,
      s"purity ${result.postCleanup.clusterPurity}")
  }

  test("inference time is measured") {
    assert(result.inferenceSeconds > 0.0)
  }

  test("stage-2 recall >= stage-1 recall (transitive closure adds matches)") {
    assert(result.preCleanup.scores.recall >= result.pairwise.recall - 1e-9)
  }
}
