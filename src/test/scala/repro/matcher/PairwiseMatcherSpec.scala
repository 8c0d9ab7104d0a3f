package repro.matcher

import org.apache.spark.sql.functions._
import repro.SparkSpec
import PairwiseMatcher._

class PairwiseMatcherSpec extends SparkSpec {

  import spark.implicits._

  private lazy val records = Seq(
    (1L, "CrowdStrike Plt.", "Ordinary Share", "US318077556E", null, null, null),
    (2L, "Crowdstrike Holdings", "Common Stock", "US318077556E", null, null, null),
    (3L, "Crowdstreet Holdings", "Common Stock", "US110Q943600", null, null, null)
  ).toDF("recordId", "name", "secType", "isin", "cusip", "valor", "sedol")

  private lazy val pairs = Seq((1L, 2L), (1L, 3L)).toDF("src", "dst")

  private val nFeatures = Featurizer.features(Seq("x"), Seq("y")).length

  test("featurize joins both sides and emits the feature vector") {
    val out = PairwiseMatcher.featurize(
      pairs, records, RecordSchema.Securities, Serializer.Plain, 128)
    assert(out.count() == 2)
    val f = out.where($"src" === 1L && $"dst" === 2L)
      .select("features").as[Seq[Double]].head()
    assert(f.size == nFeatures)
    assert(f(3) > 0.0, "shared isin must be visible under the plain scheme")
  }

  test("featurize preserves extra pair columns") {
    val withProv = pairs.withColumn("blocking", lit("id_overlap"))
    val out = PairwiseMatcher.featurize(
      withProv, records, RecordSchema.Securities, Serializer.Plain, 128)
    assert(out.columns.contains("blocking"))
  }

  test("predict adds prob and pred columns honoring the threshold") {
    val feat = PairwiseMatcher.featurize(
      pairs, records, RecordSchema.Securities, Serializer.Plain, 128)
    val model = LogisticModel(Array.fill(nFeatures)(0.0), 10.0)
    val out = PairwiseMatcher.predict(model, feat)
    assert(out.where($"pred").count() == 2) // bias 10 => always positive
    val low = PairwiseMatcher.predict(LogisticModel(Array.fill(nFeatures)(0.0), -10.0), feat)
    assert(low.where($"pred").count() == 0)
  }

  test("train collects labeled features and learns the id signal") {
    val labeled = Seq((1L, 2L, 1), (1L, 3L, 0)).toDF("src", "dst", "label")
    val feat = PairwiseMatcher.featurize(
      labeled, records, RecordSchema.Securities, Serializer.Plain, 128)
    val (model, n) = PairwiseMatcher.train(feat)
    assert(n == 2)
    val scored = PairwiseMatcher.predict(model, feat)
    val probs = scored.select($"src", $"dst", $"prob").collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(2)).toMap
    assert(probs((1L, 2L)) > probs((1L, 3L)))
  }

  test("ditto scheme features differ from plain on the same pair") {
    val p = PairwiseMatcher.featurize(pairs, records, RecordSchema.Securities, Serializer.Plain, 128)
      .where($"src" === 1L && $"dst" === 2L).select("features").as[Seq[Double]].head()
    val d = PairwiseMatcher.featurize(pairs, records, RecordSchema.Securities, Serializer.Ditto, 128)
      .where($"src" === 1L && $"dst" === 2L).select("features").as[Seq[Double]].head()
    assert(p != d)
    assert(d(3) == 0.0, "ditto id-shredding hides whole-id tokens")
  }

  test("null attribute values are tolerated") {
    val recs = Seq((1L, null: String, "Ordinary Share"), (2L, "Acme", null: String))
      .toDF("recordId", "name", "secType")
      .withColumn("isin", lit(null: String))
      .withColumn("cusip", lit(null: String))
      .withColumn("valor", lit(null: String))
      .withColumn("sedol", lit(null: String))
    val out = PairwiseMatcher.featurize(
      Seq((1L, 2L)).toDF("src", "dst"), recs, RecordSchema.Securities, Serializer.Ditto, 128)
    assert(out.count() == 1)
  }
}
