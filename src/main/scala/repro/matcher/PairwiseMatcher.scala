package repro.matcher

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The pairwise matching step (paper §4.1 / Fig. 1 step 2): featurize
  * candidate record pairs through a model variant's serialization and score
  * them with the trained classifier, all as DataFrame dataflow (joins + a
  * scoring UDF).
  */
object PairwiseMatcher {

  /** Which columns of a record DataFrame are fed to the model, in order,
    * and whether each holds an identifier code.
    */
  final case class RecordSchema(fields: Seq[(String, Boolean)])

  object RecordSchema {
    val Companies: RecordSchema = RecordSchema(Seq(
      "name" -> false, "city" -> false, "region" -> false,
      "country" -> false, "description" -> false))
    val Securities: RecordSchema = RecordSchema(Seq(
      "name" -> false, "secType" -> false, "isin" -> true,
      "cusip" -> true, "valor" -> true, "sedol" -> true))
    val Products: RecordSchema = RecordSchema(Seq(
      "title" -> false, "brand" -> false, "description" -> false))
  }

  /** Joins the two records of every pair and computes the model-view
    * features. Input pairs need `src`/`dst`; extra columns are preserved.
    * Output adds a `features` array column and, when the records have an
    * `entityId`, each side's entity as `eSrc`/`eDst` (the features never
    * read it).
    */
  def featurize(
      pairs: DataFrame,
      records: DataFrame,
      schema: RecordSchema,
      scheme: Serializer.Scheme,
      tokenBudget: Int
  ): DataFrame = {
    val cols    = schema.fields.map(_._1)
    val isIdArr = schema.fields.map(_._2).toArray
    val colArr  = cols.toArray

    val attrs = array(cols.map(c => col(c).cast("string")): _*)
    def side(id: String, attrsCol: String, entityCol: String) = records.select(
      Seq(col("recordId").as(id), attrs.as(attrsCol)) ++
        (if (records.columns.contains("entityId")) Seq(col("entityId").as(entityCol)) else Nil): _*)
    val recA = side("src", "attrsA", "eSrc")
    val recB = side("dst", "attrsB", "eDst")

    val featUdf = udf { (a: Seq[String], b: Seq[String]) =>
      def fields(vals: Seq[String]): Seq[Serializer.Field] =
        colArr.indices.map(i => Serializer.Field(colArr(i), vals(i), isIdArr(i)))
      Featurizer.featurizePair(fields(a), fields(b), scheme, tokenBudget)
    }

    pairs
      .join(recA, "src")
      .join(recB, "dst")
      .withColumn("features", featUdf(col("attrsA"), col("attrsB")))
      .drop("attrsA", "attrsB")
  }

  /** A pair whose score reaches this is predicted a match. */
  private val Threshold = 0.5

  /** Scores featurized pairs; adds `prob` and boolean `pred`. */
  def predict(model: LogisticModel, featurized: DataFrame): DataFrame = {
    val scoreUdf = udf((f: Seq[Double]) => model.score(f.toArray))
    featurized
      .withColumn("prob", scoreUdf(col("features")))
      .withColumn("pred", col("prob") >= Threshold)
  }

  /** Collects a labeled featurized frame (`features`, `label`) and trains
    * the classifier on the driver. Returns the model and the pair count.
    */
  def train(labeledFeaturized: DataFrame): (LogisticModel, Long) = {
    val rows = labeledFeaturized
      .select(col("features"), col("label").cast("int"))
      .collect()
    val feats  = rows.map(_.getSeq[Double](0).toArray)
    val labels = rows.map(_.getInt(1))
    (LogisticModel.train(feats, labels), rows.length.toLong)
  }
}
