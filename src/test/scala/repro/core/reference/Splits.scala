package repro.core.reference

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.graph.reference.LocalGraph

/** Reference implementation, kept as the oracle for the training-pair
  * samplers of [[repro.core.Splits]]: the same pairs built by `k` unioned
  * shifted self-joins, `row_number` window caps and a per-entity
  * [[LocalGraph]] connectivity check.
  *
  * Train/validation/test splits and training-pair construction
  * (paper §5.1.3).
  *
  * Records are split 60/20/20 *along ground-truth record groups* so each
  * entity's true matches belong exclusively to one split (prevents pair
  * memorization). Fine-tuning uses all positive pairs of a split plus
  * randomly sampled negatives at a 5:1 negative:positive ratio.
  */
object Splits {

  val Train = 0
  val Val   = 1
  val Test  = 2

  /** Negatives sampled per positive training pair (paper §5.1.3). */
  private val NegRatio = 5

  /** Share of WDC negatives drawn from sibling entities (paper §5.1.4). */
  private val HardShare = 0.8

  /** Deterministic split of an entity id: 0 train / 1 val / 2 test. */
  def splitOf(entityId: Long, seed: Long): Int = {
    val h = scala.util.hashing.MurmurHash3.productHash((entityId, seed))
    val u = ((h & 0x7fffffff).toDouble) / Int.MaxValue
    if (u < 0.6) Train else if (u < 0.8) Val else Test
  }

  /** Adds a `split` column derived from `entityId`. */
  def withSplit(records: DataFrame, seed: Long): DataFrame = {
    val u = udf((e: Long) => splitOf(e, seed))
    records.withColumn("split", u(col("entityId")))
  }

  /** All positive pairs (same entity, canonical order): `(src, dst, label=1)`. */
  def positivePairs(records: DataFrame): DataFrame = {
    val a = records.select(col("recordId").as("src"), col("entityId"))
    val b = records.select(col("recordId").as("dst"), col("entityId"))
    a.join(b, "entityId")
      .where(col("src") < col("dst"))
      .select(col("src"), col("dst"))
      .withColumn("label", lit(1))
  }

  /** `nNeg` deterministic random negative pairs (different entities). */
  def negativePairs(records: DataFrame, nNeg: Long, seed: Long): DataFrame = {
    val base = records.select(col("recordId"), col("entityId"))
    val n = base.count()
    if (n < 2 || nNeg <= 0) return base.sparkSession.emptyDataFrame
      .select(lit(0L).as("src"), lit(0L).as("dst"), lit(0).as("label")).limit(0)
    val idx = base.withColumn(
      "r", row_number().over(Window.orderBy(hash(col("recordId"), lit(seed)))))
    val k = math.min(n - 1, nNeg / math.max(1, n) + 3).toInt
    val shifted = (1 to k).map { off =>
      val right = idx.select(
        ((col("r") + lit(off) - 1) % lit(n) + 1).as("r"),
        col("recordId").as("otherId"), col("entityId").as("otherEntity"))
      idx.join(right, "r")
        .where(col("entityId") =!= col("otherEntity"))
        .select(least(col("recordId"), col("otherId")).as("src"),
          greatest(col("recordId"), col("otherId")).as("dst"))
    }.reduce(_ union _).distinct()
    shifted
      .withColumn("rk", row_number().over(Window.orderBy(hash(col("src"), col("dst"), lit(seed)))))
      .where(col("rk") <= nNeg)
      .select(col("src"), col("dst"))
      .withColumn("label", lit(0))
  }

  /** Caches and counts the positive pairs `pos`, then adds
    * `negatives(NegRatio × that count)`.
    */
  private def withNegatives(pos: DataFrame)(negatives: Long => DataFrame): DataFrame = {
    val cached = pos.cache()
    cached.unionByName(negatives(NegRatio * cached.count()))
  }

  /** Positive + 5:1 negative labeled pairs for one split's records. */
  def labeledPairs(records: DataFrame, seed: Long): DataFrame =
    withNegatives(positivePairs(records))(negativePairs(records, _, seed))

  /** Corner-case negatives (WDC Products, paper §5.1.4: "80% corner
    * cases"): most negatives are drawn from *sibling entities of the same
    * product family* — near-identical offers differing in a model-number
    * token — with the remainder sampled randomly.
    */
  def cornerNegativePairs(
      records: DataFrame,
      nNeg: Long,
      seed: Long,
      familyExpr: org.apache.spark.sql.Column
  ): DataFrame = {
    val base = records.select(col("recordId"), col("entityId"), familyExpr.as("family"))
    val a = base.select(col("recordId").as("src"), col("entityId").as("eA"), col("family"))
    val b = base.select(col("recordId").as("dst"), col("entityId").as("eB"), col("family"))
    val hardAll = a.join(b, "family")
      .where(col("eA") =!= col("eB") && col("src") < col("dst"))
      .select("src", "dst").distinct()
    val nHard = (nNeg * HardShare).toLong
    val hard = hardAll
      .withColumn("rk", row_number().over(Window.orderBy(hash(col("src"), col("dst"), lit(seed)))))
      .where(col("rk") <= nHard)
      .select("src", "dst")
    val hardTaken = hard.count()
    val rand = negativePairs(records, nNeg - hardTaken, seed + 1)
      .select("src", "dst")
      .join(hard, Seq("src", "dst"), "left_anti")
    hard.unionByName(rand).withColumn("label", lit(0))
  }

  /** Positive + 5:1 corner-case-negative labeled pairs (WDC Products). */
  def cornerLabeledPairs(
      records: DataFrame,
      familyExpr: org.apache.spark.sql.Column,
      seed: Long
  ): DataFrame =
    withNegatives(positivePairs(records))(cornerNegativePairs(records, _, seed, familyExpr))

  /** Entities whose records can *all* be matched via identifier overlaps:
    * the identifier-overlap graph restricted to the entity's records is
    * connected. Acquisition-affected groups fail this (their pre- and
    * post-event identifier cliques are disjoint), so this single criterion
    * implements the paper's 15K filter ("discard those whose records have
    * been involved in an acquisition or cannot all be matched via
    * identifier overlaps"). Returns `(entityId)` rows of clean entities.
    */
  def idConnectedEntities(
      spark: SparkSession, records: DataFrame, idPairs: DataFrame
  ): DataFrame = {
    import spark.implicits._
    val ent = records.select(col("recordId"), col("entityId"))
    val intra = idPairs
      .join(ent.withColumnRenamed("recordId", "src").withColumnRenamed("entityId", "eA"), "src")
      .join(ent.withColumnRenamed("recordId", "dst").withColumnRenamed("entityId", "eB"), "dst")
      .where(col("eA") === col("eB"))
      .select(col("eA").as("entityId"), col("src"), col("dst"))
    val members = ent.select(col("entityId"), col("recordId")).as[(Long, Long)]
    val intraDs = intra.as[(Long, Long, Long)]

    members
      .groupByKey(_._1)
      .cogroup(intraDs.groupByKey(_._1)) { (entity, ms, es) =>
        val recs  = ms.map(_._2).toSeq
        val edges = es.map(e => (e._2, e._3)).toSeq
        val g = LocalGraph.fromEdges(edges, extraVertices = recs)
        if (g.isConnected) Iterator.single(entity) else Iterator.empty
      }
      .toDF("entityId")
  }

  /** The 15K training-pair policy: positives restricted to clean entities,
    * deterministically capped, plus 5:1 negatives.
    */
  def cleanLabeledPairs(
      spark: SparkSession,
      records: DataFrame,
      idPairs: DataFrame,
      maxPositives: Int,
      seed: Long
  ): DataFrame = {
    val clean = idConnectedEntities(spark, records, idPairs)
    val pos = positivePairs(records.join(clean, "entityId"))
      .withColumn("rk", row_number().over(Window.orderBy(col("src"), col("dst"))))
      .where(col("rk") <= maxPositives)
      .select("src", "dst", "label")
    withNegatives(pos)(negativePairs(records, _, seed))
  }
}
