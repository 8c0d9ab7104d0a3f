package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.util.Random

import repro.blocking._
import repro.core.Splits
import repro.datagen.{EmDatasets, GenParams}
import repro.matcher.{LogisticModel, ModelZoo, PairwiseMatcher}
import repro.matcher.PairwiseMatcher.RecordSchema

/** Builds every workload's inputs from the workload seed, through the
  * program's public generator, blocking, split and training functions.
  *
  * The dataset recipe is the one of `repro.exp.Experiments` for Synthetic
  * Companies (test split, DistilBERT (128)-ALL), with the generator seed and
  * the training-pair seed taken from the workload seed instead of the
  * `Experiments.Seed` constant; seed 7 rebuilds the `Experiments` inputs
  * exactly.
  */
object Inputs {

  /** Split seed of `Experiments` (kept fixed: the generator seed already
    * varies the data).
    */
  val SplitSeed = 3L

  /** A dataset ready for `Pipeline.run`. */
  final case class Dataset(
      records: DataFrame,           // pipeline records (test split)
      candidates: DataFrame,        // blocking output, materialized
      schema: RecordSchema,
      model: LogisticModel
  )

  /** Per-step timings of one set-up, seconds. */
  final case class SetupTimes(generate: Double, idOverlap: Double, tokenOverlap: Double, train: Double)

  def nGroups(scale: Double): Int = {
    val n = (6000 * scale).toInt.max(200)
    if (n % 2 == 0) n else n + 1
  }

  private def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Caches and counts a frame, so its work is done here and not later. */
  private def materialize(df: DataFrame): DataFrame = { df.cache().count(); df }

  private val variant = ModelZoo.distilBert128All

  private def fineTune(records: DataFrame, schema: RecordSchema, seed: Long): LogisticModel = {
    val train = records.where(col("split") === Splits.Train)
    val labeled = Splits.labeledPairs(train.select("recordId", "entityId"), seed = seed)
    val feat = PairwiseMatcher.featurize(labeled, records, schema, variant.scheme, variant.tokenBudget)
    PairwiseMatcher.train(feat)._1
  }

  /** Synthetic Companies: ID Overlap + Token Overlap candidates. */
  def companies(spark: SparkSession, scale: Double, seed: Long): (Dataset, SetupTimes) = {
    val ((all, pipeline, secsOfPipeline), tGen) = timed {
      val data = EmDatasets.generate(spark, GenParams.synthetic(nGroups(scale), seed))
      val companies = materialize(Splits.withSplit(data.companies.toDF(), SplitSeed))
      val securities = materialize(data.securities.toDF())
      val pipeline = materialize(companies.where(col("split") === Splits.Test))
      val secs = securities.join(
        pipeline.select(col("recordId").as("issuerRecordId")), Seq("issuerRecordId"), "left_semi")
      (companies, pipeline, secs)
    }
    val (ids, tId) = timed(materialize(IdOverlapBlocking.companyCandidates(pipeline, secsOfPipeline)))
    val (tokens, tTok) = timed(materialize(
      TokenOverlapBlocking.candidates(pipeline, "name", topN = 5, maxDocFreq = 500)))
    val cands = materialize(Blocking.combine(ids, tokens))
    val (model, tTrain) = timed(fineTune(all, RecordSchema.Companies, seed))
    (Dataset(pipeline, cands, RecordSchema.Companies, model),
      SetupTimes(tGen, tId, tTok, tTrain))
  }

  // ----------------------------------------------------------------------
  // cleanup-chains: a generated prediction graph
  // ----------------------------------------------------------------------

  /** A prediction graph with its ground truth.
    *
    * @param edges  undirected edges (src < dst)
    * @param truth  vertex → clique id
    * @param chains chain size → the chain's edges
    */
  final case class Graph(
      edges: Array[(Long, Long)],
      truth: Map[Long, Long],
      chains: Map[Int, Seq[(Long, Long)]]
  )

  /** Clique chains plus small cliques.
    *
    * A chain of n vertices is n/5 cliques of 5 vertices; consecutive cliques
    * are joined by one false bridge edge, and n/10 further false edges each
    * join clique c to clique c + 2 of the chain. One chain is built for every
    * size, then `nSmall` cliques of 2 to 6 vertices. The seed
    * draws the endpoints of the false edges and the small cliques' sizes.
    * Vertex ids ascend along each chain and the false edges stay local, so
    * connected components take the same number of rounds on every seed.
    */
  def cliqueGraph(seed: Long, sizes: Seq[Int], nSmall: Int): Graph = {
    val rng = new Random(seed)
    val cliques = scala.collection.mutable.ArrayBuffer.empty[Int]   // clique sizes
    val chainOf = scala.collection.mutable.ArrayBuffer.empty[(Int, Int, Int)] // (size, first clique, count)
    for (n <- sizes) {
      chainOf += ((n, cliques.size, n / 5))
      cliques ++= Seq.fill(n / 5)(5)
    }
    cliques ++= Seq.fill(nSmall)(2 + rng.nextInt(5))
    val first = cliques.scanLeft(0)(_ + _)      // first vertex index of each clique
    def members(c: Int): Seq[Long] = (first(c) until first(c + 1)).map(i => 1000000L + i)
    def edge(u: Long, v: Long): (Long, Long) = if (u < v) (u, v) else (v, u)

    val cliqueEdges = cliques.indices.map { c =>
      val m = members(c)
      for (i <- m.indices; j <- i + 1 until m.size) yield edge(m(i), m(j))
    }
    val chains = chainOf.map { case (n, c0, k) =>
      val bridges = (c0 until c0 + k - 1).map { c =>
        edge(members(c)(rng.nextInt(5)), members(c + 1)(rng.nextInt(5)))
      }
      val noise = (0 until k / 2).map { _ =>
        val a = c0 + rng.nextInt(k - 2)
        edge(members(a)(rng.nextInt(5)), members(a + 2)(rng.nextInt(5)))
      }
      n -> ((c0 until c0 + k).flatMap(cliqueEdges) ++ bridges ++ noise).distinct
    }
    val chainEdges = chains.flatMap(_._2).toSet
    val small = cliqueEdges.drop(chainOf.map(_._3).sum).flatten
    val truth = cliques.indices.flatMap(c => members(c).map(_ -> c.toLong)).toMap
    Graph((chainEdges.toSeq ++ small).sorted.toArray, truth, chains.toMap)
  }
}
