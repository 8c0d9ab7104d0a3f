package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.blocking.Blocking
import repro.core.{GraLMatch, Metrics, Pipeline, PreCleanup}
import repro.graph.{Betweenness, ConnectedComponents, LocalGraph, MinCut}
import repro.matcher.{ModelZoo, PairwiseMatcher}

/** Group quality of one op's final groups. */
final case class Quality(scores: Metrics.PairScores, purity: Double)

/** What one op hands to the checks. */
final case class OpOutput(assign: Seq[(Long, Long)], quality: Option[Quality])

/** A workload after set-up: its timed op and the references its checks
  * need.
  */
trait Prepared {
  /** Every input id. */
  def ids: Set[Long]

  /** id → stage-2 component: the transitive closure of the raw
    * predictions, computed locally without the program's CC.
    */
  def stage2: Map[Long, Long]

  /** Bound on every final group's size, where the workload guarantees one. */
  def maxGroupSize: Option[Int]

  /** The timed operation. Returns its wall time and its output. */
  def op(): (Double, OpOutput)

  /** Distinct blocking candidates and the share of them that are true
    * matches; zeros where the workload has no blocking.
    */
  def candidateStats: (Double, Double)

  /** Quality of an op's groups when the op itself does not report it. */
  def score(assign: Seq[(Long, Long)]): Quality

  /** The op again, through the same public calls, with a span around each
    * layer call and the data materialized after each span.
    */
  def traced(t: Tracer): Seq[(Long, Long)]
}

object Workloads {

  val Thresholds: GraLMatch.Thresholds = GraLMatch.Thresholds(gamma = 25, mu = 5)

  /** Synthetic dataset scale (`REPRO_SCALE` of `Experiments`). */
  val Scale = 0.05

  /** cleanup-chains graph: one chain per size plus small cliques. */
  val ChainSizes: Seq[Int] = Seq(50, 100, 150, 250)
  val SmallCliques = 3000

  /** A workload's set-up: returns the prepared op and the set-up's
    * per-layer times, keyed by per-layer metric name.
    */
  def setup(spark: SparkSession, workload: String, seed: Long): (Prepared, Map[String, Double]) =
    workload match {
      case "synth-companies" =>
        val (ds, t) = Inputs.companies(spark, Scale, seed)
        (new Synth(spark, ds), times(t))
      case "cleanup-chains" =>
        val t0 = System.nanoTime()
        val g = Inputs.cliqueGraph(seed, ChainSizes, SmallCliques)
        val p = new Chains(spark, g)
        (p, Map("datagen.generate_s" -> (System.nanoTime() - t0) / 1e9))
      case other => throw new IllegalArgumentException(s"unknown workload $other")
    }

  val Names: Seq[String] = Seq("synth-companies", "cleanup-chains")

  /** Timed ops per run. One `synth-companies` op costs about as much as its
    * two set-ups; `cleanup-chains` ops are cheap enough to time two.
    */
  def opsPerRun(workload: String): Int = if (workload == "cleanup-chains") 2 else 1

  private def times(t: Inputs.SetupTimes): Map[String, Double] = Map(
    "datagen.generate_s" -> t.generate,
    "blocking.id_overlap_s" -> t.idOverlap,
    "blocking.token_overlap_s" -> t.tokenOverlap,
    "matcher.train_s" -> t.train)

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def pairsOf(df: DataFrame): Seq[(Long, Long)] = {
    import df.sparkSession.implicits._
    df.select(col("src").cast("long"), col("dst").cast("long")).as[(Long, Long)].collect().toSeq
  }

  private def assignOf(df: DataFrame, groupCol: String): Seq[(Long, Long)] = {
    import df.sparkSession.implicits._
    df.select(col("id").cast("long"), col(groupCol).cast("long")).as[(Long, Long)].collect().toSeq
  }

  /** Removed edges and the share of them whose endpoints are different
    * entities.
    */
  private def removal(before: Seq[(Long, Long)], after: Seq[(Long, Long)],
                      truth: Map[Long, Long]): (Int, Double) = {
    val removed = before.toSet -- after
    val falseOnes = removed.count { case (a, b) => truth(a) != truth(b) }
    (removed.size, if (removed.isEmpty) 0.0 else falseOnes.toDouble / removed.size)
  }

  /** Edges whose endpoints ended in the same group. */
  private def intraGroupEdges(edges: Seq[(Long, Long)], assign: Seq[(Long, Long)]): Seq[(Long, Long)] = {
    val g = assign.toMap
    edges.filter { case (a, b) => g(a) == g(b) }
  }

  // ----------------------------------------------------------------------

  /** synth-companies: `Pipeline.run` on a dataset. */
  final class Synth(spark: SparkSession, ds: Inputs.Dataset) extends Prepared {
    import spark.implicits._
    private val variant = ModelZoo.distilBert128All

    // references for the checks, built after the first op, outside set-up
    private lazy val truth: Map[Long, Long] =
      ds.records.select(col("recordId"), col("entityId")).as[(Long, Long)].collect().toMap

    lazy val ids: Set[Long] = truth.keySet

    private lazy val positives: Seq[(Long, Long)] = pairsOf(
      PairwiseMatcher.predict(ds.model, PairwiseMatcher.featurize(
        Blocking.distinctPairs(ds.candidates), ds.records, ds.schema, variant.scheme, variant.tokenBudget))
        .where(col("pred")))

    lazy val stage2: Map[Long, Long] = Checks.components(ids, positives)

    val maxGroupSize: Option[Int] = None

    lazy val candidateStats: (Double, Double) = {
      val cands = pairsOf(Blocking.distinctPairs(ds.candidates))
      val trueOnes = cands.count { case (a, b) => truth(a) == truth(b) }
      (cands.size.toDouble, trueOnes.toDouble / cands.size.max(1))
    }

    def op(): (Double, OpOutput) = {
      val t0 = System.nanoTime()
      val res = Pipeline.run(spark, ds.records, ds.candidates, ds.model, ds.schema,
        variant.scheme, variant.tokenBudget, Thresholds)
      val s = seconds(t0)
      (s, OpOutput(assignOf(res.groups, "group"),
        Some(Quality(res.postCleanup.scores, res.postCleanup.clusterPurity))))
    }

    def score(assign: Seq[(Long, Long)]): Quality = {
      val (s, p) = Metrics.scoreGroups(assign.toDF("id", "component"), ds.records)
      Quality(s, p)
    }

    def traced(t: Tracer): Seq[(Long, Long)] = {
      val records = ds.records
      val pairs = t.span("core.pairs") {
        val p = ds.candidates.groupBy("src", "dst")
          .agg(collect_set(col("blocking")).as("blockings")).cache()
        t.count("matcher.pairs_scored", p.count().toDouble)
        p
      }
      val positives = t.span("matcher.score") {
        val featurized = PairwiseMatcher.featurize(
          pairs, records, ds.schema, variant.scheme, variant.tokenBudget)
        val p = PairwiseMatcher.predict(ds.model, featurized)
          .where(col("pred")).select(col("src"), col("dst"), col("blockings")).cache()
        p.count()
        p
      }
      val posEdges = pairsOf(positives)
      t.count("matcher.positive_ratio", posEdges.size / t.value("matcher.pairs_scored"))
      t.span("core.metrics")(Metrics.scorePairs(positives, records))

      val allIds = records.select(col("recordId").as("id"))
      val preAssign = t.span("graph.cc") {
        val a = ConnectedComponents.run(spark, positives.select("src", "dst"), Some(allIds)).cache()
        a.count()
        a
      }
      t.count("graph.max_component", Checks.maxGroup(assignOf(preAssign, "component").map(_._2)))
      t.span("core.metrics")(Metrics.scoreGroups(preAssign, records))

      val kept = t.span("core.precleanup") {
        val k = PreCleanup.run(spark, positives).cache()
        k.count()
        k
      }
      val keptEdges = pairsOf(kept)
      val (nPre, precPre) = removal(posEdges, keptEdges, truth)
      t.count("core.precleanup_removed", nPre)
      t.count("core.precleanup_removal_precision", precPre)

      val groups = t.span("core.gralmatch") {
        val g = GraLMatch.run(spark, kept.select("src", "dst"), Thresholds, Some(allIds))
          .withColumnRenamed("group", "component").cache()
        g.count()
        g
      }
      val assign = assignOf(groups, "component")
      val (nPost, precPost) = removal(keptEdges, intraGroupEdges(keptEdges, assign), truth)
      t.count("core.gralmatch_removed", nPost)
      t.count("core.gralmatch_removal_precision", precPost)
      t.count("core.gralmatch_max_component_in",
        Checks.maxGroup(Checks.components(ids, keptEdges).values))
      t.span("core.metrics")(Metrics.scoreGroups(groups, records))
      assign
    }
  }

  // ----------------------------------------------------------------------

  /** cleanup-chains: `GraLMatch.run` on a generated prediction graph. */
  final class Chains(spark: SparkSession, g: Inputs.Graph) extends Prepared {
    import spark.implicits._

    private val edges: DataFrame = { val e = g.edges.toSeq.toDF("src", "dst").cache(); e.count(); e }
    private val vertices: DataFrame = {
      val v = g.truth.keys.toSeq.toDF("id").cache(); v.count(); v
    }
    private val records: DataFrame = {
      val r = g.truth.toSeq.toDF("recordId", "entityId").cache(); r.count(); r
    }

    val ids: Set[Long] = g.truth.keySet
    lazy val stage2: Map[Long, Long] = Checks.components(ids, g.edges)
    val maxGroupSize: Option[Int] = Some(Thresholds.mu)
    val candidateStats: (Double, Double) = (0.0, 0.0)

    def op(): (Double, OpOutput) = {
      val t0 = System.nanoTime()
      val assign = assignOf(GraLMatch.run(spark, edges, Thresholds, Some(vertices)), "group")
      (seconds(t0), OpOutput(assign, None))
    }

    def score(assign: Seq[(Long, Long)]): Quality = {
      val (s, p) = Metrics.scoreGroups(assign.toDF("id", "component"), records)
      Quality(s, p)
    }

    def traced(t: Tracer): Seq[(Long, Long)] = {
      val pre = t.span("graph.cc") {
        val a = ConnectedComponents.run(spark, edges, Some(vertices)).cache()
        a.count()
        a
      }
      t.count("graph.max_component", Checks.maxGroup(assignOf(pre, "component").map(_._2)))
      t.count("core.gralmatch_max_component_in", t.value("graph.max_component"))
      val assign = t.span("core.gralmatch") {
        assignOf(GraLMatch.run(spark, edges, Thresholds, Some(vertices)), "group")
      }
      val edgeSeq = g.edges.toSeq
      val (n, prec) = removal(edgeSeq, intraGroupEdges(edgeSeq, assign), g.truth)
      t.count("core.gralmatch_removed", n)
      t.count("core.gralmatch_removal_precision", prec)
      t.span("core.metrics")(score(assign))
      assign
    }
  }

  // ----------------------------------------------------------------------

  /** Single-threaded calls into the per-component kernels, on the chains
    * of the cleanup-chains graph for `seed`.
    */
  def kernelCalls(t: Tracer, seed: Long): Unit = {
    val g = Inputs.cliqueGraph(seed, ChainSizes, SmallCliques)
    for (n <- ChainSizes)
      t.span(s"graph.cleanup_component.n$n")(GraLMatch.cleanupComponent(g.chains(n), Thresholds))
    val largest = LocalGraph.fromEdges(g.chains(ChainSizes.max))
    t.span(s"graph.mincut_call.n${ChainSizes.max}")(MinCut.minimumEdgeCut(largest))
    t.span(s"graph.betweenness_call.n${ChainSizes.max}")(Betweenness.maxBetweennessEdge(largest))
  }
}
