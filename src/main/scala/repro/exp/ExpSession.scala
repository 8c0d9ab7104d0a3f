package repro.exp

import java.io.PrintStream
import java.nio.charset.StandardCharsets.UTF_8

import org.apache.spark.sql.SparkSession
import scala.collection.mutable

import repro.core.GraLMatch.Thresholds
import repro.matcher.LogisticModel
import repro.matcher.ModelZoo.{distilBert128All, ModelVariant}

/** One experiment session: builds each dataset once, trains each
  * (dataset, variant) once, and renders the paper-vs-measured text for
  * every reproduced table. Shared by the bench suites and the job
  * entrypoints.
  */
final class ExpSession(val spark: SparkSession) {

  import Experiments._

  lazy val realCompaniesDs: Built =
    emDataset(spark, realParams, synthetic = false, securities = false)
  lazy val syntheticCompaniesDs: Built =
    emDataset(spark, syntheticParams, synthetic = true, securities = false)
  lazy val realSecuritiesDs: Built =
    emDataset(spark, realParams, synthetic = false, securities = true)
  lazy val syntheticSecuritiesDs: Built =
    emDataset(spark, syntheticParams, synthetic = true, securities = true)
  lazy val wdcProductsDs: Built = wdcProducts(spark, wdcParams)

  def allDatasets: Seq[Built] = Seq(
    realCompaniesDs, syntheticCompaniesDs,
    realSecuritiesDs, syntheticSecuritiesDs, wdcProductsDs)

  private val trainedCache =
    mutable.Map.empty[(String, String), (LogisticModel, FineTuneRow)]

  /** Fine-tunes (or reuses) a variant on a dataset. */
  def trained(ds: Built, variant: ModelVariant): (LogisticModel, FineTuneRow) =
    trainedCache.getOrElseUpdate((ds.name, variant.name), fineTune(ds, variant))

  // ----------------------------------------------------------------------
  // table rendering
  // ----------------------------------------------------------------------

  def table1Text(): String = {
    val sb = new StringBuilder
    sb ++= "Table 1 — dataset statistics (paper | ours at REPRO_SCALE=" + scale + ")\n"
    sb ++= f"${"dataset"}%-22s ${"srcs"}%12s ${"entities"}%16s ${"records"}%16s ${"matches"}%16s ${"avg m/e"}%14s ${"desc%"}%14s\n"
    val rows = Seq(
      (realCompaniesDs, true), (syntheticCompaniesDs, true),
      (realSecuritiesDs, false), (syntheticSecuritiesDs, false))
    for ((ds, withDesc) <- rows) {
      val s = stats(ds.records, ds.name, withDesc)
      val p = PaperNumbers.table1(ds.name)
      val descOurs = s.descShare.map(d => f"${d * 100}%.0f%%").getOrElse("-")
      sb ++= f"${s.name}%-22s ${p.nSources + "|" + s.nSources}%12s ${p.nEntities + "|" + s.nEntities}%16s " +
        f"${p.nRecords + "|" + s.nRecords}%16s ${p.nMatches + "|" + s.nMatches}%16s " +
        f"${p.avgMatches + "|" + f"${s.avgMatchesPerEntity}%.1f"}%14s ${p.descShare + "|" + descOurs}%14s\n"
    }
    sb.result()
  }

  def table2Text(): String = {
    val sb = new StringBuilder
    sb ++= "Table 2 — blockings, records, candidate pairs (paper | ours)\n"
    sb ++= f"${"dataset"}%-22s ${"blockings"}%-28s ${"records"}%16s ${"candidates"}%16s ${"gamma"}%6s ${"mu"}%4s\n"
    for (ds <- allDatasets) {
      val p = PaperNumbers.table2(ds.name)
      val nRec = ds.pipelineRecords.count()
      val nCand = repro.blocking.Blocking.distinctPairs(ds.candidates).count()
      sb ++= f"${ds.name}%-22s ${p.blockings}%-28s ${p.nRecords + "|" + nRec}%16s " +
        f"${p.nCandidates + "|" + nCand}%16s ${p.gamma + "|" + ds.gamma}%6s ${p.mu + "|" + ds.mu}%4s\n"
    }
    sb.result()
  }

  def table3Rows(): Seq[FineTuneRow] =
    for (ds <- allDatasets; v <- ds.variants) yield trained(ds, v)._2

  def table3Text(): String = {
    val sb = new StringBuilder
    sb ++= "Table 3 — fine-tuning scores on test pairs (paper | ours; % and wall time)\n"
    sb ++= f"${"dataset"}%-22s ${"model"}%-22s ${"P paper|ours"}%16s ${"R paper|ours"}%16s ${"F1 paper|ours"}%16s ${"time paper|ours"}%22s\n"
    for (r <- table3Rows()) {
      val p = PaperNumbers.table3((r.dataset, r.model))
      sb ++= f"${r.dataset}%-22s ${r.model}%-22s " +
        f"${f"${p.p}%.2f|${r.precision * 100}%.2f"}%16s " +
        f"${f"${p.r}%.2f|${r.recall * 100}%.2f"}%16s " +
        f"${f"${p.f1}%.2f|${r.f1 * 100}%.2f"}%16s " +
        f"${p.trainTime + "|" + f"${r.trainSeconds}%.1f s"}%22s\n"
    }
    sb.result()
  }

  /** One prediction per (dataset, variant), cleaned at the dataset's γ/μ
    * and, for Synthetic Companies DistilBERT (128)-ALL, at §5.2.1's variants.
    */
  def table4Rows(): Seq[GroupMatchRow] =
    for (ds <- allDatasets; v <- ds.variants;
         row <- groupMatch(spark, ds, v, trained(ds, v)._1, thresholdRows(ds, v))) yield row

  private def thresholdRows(ds: Built, v: ModelVariant): Seq[(String, Thresholds)] =
    (v.name -> Thresholds(ds.gamma, ds.mu)) +: (
      if ((ds ne syntheticCompaniesDs) || v != distilBert128All) Nil
      else Seq(
        "DistilBERT (128)-ALL-MEC"         -> Thresholds(ds.mu, ds.mu),
        "DistilBERT (128)-ALL (1/2 gamma)" -> Thresholds(ds.gamma / 2, ds.mu),
        "DistilBERT (128)-ALL-BC"          -> Thresholds(Int.MaxValue / 2, ds.mu)))

  def table4Text(rows: Seq[GroupMatchRow]): String = {
    val sb = new StringBuilder
    sb ++= "Table 4 — entity group matching with Blocking and GraLMatch (paper | ours, %)\n"
    sb ++= f"${"dataset"}%-22s ${"model"}%-32s ${"stage"}%-9s ${"P"}%14s ${"R"}%14s ${"F1"}%14s ${"ClPur"}%12s ${"time"}%18s\n"
    for (r <- rows) {
      val p = PaperNumbers.table4((r.dataset, r.model))
      def line(stage: String, pp: Double, pr: Double, pf: Double, pPur: Option[Double],
               oP: Double, oR: Double, oF: Double, oPur: Option[Double], time: String = "") = {
        val pur = (pPur, oPur) match {
          case (Some(a), Some(b)) => f"$a%.2f|${b}%.2f"
          case _                  => ""
        }
        sb ++= f"${r.dataset}%-22s ${r.model}%-32s ${stage}%-9s " +
          f"${f"$pp%.2f|${oP * 100}%.2f"}%14s ${f"$pr%.2f|${oR * 100}%.2f"}%14s " +
          f"${f"$pf%.2f|${oF * 100}%.2f"}%14s ${pur}%12s ${time}%18s\n"
      }
      line("pairwise", p.pairP, p.pairR, p.pairF1, None,
        r.pairwise.precision, r.pairwise.recall, r.pairwise.f1, None,
        s"${p.inference}|${f"${r.inferenceSeconds}%.1f s"}")
      line("pre",  p.preP, p.preR, p.preF1, Some(p.prePur),
        r.pre.scores.precision, r.pre.scores.recall, r.pre.scores.f1, Some(r.pre.clusterPurity))
      line("post", p.postP, p.postR, p.postF1, Some(p.postPur),
        r.post.scores.precision, r.post.scores.recall, r.post.scores.f1, Some(r.post.clusterPurity))
    }
    sb.result()
  }
}

object ExpSession {

  /** Prints a rendered table to stdout as UTF-8, whatever the platform charset. */
  def printTable(text: String): Unit = new PrintStream(System.out, true, UTF_8).println(text)

  /** The one SparkSession builder, shared by the tests, the bench suites
    * and the job entry points: master `SPARK_MASTER` (default
    * `local[*]`), `SPARK_SHUFFLE_PARTITIONS` shuffle partitions (default
    * 64) and WARN logging. Broadcast joins are disabled, so the joins
    * exercise the shuffle path even at test scale.
    */
  def sparkSession(): SparkSession = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("gralmatch-repro")
      .config("spark.sql.shuffle.partitions",
        sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // keep test/bench output readable; bump to INFO when debugging
    spark.sparkContext.setLogLevel("WARN")
    spark
  }
}
