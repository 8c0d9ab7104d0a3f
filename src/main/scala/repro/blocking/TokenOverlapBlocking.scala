package repro.blocking

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Token Overlap blocking (paper §5.3.1 (2)).
  *
  * Considers each record as its token list and selects, per record, the top
  * `n` records with most overlapping tokens across *different* data sources.
  * Implemented as an inverted-index self-join: explode tokens, join on the
  * token, count overlaps per cross-source pair, then keep each record's top
  * `n` partners by overlap (window rank), symmetrically from both sides.
  *
  * Tokens occurring in more than `maxDocFreq` records are dropped from the
  * index (corporate suffixes like "Inc." would otherwise pair everything
  * with everything); moderately shared industry terms stay and are exactly
  * the false-positive bait the paper describes.
  */
object TokenOverlapBlocking {

  /** Lowercased word tokens of a text column (non-alphanumerics split). */
  def tokensOf(textCol: org.apache.spark.sql.Column): org.apache.spark.sql.Column =
    filter(split(lower(textCol), "[^a-z0-9]+"), t => length(t) > lit(1))

  /** `(recordId, source, token)` inverted index over `textColumn`. */
  def tokenIndex(records: DataFrame, textColumn: String, maxDocFreq: Int): DataFrame = {
    val tokens = records
      .select(col("recordId"), col("source"),
        explode(tokensOf(col(textColumn))).as("token"))
      .distinct()
    val rare = tokens
      .groupBy("token")
      .agg(count(lit(1)).as("df"))
      .where(col("df") <= maxDocFreq)
      .select("token")
    tokens.join(rare, "token")
  }

  /** Cross-source overlap counts: `(src, dst, overlap)`, canonical order. */
  def overlapCounts(records: DataFrame, textColumn: String, maxDocFreq: Int): DataFrame = {
    val idx = tokenIndex(records, textColumn, maxDocFreq)
    val a = idx.select(col("recordId").as("aId"), col("source").as("aSrc"), col("token"))
    val b = idx.select(col("recordId").as("bId"), col("source").as("bSrc"), col("token"))
    a.join(b, "token")
      .where(col("aSrc") =!= col("bSrc") && col("aId") < col("bId"))
      .groupBy(col("aId").as("src"), col("bId").as("dst"))
      .agg(count(lit(1)).as("overlap"))
  }

  /** Candidate pairs: each record's top-`n` partners by token overlap. */
  def candidates(records: DataFrame, textColumn: String, topN: Int, maxDocFreq: Int): DataFrame = {
    val counts = overlapCounts(records, textColumn, maxDocFreq)
    // rank each record's full partner list (symmetric view of the canonical
    // pairs); a pair survives if it is within the top n of either endpoint
    // ("the record and the top n records with most overlapping tokens")
    val sym = counts
      .select(col("src").as("rec"), col("dst").as("other"), col("overlap"))
      .union(counts.select(col("dst").as("rec"), col("src").as("other"), col("overlap")))
    val ranked = sym.withColumn(
      "rk", row_number().over(Window.partitionBy("rec").orderBy(desc("overlap"), asc("other"))))
    ranked
      .where(col("rk") <= topN)
      .select(least(col("rec"), col("other")).as("src"),
        greatest(col("rec"), col("other")).as("dst"))
      .distinct()
      .withColumn("blocking", lit(Blocking.TokenOverlap))
  }
}
