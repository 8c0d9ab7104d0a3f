package repro.blocking

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Shared helpers for the blocking stage (paper §5.3.1).
  *
  * Every blocking produces a candidate-pair DataFrame with schema
  * `(src: Long, dst: Long, blocking: String)` where `src < dst`, both
  * records come from *different data sources*, and `blocking` names the
  * producing blocking (the provenance is consumed by the Pre Graph Cleanup,
  * paper §4.2.1, which removes Token Overlap edges in huge components).
  */
object Blocking {

  /** Names used in the `blocking` provenance column. */
  val IdOverlap    = "id_overlap"
  val TokenOverlap = "token_overlap"
  val IssuerMatch  = "issuer_match"

  /** Canonicalizes a pair frame so `src < dst`, dropping self-pairs. */
  def canonicalize(pairs: DataFrame, a: Column, b: Column): DataFrame =
    pairs
      .where(a =!= b)
      .select(least(a, b).as("src"), greatest(a, b).as("dst"))

  /** Unions several blockings' candidates; one row per pair per blocking.
    * Each input must already be distinct and carry its own constant
    * `blocking` value (every blocking here ends in `distinct()` and stamps
    * its name), so the union needs no `distinct()` of its own.
    */
  def combine(blockings: DataFrame*): DataFrame =
    blockings.reduce(_ unionByName _)

  /** Distinct pairs regardless of provenance (the Table-2 candidate count). */
  def distinctPairs(candidates: DataFrame): DataFrame =
    candidates.select("src", "dst").distinct()
}
