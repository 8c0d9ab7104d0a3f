package repro.blocking

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** ID Overlap blocking (paper §5.3.1 (1)).
  *
  * For securities: candidate pairs are records sharing any identifier value
  * (ISIN/CUSIP/VALOR/SEDOL) across different data sources. This is "the
  * benchmark heuristic often used to match these types of financial
  * records"; due to merger/acquisition id pollution its candidates contain
  * both positive and negative pairs.
  *
  * For companies: a pair of company records is a candidate iff any security
  * issued by the first shares an identifier with any security issued by the
  * second (the company relation is traversed via `issuerRecordId`).
  */
object IdOverlapBlocking {

  private val IdColumns = Seq("isin", "cusip", "valor", "sedol")

  /** `(recordId, source, id)` — one row per non-null identifier value.
    * Identifier values are namespaced by column so equal strings in
    * different identifier systems do not collide.
    */
  def explodedIds(securities: DataFrame): DataFrame =
    securities
      .select(col("recordId"), col("source"),
        explode(array(IdColumns.map(c => concat(lit(s"$c:"), col(c))): _*)).as("id"))
      .where(col("id").isNotNull)

  /** Candidate security pairs: same identifier value, different sources. */
  def securityCandidates(securities: DataFrame): DataFrame = {
    val ids = explodedIds(securities)
    val a = ids.select(col("recordId").as("aId"), col("source").as("aSrc"), col("id"))
    val b = ids.select(col("recordId").as("bId"), col("source").as("bSrc"), col("id"))
    val joined = a.join(b, "id").where(col("aSrc") =!= col("bSrc"))
    Blocking
      .canonicalize(joined, col("aId"), col("bId"))
      .distinct()
      .withColumn("blocking", lit(Blocking.IdOverlap))
  }

  /** Candidate company pairs via the identifier overlap of their securities.
    *
    * Securities without an issuer link (`issuerRecordId == -1`) cannot
    * contribute company candidates.
    */
  def companyCandidates(companies: DataFrame, securities: DataFrame): DataFrame = {
    val secPairs = securityCandidates(securities).select("src", "dst")
    val issuer = securities
      .where(col("issuerRecordId") =!= -1L)
      .select(col("recordId").as("secId"), col("issuerRecordId").as("companyId"),
        col("source").as("companySrc"))
    val withA = secPairs.join(issuer.withColumnRenamed("secId", "src")
        .withColumnRenamed("companyId", "aCompany").withColumnRenamed("companySrc", "aSrc"), "src")
    val withB = withA.join(issuer.withColumnRenamed("secId", "dst")
        .withColumnRenamed("companyId", "bCompany").withColumnRenamed("companySrc", "bSrc"), "dst")
    Blocking
      .canonicalize(withB.where(col("aSrc") =!= col("bSrc")), col("aCompany"), col("bCompany"))
      .distinct()
      .withColumn("blocking", lit(Blocking.IdOverlap))
  }
}
