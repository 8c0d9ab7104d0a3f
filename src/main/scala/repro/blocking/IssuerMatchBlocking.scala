package repro.blocking

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Issuer Match blocking (paper §5.3.1 (3), securities only).
  *
  * Given a previous matching of the *issuers* (company records to company
  * group ids), a security pair is a candidate iff the two records' issuing
  * company records were assigned to the same company group and the records
  * come from different sources. This finds security pairs with non-matching
  * identifiers and generic names ("Equity Shares") through their issuers.
  */
object IssuerMatchBlocking {

  /** @param securities    security records with `recordId`, `source`,
    *                      `issuerRecordId`
    * @param companyGroups `(id, component)` — the previous company
    *                      matching's output (company record → group label),
    *                      in the columns of [[repro.graph.ConnectedComponents]]
    */
  def candidates(securities: DataFrame, companyGroups: DataFrame): DataFrame = {
    val linked = securities
      .where(col("issuerRecordId") =!= -1L)
      .select(col("recordId"), col("source"), col("issuerRecordId"))
      .join(
        companyGroups.select(col("id").as("issuerRecordId"), col("component")),
        "issuerRecordId")
    val a = linked.select(col("recordId").as("aId"), col("source").as("aSrc"), col("component"))
    val b = linked.select(col("recordId").as("bId"), col("source").as("bSrc"), col("component"))
    Blocking
      .canonicalize(
        a.join(b, "component").where(col("aSrc") =!= col("bSrc")),
        col("aId"), col("bId"))
      .distinct()
      .withColumn("blocking", lit(Blocking.IssuerMatch))
  }
}
