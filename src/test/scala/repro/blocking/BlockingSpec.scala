package repro.blocking

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.datagen.{EmDatasets, GenParams}
import repro.graph.ConnectedComponents

class BlockingSpec extends SparkSpec {

  private lazy val data = EmDatasets.generate(spark, GenParams.synthetic(nGroups = 200, seed = 41L))

  private def duplicateRows(cands: DataFrame): Long =
    cands.groupBy("src", "dst", "blocking").count().where(col("count") > 1).count()

  test("combine of the company blockings has no duplicate (src, dst, blocking) row") {
    val companies = data.companies.toDF()
    val cands = Blocking.combine(
      IdOverlapBlocking.companyCandidates(companies, data.securities.toDF()),
      TokenOverlapBlocking.candidates(companies, "name", topN = 5, maxDocFreq = 500))
    assert(cands.select("blocking").distinct().count() == 2)
    assert(duplicateRows(cands) == 0)
  }

  test("combine of the security blockings has no duplicate (src, dst, blocking) row") {
    val securities = data.securities.toDF()
    val companyGroups = ConnectedComponents
      .run(spark, IdOverlapBlocking.companyCandidates(data.companies.toDF(), securities),
        Some(data.companies.toDF().select(col("recordId").as("id"))))
    val cands = Blocking.combine(
      IdOverlapBlocking.securityCandidates(securities),
      IssuerMatchBlocking.candidates(securities, companyGroups))
    assert(cands.select("blocking").distinct().count() == 2)
    assert(duplicateRows(cands) == 0)
  }
}
