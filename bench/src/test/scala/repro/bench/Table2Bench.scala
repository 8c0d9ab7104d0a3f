package repro.bench

import repro.SparkSpec
import repro.blocking.Blocking
import repro.exp.ExpSession

/** Reproduces paper Table 2: blockings, record and candidate-pair counts
  * of the entity group matching experiment, plus the γ/μ thresholds.
  */
class Table2Bench extends SparkSpec {

  private lazy val s = BenchSession.session

  test("print Table 2 (paper vs ours)") {
    ExpSession.printTable(s.table2Text())
  }

  test("every dataset produces a non-trivial candidate set") {
    for (ds <- s.allDatasets) {
      val n = Blocking.distinctPairs(ds.candidates).count()
      assert(n > 50, s"${ds.name}: only $n candidates")
    }
  }

  test("candidates stay far below the quadratic all-pairs count") {
    for (ds <- s.allDatasets) {
      val r = ds.pipelineRecords.count()
      val n = Blocking.distinctPairs(ds.candidates).count()
      assert(n < r * (r - 1) / 4, s"${ds.name}: blocking not selective ($n of ${r * (r - 1) / 2})")
    }
  }

  test("candidates per record is in the paper's ballpark") {
    // paper: companies ~6.6 (synthetic), securities ~3–4, real companies ~8
    for (ds <- s.allDatasets) {
      val perRecord = Blocking.distinctPairs(ds.candidates).count().toDouble /
        ds.pipelineRecords.count()
      assert(perRecord > 0.5 && perRecord < 25, s"${ds.name}: $perRecord candidates/record")
    }
  }

  test("company candidates carry both id_overlap and token_overlap provenance") {
    val provs = s.syntheticCompaniesDs.candidates
      .select("blocking").distinct().collect().map(_.getString(0)).toSet
    assert(provs == Set(Blocking.IdOverlap, Blocking.TokenOverlap))
  }

  test("security candidates carry both id_overlap and issuer_match provenance") {
    val provs = s.syntheticSecuritiesDs.candidates
      .select("blocking").distinct().collect().map(_.getString(0)).toSet
    assert(provs == Set(Blocking.IdOverlap, Blocking.IssuerMatch))
  }

  test("WDC candidates come from token overlap only") {
    val provs = s.wdcProductsDs.candidates
      .select("blocking").distinct().collect().map(_.getString(0)).toSet
    assert(provs == Set(Blocking.TokenOverlap))
  }

  test("blocking recall: most true pairs of the pipeline records are candidates") {
    val ds = s.syntheticSecuritiesDs
    val truth = repro.core.Splits.positivePairs(
      ds.pipelineRecords.select("recordId", "entityId"))
    val found = Blocking.distinctPairs(ds.candidates).join(truth, Seq("src", "dst")).count()
    val total = truth.count()
    assert(found.toDouble / total > 0.5, s"blocking recall ${found.toDouble / total}")
  }
}
