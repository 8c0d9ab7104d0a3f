package repro.bench

import repro.SparkSpec
import repro.exp.{ExpSession, Experiments}

/** Reproduces paper Table 1: general statistics of the datasets.
  *
  * Absolute counts scale with REPRO_SCALE (paper: 200K synthetic groups,
  * here ~6K by default); proportions (sources, avg matches per entity,
  * description share) must land in the paper's ballpark.
  */
class Table1Bench extends SparkSpec {

  private lazy val s = BenchSession.session

  test("print Table 1 (paper vs ours)") {
    ExpSession.printTable(s.table1Text())
  }

  test("synthetic companies: 5 sources, ~4.3 records/entity, ~7.5 matches/entity") {
    val st = Experiments.stats(s.syntheticCompaniesDs.records, "synth-co", withDesc = true)
    assert(st.nSources == 5)
    val recPerEntity = st.nRecords.toDouble / st.nEntities
    assert(recPerEntity > 3.6 && recPerEntity < 5.2, s"records/entity $recPerEntity")
    assert(st.avgMatchesPerEntity > 5.5 && st.avgMatchesPerEntity < 10.5,
      s"matches/entity ${st.avgMatchesPerEntity}")
  }

  test("synthetic companies: ~32% of records carry descriptions") {
    val st = Experiments.stats(s.syntheticCompaniesDs.records, "synth-co", withDesc = true)
    assert(st.descShare.exists(d => d > 0.22 && d < 0.42), s"desc share ${st.descShare}")
  }

  test("synthetic securities: ~1.4 securities per company, ~5 matches/entity") {
    val co = Experiments.stats(s.syntheticCompaniesDs.records, "c", withDesc = false)
    val se = Experiments.stats(s.syntheticSecuritiesDs.records, "s", withDesc = false)
    val secPerCompany = se.nEntities.toDouble / co.nEntities
    assert(secPerCompany > 1.1 && secPerCompany < 1.9, s"securities/company $secPerCompany")
    assert(se.avgMatchesPerEntity > 3.0 && se.avgMatchesPerEntity < 8.0,
      s"matches/security ${se.avgMatchesPerEntity}")
  }

  test("real datasets have 8 sources and mostly easy groups") {
    val st = Experiments.stats(s.realCompaniesDs.records, "real-co", withDesc = true)
    assert(st.nSources == 8)
    assert(st.avgMatchesPerEntity > 5.0 && st.avgMatchesPerEntity < 12.0)
  }

  test("synthetic scale dwarfs the real labeled subset (as in the paper)") {
    assert(s.syntheticCompaniesDs.records.count() > 2 * s.realCompaniesDs.records.count())
  }
}
