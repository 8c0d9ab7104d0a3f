package repro.bench

import repro.SparkSpec
import repro.exp.ExpSession
import repro.exp.Experiments.FineTuneRow

/** Reproduces paper Table 3: fine-tuning pairwise scores on test pairs.
  *
  * Absolute numbers come from our classifier substitute; the assertions
  * check the paper's *shape*: near-perfect companies scores, DITTO (128)
  * crippled on identifier-centric securities, the 15K variant trading
  * recall for precision at a fraction of the training time.
  */
class Table3Bench extends SparkSpec {

  private lazy val s = BenchSession.session
  private lazy val rows: Map[(String, String), FineTuneRow] =
    s.table3Rows().map(r => (r.dataset, r.model) -> r).toMap

  test("print Table 3 (paper vs ours)") {
    rows // force
    ExpSession.printTable(s.table3Text())
  }

  test("companies: DistilBERT-ALL reaches high scores on real and synthetic") {
    assert(rows(("Real Companies", "DistilBERT (128)-ALL")).f1 > 0.85)
    assert(rows(("Synthetic Companies", "DistilBERT (128)-ALL")).f1 > 0.80)
  }

  test("securities: DITTO (128) is worse than DistilBERT-ALL (id blindness)") {
    // Direction check. The paper's magnitude (F1 33.89 vs 99.47 on real
    // securities) comes from a seed-dependent fine-tuning *collapse* of
    // DITTO(128) that a convex classifier substitute cannot reproduce; our
    // truncation mechanism degrades it gracefully instead (EXPERIMENTS.md).
    val d128 = rows(("Synthetic Securities", "DITTO (128)"))
    val dball = rows(("Synthetic Securities", "DistilBERT (128)-ALL"))
    assert(dball.f1 > d128.f1 + 0.01,
      s"DistilBERT ${dball.f1} should beat DITTO128 ${d128.f1}")
    val r128 = rows(("Real Securities", "DITTO (128)"))
    val rball = rows(("Real Securities", "DistilBERT (128)-ALL"))
    assert(rball.f1 > r128.f1)
  }

  test("securities: DITTO (256)'s bigger budget recovers most of the gap") {
    val d128 = rows(("Synthetic Securities", "DITTO (128)"))
    val d256 = rows(("Synthetic Securities", "DITTO (256)"))
    assert(d256.f1 > d128.f1)
  }

  test("15K variant: lower recall, at least comparable precision (synthetic)") {
    val k15 = rows(("Synthetic Companies", "DistilBERT (128)-15K"))
    val all = rows(("Synthetic Companies", "DistilBERT (128)-ALL"))
    assert(k15.recall <= all.recall + 0.02,
      s"15K recall ${k15.recall} vs ALL ${all.recall}")
    assert(k15.precision >= all.precision - 0.03,
      s"15K precision ${k15.precision} vs ALL ${all.precision}")
  }

  test("15K variant trains on a fraction of ALL's pairs") {
    val k15 = rows(("Synthetic Companies", "DistilBERT (128)-15K"))
    val all = rows(("Synthetic Companies", "DistilBERT (128)-ALL"))
    assert(k15.nTrainPairs < all.nTrainPairs / 4,
      s"15K ${k15.nTrainPairs} pairs vs ALL ${all.nTrainPairs}")
    // wall time includes the clean-group filter; allow overhead at small scale
    assert(k15.trainSeconds < all.trainSeconds * 2,
      s"15K ${k15.trainSeconds}s vs ALL ${all.trainSeconds}s")
  }

  test("every fine-tuned model beats the coin flip on its test pairs") {
    rows.values.foreach { r =>
      assert(r.f1 > 0.3, s"${r.dataset}/${r.model}: F1 ${r.f1}")
    }
  }
}
