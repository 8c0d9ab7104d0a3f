package repro.bench

import repro.SparkSpec
import repro.exp.ExpSession
import repro.exp.Experiments.GroupMatchRow

/** Reproduces paper Table 4: the end-to-end entity group matching
  * experiment — pairwise-from-blocking scores, Pre Graph Cleanup
  * (transitive closure) scores and Post Graph Cleanup (GraLMatch) scores
  * with Cluster Purity, including the γ/μ sensitivity variants.
  *
  * The paper's central claims checked here:
  *  1. the transitive closure of raw predictions collapses precision
  *     (a few false positives fuse many groups);
  *  2. GraLMatch restores precision at a bounded recall cost;
  *  3. pairwise precision — not recall — decides the final F1 (the 15K
  *     variant wins on synthetic companies);
  *  4. the sensitivity variants (-MEC, ½γ, -BC) land close to the default.
  */
class Table4Bench extends SparkSpec {

  private lazy val s = BenchSession.session
  private lazy val allRows: Seq[GroupMatchRow] = s.table4Rows()
  private lazy val rows: Map[(String, String), GroupMatchRow] =
    allRows.map(r => (r.dataset, r.model) -> r).toMap

  test("print Table 4 (paper vs ours)") {
    ExpSession.printTable(s.table4Text(allRows))
  }

  test("pre-cleanup precision collapses on synthetic companies") {
    val r = rows(("Synthetic Companies", "DistilBERT (128)-ALL"))
    assert(r.pre.scores.precision < r.pairwise.precision / 2,
      s"pre ${r.pre.scores.precision} vs pairwise ${r.pairwise.precision}")
  }

  test("GraLMatch restores precision on synthetic companies") {
    for (model <- Seq("DistilBERT (128)-ALL", "DistilBERT (128)-15K")) {
      val r = rows(("Synthetic Companies", model))
      assert(r.post.scores.precision > r.pre.scores.precision,
        s"$model: post ${r.post.scores.precision} <= pre ${r.pre.scores.precision}")
      assert(r.post.scores.precision > 0.8, s"$model post precision ${r.post.scores.precision}")
    }
  }

  test("cluster purity recovers post cleanup on synthetic companies") {
    val r = rows(("Synthetic Companies", "DistilBERT (128)-ALL"))
    assert(r.post.clusterPurity > r.pre.clusterPurity)
    assert(r.post.clusterPurity > 0.85, s"post purity ${r.post.clusterPurity}")
  }

  test("precision beats recall: 15K wins the final F1 on synthetic companies") {
    val k15 = rows(("Synthetic Companies", "DistilBERT (128)-15K"))
    val all = rows(("Synthetic Companies", "DistilBERT (128)-ALL"))
    assert(k15.pairwise.precision >= all.pairwise.precision - 0.02,
      s"15K pairwise precision ${k15.pairwise.precision} vs ALL ${all.pairwise.precision}")
    assert(k15.post.scores.f1 >= all.post.scores.f1 - 0.03,
      s"15K post F1 ${k15.post.scores.f1} vs ALL ${all.post.scores.f1}")
  }

  test("securities: DistilBERT-ALL at least matches DITTO (128) end to end") {
    // The paper's real-securities DITTO (128) collapse (post F1 18.28 vs
    // DistilBERT's 98.86) is a fine-tuning instability our convex
    // classifier substitute cannot reproduce; we assert no-worse plus the
    // fine-tune-level ordering checked in Table3Bench (see EXPERIMENTS.md).
    val ball = rows(("Real Securities", "DistilBERT (128)-ALL"))
    val d128 = rows(("Real Securities", "DITTO (128)"))
    assert(ball.post.scores.f1 >= d128.post.scores.f1 - 0.02)
    assert(ball.post.scores.f1 > 0.7, s"DistilBERT-ALL real securities F1 ${ball.post.scores.f1}")
  }

  test("stage-2 recall >= stage-1 recall everywhere (closure only adds pairs)") {
    allRows.foreach { r =>
      assert(r.pre.scores.recall >= r.pairwise.recall - 1e-9,
        s"${r.dataset}/${r.model}")
    }
  }

  test("sensitivity: -MEC, half-gamma and -BC land close to the default") {
    val base = rows(("Synthetic Companies", "DistilBERT (128)-ALL"))
    for (m <- Seq("DistilBERT (128)-ALL-MEC", "DistilBERT (128)-ALL (1/2 gamma)",
                  "DistilBERT (128)-ALL-BC")) {
      val r = rows(("Synthetic Companies", m))
      assert(math.abs(r.post.scores.f1 - base.post.scores.f1) < 0.08,
        s"$m F1 ${r.post.scores.f1} vs default ${base.post.scores.f1}")
      assert(r.post.scores.precision > 0.8, s"$m precision ${r.post.scores.precision}")
    }
  }

  test("sensitivity: pure min-cut (-MEC) removes at least as many true edges") {
    val base = rows(("Synthetic Companies", "DistilBERT (128)-ALL"))
    val mec  = rows(("Synthetic Companies", "DistilBERT (128)-ALL-MEC"))
    assert(mec.post.scores.recall <= base.post.scores.recall + 0.02,
      s"MEC recall ${mec.post.scores.recall} vs default ${base.post.scores.recall}")
  }

  test("WDC: heterogeneous group sizes make the mu cap cost recall") {
    val r = rows(("WDC Products", "DistilBERT (128)-ALL"))
    assert(r.post.scores.recall < r.pre.scores.recall,
      s"post recall ${r.post.scores.recall} vs pre ${r.pre.scores.recall}")
  }

  test("post-cleanup precision never falls below pre-cleanup precision") {
    allRows.foreach { r =>
      assert(r.post.scores.precision >= r.pre.scores.precision - 0.02,
        s"${r.dataset}/${r.model}: post ${r.post.scores.precision} vs pre ${r.pre.scores.precision}")
    }
  }
}
