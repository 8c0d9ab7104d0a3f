package repro.datagen

import org.scalatest.funsuite.AnyFunSuite
import Artifacts._

class ArtifactsSpec extends AnyFunSuite {

  private val p = GenParams.synthetic(nGroups = 1000, seed = 5L)

  test("rngFor is deterministic for identical parts") {
    assert(rngFor(1L, 2L, 3L).nextLong() == rngFor(1L, 2L, 3L).nextLong())
  }

  test("rngFor differs for different parts") {
    assert(rngFor(1L, 2L, 3L).nextLong() != rngFor(1L, 2L, 4L).nextLong())
  }

  test("baseCompany is a pure function of (params, gid)") {
    val a = baseCompany(p, 42L)
    val b = baseCompany(p, 42L)
    assert(a == b)
  }

  test("different gids give different companies") {
    assert(baseCompany(p, 1L).coreName != baseCompany(p, 2L).coreName ||
           baseCompany(p, 1L).securities != baseCompany(p, 2L).securities)
  }

  test("every base company has at least one security") {
    (0L until 200L).foreach { gid =>
      assert(baseCompany(p, gid).securities.nonEmpty)
    }
  }

  test("security indices are consecutive from 0") {
    (0L until 100L).foreach { gid =>
      val secs = baseCompany(p, gid).securities
      assert(secs.map(_.secIdx) == secs.indices)
    }
  }

  test("multipleSecurities artifact adds extra non-equity securities") {
    val withExtra = (0L until 2000L)
      .map(baseCompany(p, _))
      .filter(_.artifacts.multipleSecurities)
    assert(withExtra.nonEmpty)
    withExtra.foreach { b =>
      assert(b.securities.exists(s => Set("Bond", "Right", "Unit").contains(s.secType)))
    }
  }

  test("groups without multipleSecurities have only equity types") {
    val without = (0L until 500L)
      .map(baseCompany(p, _))
      .filterNot(_.artifacts.multipleSecurities)
    assert(without.nonEmpty)
    without.foreach { b =>
      assert(b.securities.forall(s => !Set("Bond", "Right", "Unit").contains(s.secType)))
    }
  }

  test("alt id set differs from the primary id set") {
    (0L until 100L).foreach { gid =>
      baseCompany(p, gid).securities.foreach(s => assert(s.ids != s.altIds))
    }
  }

  test("artifact rates are in the expected ballpark") {
    val arts = (0L until 4000L).map(baseCompany(p, _)).map(_.artifacts)
    val acr  = arts.count(_.acronymName) / 4000.0
    val corp = arts.count(_.insertCorporateTerm) / 4000.0
    assert(acr > 0.05 && acr < 0.16, s"acronym rate $acr")
    assert(corp > 0.22 && corp < 0.38, s"corporate-term rate $corp")
  }

  test("pairEvent is deterministic and respects probabilities") {
    val events = (0L until 4000L).map(pairEvent(p, _))
    assert(events == (0L until 4000L).map(pairEvent(p, _)))
    val acq = events.count(_ == Acquisition) / 4000.0
    val mer = events.count(_ == Merger) / 4000.0
    assert(acq > 0.03 && acq < 0.10, s"acquisition rate $acq")
    assert(mer > 0.03 && mer < 0.10, s"merger rate $mer")
  }

  test("real params have lower event rates than synthetic") {
    val r = GenParams.real(1000, seed = 23L)
    assert(r.pAcquisition < p.pAcquisition)
    assert(r.pMerger < p.pMerger)
  }

  test("GenParams requires even nGroups") {
    intercept[IllegalArgumentException] { GenParams.synthetic(1001, seed = 17L) }
  }
}
