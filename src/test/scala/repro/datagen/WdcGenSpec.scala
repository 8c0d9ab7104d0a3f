package repro.datagen

import repro.SparkSpec
import WdcGen._

class WdcGenSpec extends SparkSpec {

  private val p = WdcParams(nFamilies = 120, seed = 13L)
  private lazy val records = WdcGen.generate(spark, p).collect().toSeq

  test("generation is deterministic") {
    assert(records == WdcGen.generate(spark, p).collect().toSeq)
  }

  test("record ids are unique") {
    assert(records.map(_.recordId).distinct.size == records.size)
  }

  test("every record has its own pseudo-source") {
    assert(records.map(_.source).distinct.size == records.size)
  }

  test("group sizes are heterogeneous") {
    val sizes = records.groupBy(_.entityId).values.map(_.size).toSeq
    assert(sizes.max >= 4, s"max group size ${sizes.max}")
    assert(sizes.min == 1)
    assert(sizes.distinct.size >= 4)
  }

  test("corner-case families have sibling entities with near-identical titles") {
    val byFamily = records.groupBy(_.entityId / 4)
    val multiEntity = byFamily.filter(_._2.map(_.entityId).distinct.size >= 2)
    assert(multiEntity.size.toDouble / byFamily.size > 0.6, "corner-case share too low")
    // siblings share brand and category tokens
    multiEntity.values.take(10).foreach { fam =>
      assert(fam.map(_.brand).distinct.size == 1)
    }
  }

  test("titles within an entity share the model token") {
    records.groupBy(_.entityId).values.filter(_.size >= 2).take(20).foreach { g =>
      val modelTokens = g.map(_.title.split(' ').toSet)
      assert(modelTokens.reduce(_ intersect _).nonEmpty)
    }
  }

  test("sibling entities differ in the model number (when present)") {
    val fams = records.groupBy(_.entityId / 4).values.filter(_.map(_.entityId).distinct.size >= 2)
    val modelToken = "^[A-Za-z]+[0-9]+$".r
    val sets = fams.flatMap { fam =>
      fam.groupBy(_.entityId).values.map { recs =>
        recs.flatMap(_.title.split(' ').filter(t => modelToken.matches(t))).toSet
      }.filter(_.nonEmpty).toSeq match {
        case s if s.size >= 2 => Some(s)
        case _                => None
      }
    }
    assert(sets.nonEmpty)
    sets.foreach(s => assert(s.distinct.size == s.size, s"siblings share model tokens: $s"))
  }

  test("some records omit the model number entirely (corner-case fuel)") {
    val modelToken = "^[A-Za-z]+[0-9]+$".r
    val noModel = records.count(r => !r.title.split(' ').exists(t => modelToken.matches(t)))
    assert(noModel > records.size / 10, s"only $noModel of ${records.size} without model token")
  }

  test("about half of the records have descriptions") {
    val share = records.count(_.description != null).toDouble / records.size
    assert(share > 0.3 && share < 0.7)
  }

  test("scale is in the WDC-large ballpark for 300 families (~1K records)") {
    val big = WdcGen.generate(spark, WdcParams(nFamilies = 300, seed = 29L)).count()
    assert(big > 600 && big < 4000, s"records $big")
  }
}
