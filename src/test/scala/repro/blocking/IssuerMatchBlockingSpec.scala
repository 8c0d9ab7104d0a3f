package repro.blocking

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}

class IssuerMatchBlockingSpec extends SparkSpec {

  import spark.implicits._

  private def secs(rows: (Long, Int, Long)*): DataFrame =
    rows.toDF("recordId", "source", "issuerRecordId")

  private def groups(rows: (Long, Long)*): DataFrame =
    rows.toDF("id", "component")

  test("securities of same-group issuers pair cross-source") {
    val out = IssuerMatchBlocking
      .candidates(secs((1L, 1, 11L), (2L, 2, 22L)), groups((11L, 7L), (22L, 7L)))
      .collect()
    assert(out.map(r => (r.getLong(0), r.getLong(1))).toSet == Set((1L, 2L)))
    assert(out.head.getString(2) == Blocking.IssuerMatch)
  }

  test("different issuer groups do not pair") {
    val out = IssuerMatchBlocking
      .candidates(secs((1L, 1, 11L), (2L, 2, 22L)), groups((11L, 7L), (22L, 8L)))
    assert(out.count() == 0)
  }

  test("same-source securities do not pair") {
    val out = IssuerMatchBlocking
      .candidates(secs((1L, 1, 11L), (2L, 1, 22L)), groups((11L, 7L), (22L, 7L)))
    assert(out.count() == 0)
  }

  test("missing issuer link (-1) contributes nothing") {
    val out = IssuerMatchBlocking
      .candidates(secs((1L, 1, -1L), (2L, 2, 22L)), groups((22L, 7L)))
    assert(out.count() == 0)
  }

  test("issuer without a group assignment contributes nothing") {
    val out = IssuerMatchBlocking
      .candidates(secs((1L, 1, 11L), (2L, 2, 22L)), groups((22L, 7L)))
    assert(out.count() == 0)
  }

  test("three securities in one group give all three cross-source pairs") {
    val out = IssuerMatchBlocking
      .candidates(
        secs((1L, 1, 11L), (2L, 2, 22L), (3L, 3, 33L)),
        groups((11L, 7L), (22L, 7L), (33L, 7L)))
      .select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(out == Set((1L, 2L), (1L, 3L), (2L, 3L)))
  }

  test("pairs are canonical and distinct") {
    val out = IssuerMatchBlocking
      .candidates(secs((9L, 1, 11L), (2L, 2, 22L)), groups((11L, 7L), (22L, 7L)))
      .collect()
    assert(out.length == 1)
    assert(out.head.getLong(0) == 2L && out.head.getLong(1) == 9L)
  }

  test("oracle: issuer-match candidates match DuckDB") {
    val s = secs((1L, 1, 11L), (2L, 2, 22L), (3L, 3, 33L), (4L, 1, 44L), (5L, 2, -1L))
    val g = groups((11L, 7L), (22L, 7L), (33L, 7L), (44L, 9L))
    Oracle.assertEquivalent(
      IssuerMatchBlocking.candidates(s, g).select("src", "dst"),
      """SELECT DISTINCT
        |  LEAST(CAST(a.recordId AS BIGINT), CAST(b.recordId AS BIGINT)) AS src,
        |  GREATEST(CAST(a.recordId AS BIGINT), CAST(b.recordId AS BIGINT)) AS dst
        |FROM secs a
        |JOIN grps ga ON a.issuerRecordId = ga.id
        |JOIN secs b ON b.source <> a.source AND b.recordId <> a.recordId
        |JOIN grps gb ON b.issuerRecordId = gb.id
        |WHERE ga.component = gb.component
        |  AND CAST(a.issuerRecordId AS BIGINT) >= 0
        |  AND CAST(b.issuerRecordId AS BIGINT) >= 0""".stripMargin,
      "secs" -> s,
      "grps" -> g
    )
  }
}
