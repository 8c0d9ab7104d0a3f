package repro.blocking

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class TokenOverlapBlockingSpec extends SparkSpec {

  import spark.implicits._

  private def recs(rows: (Long, Int, String)*): DataFrame =
    rows.toDF("recordId", "source", "name")

  test("tokensOf lowercases and splits on non-alphanumerics") {
    val out = recs((1L, 1, "Crowd-Strike Holdings, Inc."))
      .select(TokenOverlapBlocking.tokensOf($"name").as("t"))
      .as[Seq[String]].head()
    assert(out == Seq("crowd", "strike", "holdings", "inc"))
  }

  test("tokensOf drops single-character tokens") {
    val out = recs((1L, 1, "A B Industries"))
      .select(TokenOverlapBlocking.tokensOf($"name").as("t"))
      .as[Seq[String]].head()
    assert(out == Seq("industries"))
  }

  test("token index is distinct per record") {
    val idx = TokenOverlapBlocking.tokenIndex(recs((1L, 1, "acme acme corp")), "name", 100)
    assert(idx.where($"token" === "acme").count() == 1)
  }

  test("token index drops tokens above maxDocFreq") {
    val df = recs((1L, 1, "alpha common"), (2L, 2, "beta common"), (3L, 3, "gamma common"))
    val idx = TokenOverlapBlocking.tokenIndex(df, "name", maxDocFreq = 2)
    assert(idx.where($"token" === "common").count() == 0)
    assert(idx.where($"token" === "alpha").count() == 1)
  }

  test("overlap counts shared tokens cross-source") {
    val df = recs((1L, 1, "swiss energy holdings"), (2L, 2, "swiss energy group"))
    val out = TokenOverlapBlocking.overlapCounts(df, "name", 100).collect()
    assert(out.length == 1)
    assert(out.head.getLong(0) == 1L && out.head.getLong(1) == 2L && out.head.getLong(2) == 2L)
  }

  test("same-source records are never counted") {
    val df = recs((1L, 1, "swiss energy"), (2L, 1, "swiss energy"))
    assert(TokenOverlapBlocking.overlapCounts(df, "name", 100).count() == 0)
  }

  test("topN keeps only the best partners per record") {
    // r3/r4 each have two partners tied at overlap 3 whose tie-break points
    // away from each other, so pair (3,4) lands in neither record's top-1.
    val df = recs(
      (1L, 1, "alpha beta gamma delta"),
      (2L, 2, "alpha beta gamma delta"),
      (3L, 2, "alpha beta gamma"),
      (4L, 1, "alpha beta gamma epsilon"))
    val out = TokenOverlapBlocking.candidates(df, "name", topN = 1, maxDocFreq = 100)
      .select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(out == Set((1L, 2L), (1L, 3L), (2L, 4L)))
  }

  test("pair survives when in the top-n of either endpoint") {
    // record 5 overlaps record 1 weakly, but record 1 is record 5's only partner
    val df = recs(
      (1L, 1, "acme zurich widgets trading"),
      (2L, 2, "acme zurich widgets trading"),
      (3L, 2, "acme zurich widgets"),
      (5L, 2, "acme holdings"))
    val out = TokenOverlapBlocking.candidates(df, "name", topN = 1, maxDocFreq = 100)
      .select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    // top-1 of record 1 is record 2; top-1 of record 5 is record 1
    assert(out.contains((1L, 2L)))
    assert(out.contains((1L, 5L)))
  }

  test("provenance column is token_overlap") {
    val df = recs((1L, 1, "acme corp"), (2L, 2, "acme corp"))
    val out = TokenOverlapBlocking.candidates(df, "name", topN = 3, maxDocFreq = 100).collect()
    assert(out.nonEmpty)
    assert(out.forall(_.getString(2) == Blocking.TokenOverlap))
  }

  test("no candidates when no tokens are shared") {
    val df = recs((1L, 1, "alpha beta"), (2L, 2, "gamma delta"))
    assert(TokenOverlapBlocking.candidates(df, "name", topN = 5, maxDocFreq = 500).count() == 0)
  }

  test("oracle: overlap counts match DuckDB over the token index") {
    val df = recs(
      (1L, 1, "swiss energy holdings"),
      (2L, 2, "swiss energy group"),
      (3L, 3, "swiss pacific energy resources"),
      (4L, 1, "pacific resources"),
      (5L, 2, "energy resources corp"))
    val idx = TokenOverlapBlocking.tokenIndex(df, "name", 100)
    Oracle.assertEquivalent(
      TokenOverlapBlocking.overlapCounts(df, "name", 100),
      """SELECT CAST(a.recordId AS BIGINT) AS src, CAST(b.recordId AS BIGINT) AS dst,
        |       COUNT(*) AS overlap
        |FROM toks a JOIN toks b
        |  ON a.token = b.token AND a.source <> b.source
        | AND CAST(a.recordId AS BIGINT) < CAST(b.recordId AS BIGINT)
        |GROUP BY 1, 2""".stripMargin,
      "toks" -> idx
    )
  }
}
