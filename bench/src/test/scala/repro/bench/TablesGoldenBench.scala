package repro.bench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}

import repro.SparkSpec
import repro.exp.Experiments

/** Tables 1–4 at the running `REPRO_SCALE`, with the measured time cells
  * masked, must equal the committed golden `bench/golden/tables-<scale>.txt`.
  *
  * The comparison is between JVM strings, so the platform charset cannot
  * matter. A scale without a golden fails. Every run first writes its
  * rendering to `bench/target/tables-<scale>.txt`: a declared number change
  * regenerates the golden by copying that file over it.
  */
class TablesGoldenBench extends SparkSpec {

  private lazy val s = BenchSession.session

  test(s"Tables 1–4 at REPRO_SCALE=${Experiments.scale} equal the committed golden") {
    val file = s"tables-${Experiments.scale}.txt"
    val rendered = TablesGoldenBench.maskTimes(Seq(
      s.table1Text(), s.table2Text(), s.table3Text(), s.table4Text(s.table4Rows())
    ).mkString("\n"))
    val out = TablesGoldenBench.BenchDir.resolve("target").resolve(file)
    Files.createDirectories(out.getParent)
    Files.write(out, rendered.getBytes(UTF_8))

    val golden = TablesGoldenBench.BenchDir.resolve("golden").resolve(file)
    assert(Files.exists(golden), s"no golden for REPRO_SCALE=${Experiments.scale}: $golden")
    val expected = new String(Files.readAllBytes(golden), UTF_8)
    val (want, got) = (expected.linesIterator.toVector, rendered.linesIterator.toVector)
    val diff = want.zipAll(got, "<none>", "<none>").zipWithIndex.collect {
      case ((w, g), i) if w != g => s"line ${i + 1}:\n  golden: $w\n  now:    $g"
    }
    assert(rendered == expected, s"differs from $golden (rendering in $out)\n" +
      diff.take(10).mkString("\n"))
  }
}

object TablesGoldenBench {

  /** The bench project's directory, `bench/`: sbt forks its tests there. */
  private val BenchDir: Path = Paths.get("").toAbsolutePath

  /** Replaces the measured wall time `<paper>|<seconds> s` that ends a
    * Table 3 row and a Table 4 pairwise row by `<paper>|* s`, padding
    * included, so the masked text does not depend on the time's width.
    */
  private def maskTimes(text: String): String =
    text.replaceAll("(?m) +([^ |][^|]*\\|)\\d+\\.\\d s$", " $1* s")
}
