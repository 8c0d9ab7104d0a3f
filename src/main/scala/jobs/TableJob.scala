package jobs

import repro.exp.ExpSession

/** spark-submit entry point: prints the reproduced paper table named by its
  * one argument, 1 to 4.
  *
  * Example:
  * {{{
  * spark-submit --class jobs.TableJob target/scala-2.13/repro_2.13-0.1.0-SNAPSHOT.jar 4
  * REPRO_SCALE=0.25 spark-submit --class jobs.TableJob target/scala-2.13/repro_2.13-0.1.0-SNAPSHOT.jar 1
  * }}}
  */
object TableJob {
  def main(args: Array[String]): Unit = {
    val text: ExpSession => String = args match {
      case Array("1") => _.table1Text()
      case Array("2") => _.table2Text()
      case Array("3") => _.table3Text()
      case Array("4") => s => s.table4Text(s.table4Rows())
      case _ =>
        Console.err.println("usage: jobs.TableJob <1|2|3|4>")
        sys.exit(2)
    }
    val s = new ExpSession(ExpSession.sparkSession())
    try println(text(s)) finally s.spark.stop()
  }
}
