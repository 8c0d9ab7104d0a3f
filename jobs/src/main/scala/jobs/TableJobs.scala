package jobs

import repro.exp.ExpSession

/** spark-submit entrypoints, one per reproduced table.
  *
  * Example:
  * {{{
  * spark-submit --class jobs.Table4Job repro-jobs.jar
  * REPRO_SCALE=0.25 spark-submit --class jobs.Table1Job repro-jobs.jar
  * }}}
  */
object TableJobs {
  def session(): ExpSession = new ExpSession(ExpSession.sparkSession())
}

/** Table 1 — dataset statistics. */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val s = TableJobs.session()
    println(s.table1Text())
    s.spark.stop()
  }
}

/** Table 2 — blockings, records, candidate pairs. */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val s = TableJobs.session()
    println(s.table2Text())
    s.spark.stop()
  }
}

/** Table 3 — fine-tuning pairwise scores on test pairs. */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val s = TableJobs.session()
    println(s.table3Text())
    s.spark.stop()
  }
}

/** Table 4 — end-to-end entity group matching with GraLMatch. */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val s = TableJobs.session()
    println(s.table4Text(s.table4Rows()))
    s.spark.stop()
  }
}
