package repro

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}

import org.apache.spark.ListenerBusTestAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.plans.logical.{Range => RangePlan}
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import repro.exp.ExpSession

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). The session itself comes from [[ExpSession.sparkSession]].
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** The Spark SQL actions (`head`, `count`, …) that `body` runs, in order. */
  def sparkActions(body: => Any): Seq[String] = {
    // (action, end of the plan's Range if it has one)
    val events = new LinkedBlockingQueue[(String, Option[Long])]()
    val listener = new QueryExecutionListener {
      private def put(funcName: String, qe: QueryExecution): Unit =
        events.put(funcName -> qe.logical.collectFirst { case r: RangePlan => r.end })
      def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        put(funcName, qe)
      def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit =
        put(funcName, qe)
    }
    // Listener events arrive asynchronously: counting a range of a fresh
    // length marks the end of the actions before it.
    def actionsBeforeMarker(): Seq[String] = {
      val m = SparkSpec.marker.incrementAndGet()
      spark.range(m).count()
      Iterator.continually(events.poll(60, TimeUnit.SECONDS))
        .takeWhile(e => e != null && e._2 != Some(m)).map(_._1).toSeq
    }
    spark.listenerManager.register(listener)
    try {
      actionsBeforeMarker()
      body
      actionsBeforeMarker()
    } finally spark.listenerManager.unregister(listener)
  }

  /** The number of Spark jobs that `body` starts. */
  def sparkJobs(body: => Any): Int = {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    ListenerBusTestAccess.waitUntilEmpty(sc)
    sc.addSparkListener(listener)
    try {
      body
      ListenerBusTestAccess.waitUntilEmpty(sc)
      jobs.get
    } finally sc.removeSparkListener(listener)
  }

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  private val marker = new AtomicLong(1000L)

  lazy val shared: SparkSession = {
    val s = ExpSession.sparkSession()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
