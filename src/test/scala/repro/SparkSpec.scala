package repro

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicInteger

import scala.jdk.CollectionConverters._

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
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
    val sc = spark.sparkContext
    val actions = new ConcurrentLinkedQueue[String]()
    val listener = new QueryExecutionListener {
      def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        actions.add(funcName)
      def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit =
        actions.add(funcName)
    }
    // These events travel on the listener bus too: drain it of earlier
    // actions before listening, and of `body`'s before reading.
    ListenerBusAccess.waitUntilEmpty(sc)
    spark.listenerManager.register(listener)
    try {
      body
      ListenerBusAccess.waitUntilEmpty(sc)
      actions.asScala.toSeq
    } finally spark.listenerManager.unregister(listener)
  }

  /** The number of Spark jobs that `body` starts. */
  def sparkJobs(body: => Any): Int = {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    ListenerBusAccess.waitUntilEmpty(sc)
    sc.addSparkListener(listener)
    try {
      body
      ListenerBusAccess.waitUntilEmpty(sc)
      jobs.get
    } finally sc.removeSparkListener(listener)
  }

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
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
