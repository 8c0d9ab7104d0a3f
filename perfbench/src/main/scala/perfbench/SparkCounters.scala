package perfbench

import org.apache.spark.{ListenerBusAccess, SparkContext}
import org.apache.spark.scheduler._
import scala.collection.mutable

import SparkCounters._

/** Counts Spark jobs, tasks, shuffle bytes and task durations, so that any
  * wall-clock window of the Spark driver can be charged with the Spark work that
  * started inside it.
  *
  * Jobs are charged to the window holding their submission time and tasks
  * to the window holding their launch time; the benchmark runs one span at a
  * time and every span waits for its jobs, so the windows do not overlap.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {

  private val jobStarts = mutable.ArrayBuffer.empty[Long]
  private val tasks = mutable.ArrayBuffer.empty[Task]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobStarts += e.time
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val info = e.taskInfo
    val shuffle = Option(e.taskMetrics).map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L)
    tasks += Task(e.stageId, info.launchTime, info.duration, shuffle)
  }

  /** Spark work that started in `[fromMs, toMs]`, once every event posted
    * so far has reached this listener.
    */
  def window(fromMs: Long, toMs: Long): Window = {
    ListenerBusAccess.waitUntilEmpty(sc)
    synchronized {
      Window(
        jobStarts.count(t => t >= fromMs && t <= toMs),
        tasks.filter(t => t.launchMs >= fromMs && t.launchMs <= toMs).toSeq)
    }
  }
}

object SparkCounters {

  final case class Task(stageId: Int, launchMs: Long, durationMs: Long, shuffleBytes: Long)

  final case class Window(jobs: Int, tasks: Seq[Task]) {
    def shuffleMb: Double = tasks.map(_.shuffleBytes).sum / 1e6

    /** Durations (s) of the tasks of the stage that kept executors busiest. */
    def busiestStageTaskSeconds: Seq[Double] =
      if (tasks.isEmpty) Seq(0.0)
      else tasks.groupBy(_.stageId).values.maxBy(_.map(_.durationMs).sum)
        .map(_.durationMs / 1e3).toSeq.sorted
  }
}
