package perfbench

import scala.collection.mutable

/** Spans and counts of one traced run, kept in memory until the run ends.
  *
  * A span times one call into a layer; spans of the same name add up. A
  * count is a number recorded at the boundary where the work happened.
  */
final class Tracer(counters: SparkCounters) {

  private final case class Span(name: String, fromMs: Long, toMs: Long, seconds: Double)

  private val spans = mutable.ArrayBuffer.empty[Span]
  private val counts = mutable.LinkedHashMap.empty[String, Double]

  def span[A](name: String)(f: => A): A = {
    val fromMs = System.currentTimeMillis()
    val t0 = System.nanoTime()
    val a = f
    val s = (System.nanoTime() - t0) / 1e9
    spans += Span(name, fromMs, System.currentTimeMillis(), s)
    a
  }

  def count(name: String, v: Double): Unit = counts(name) = v

  def value(name: String): Double = counts(name)

  def counted: Map[String, Double] = counts.toMap

  /** Total time of the spans called `name`. */
  def seconds(name: String): Double = spans.filter(_.name == name).map(_.seconds).sum

  /** Total time of every span. */
  def totalSeconds: Double = spans.map(_.seconds).sum

  /** Spark work started inside the spans called `name`. */
  def spark(name: String): SparkCounters.Window = {
    val ws = spans.filter(_.name == name).map(s => counters.window(s.fromMs, s.toMs))
    SparkCounters.Window(ws.map(_.jobs).sum, ws.flatMap(_.tasks).toSeq)
  }
}
