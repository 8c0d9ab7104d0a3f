package org.apache.spark

/** The listener bus is `private[spark]`; the benchmark's counters need to
  * wait for it to deliver every event before reading their totals.
  */
object ListenerBusAccess {
  def waitUntilEmpty(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
