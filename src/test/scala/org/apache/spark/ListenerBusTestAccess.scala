package org.apache.spark

/** The listener bus is `private[spark]`; tests wait for it to deliver every
  * event posted so far before reading what a listener counted.
  */
object ListenerBusTestAccess {
  def waitUntilEmpty(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
