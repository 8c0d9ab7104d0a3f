package org.apache.spark.sql

/** The cache manager's entry count is `private[sql]`; tests read it to
  * check that a call leaves no cached frame behind.
  */
object CacheManagerAccess {
  def numCachedEntries(spark: SparkSession): Int = spark.sharedState.cacheManager.numCachedEntries
}
