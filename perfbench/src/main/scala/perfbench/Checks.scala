package perfbench

import java.security.MessageDigest
import scala.collection.mutable

/** Output checks of one op: an op whose groups fail any of them counts as
  * failed.
  */
object Checks {

  /** Connected components of `edges` over `ids` (vertex → smallest member). */
  def components(ids: Iterable[Long], edges: Iterable[(Long, Long)]): Map[Long, Long] = {
    val parent = mutable.HashMap.empty[Long, Long]
    ids.foreach(i => parent(i) = i)
    def find(x: Long): Long = {
      var r = parent.getOrElseUpdate(x, x)
      while (parent(r) != r) r = parent(r)
      var y = x
      while (parent(y) != r) { val n = parent(y); parent(y) = r; y = n }
      r
    }
    for ((a, b) <- edges) {
      val ra = find(a); val rb = find(b)
      if (ra != rb) { if (ra < rb) parent(rb) = ra else parent(ra) = rb }
    }
    parent.keys.map(k => k -> find(k)).toMap
  }

  /** Largest group of an assignment. */
  def maxGroup(assign: Iterable[Long]): Int =
    if (assign.isEmpty) 0 else assign.groupBy(identity).valuesIterator.map(_.size).max

  /** Hex digest of the sorted `(id, group)` assignment. */
  def digest(assign: Seq[(Long, Long)]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    assign.sorted.foreach { case (i, g) => md.update(s"$i,$g\n".getBytes("UTF-8")) }
    md.digest().take(8).map(b => f"$b%02x").mkString
  }

  /** Invariants that hold on any seed. Returns the violations found.
    *
    * @param ids      every input id
    * @param assign   the op's `(id, group)` rows
    * @param stage2   id → stage-2 component (transitive closure of the raw
    *                 predictions)
    * @param maxSize  bound on every group's size, if the workload has one
    */
  def invariants(
      ids: Set[Long],
      assign: Seq[(Long, Long)],
      stage2: Map[Long, Long],
      maxSize: Option[Int]
  ): Seq[String] = {
    val errs = mutable.ArrayBuffer.empty[String]
    val assigned = assign.map(_._1)
    if (assigned.size != assigned.distinct.size)
      errs += s"${assigned.size - assigned.distinct.size} ids assigned more than once"
    val missing = ids -- assigned
    val extra = assigned.toSet -- ids
    if (missing.nonEmpty) errs += s"${missing.size} input ids unassigned"
    if (extra.nonEmpty) errs += s"${extra.size} unknown ids assigned"
    val crossing = assign.groupBy(_._2).count { case (_, ms) =>
      ms.map(m => stage2.getOrElse(m._1, m._1)).distinct.size > 1
    }
    if (crossing > 0) errs += s"$crossing groups span several stage-2 components"
    maxSize.foreach { mu =>
      val big = assign.groupBy(_._2).count(_._2.size > mu)
      if (big > 0) errs += s"$big groups larger than $mu"
    }
    errs.toSeq
  }
}
