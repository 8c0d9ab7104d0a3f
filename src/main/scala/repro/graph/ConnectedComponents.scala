package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Distributed connected components over a DataFrame edge list.
  *
  * Group assignment in GraLMatch is "output the connected components of the
  * (cleaned-up) prediction graph" — this is the distributed dataflow
  * implementation used at every stage of the pipeline.
  *
  * Algorithm: iterative minimum-label propagation with pointer jumping.
  * Every vertex holds a candidate component label (initially its own id).
  * Each round a vertex takes the minimum label among itself and its
  * neighbours, then labels are short-circuited by one pointer-jumping hop
  * (label := label(label)), which brings convergence to O(log n) rounds on
  * path-like graphs instead of O(diameter). Each round is pure Catalyst
  * dataflow (joins + aggregations); lineage is truncated per round with a
  * lazy local checkpoint. The loop stops at the first round that leaves the
  * sum of all labels unchanged; that `sum` is the round's one Spark action
  * and also materializes the checkpoint. The symmetric edge list and the
  * initial labels keep eager checkpoints: `sym`'s first action, `isEmpty`,
  * reads only part of it, so a lazy one would not be fully materialized.
  */
object ConnectedComponents {

  private val MaxIter = 100 // rounds; O(log n) are needed

  /** Computes connected components.
    *
    * @param edges    DataFrame with `src`/`dst` Long columns (undirected;
    *                 duplicates and self-loops tolerated)
    * @param vertices optional DataFrame with an `id` column for vertices that
    *                 must appear in the output even when isolated
    * @return DataFrame `(id: Long, component: Long)` where `component` is the
    *         minimum vertex id of the component
    */
  def run(
      spark: SparkSession,
      edges: DataFrame,
      vertices: Option[DataFrame] = None
  ): DataFrame = {
    import spark.implicits._

    val e = edges.select($"src".cast("long"), $"dst".cast("long"))
    // Symmetric closure without self-loops; distinct so parallel edges don't
    // inflate the aggregation.
    val sym = e
      .where($"src" =!= $"dst")
      .select($"src".as("a"), $"dst".as("b"))
      .union(e.where($"src" =!= $"dst").select($"dst".as("a"), $"src".as("b")))
      .distinct()
      .localCheckpoint(true)

    val endpointIds = e.select($"src".as("id")).union(e.select($"dst".as("id")))
    val allIds = vertices
      .map(v => v.select($"id".cast("long")).union(endpointIds))
      .getOrElse(endpointIds)
      .distinct()

    var assign = allIds.select($"id", $"id".as("comp")).localCheckpoint(true)
    var iter = 0
    var converged = sym.isEmpty
    // Labels only decrease (comp(x) <= x, and both steps take minima), so a
    // round changed a label exactly when the label sum fell. The first round
    // always lowers the larger endpoint of some edge, so it has no
    // predecessor sum to compare with.
    var labelSum: Option[java.math.BigDecimal] = None

    while (!converged && iter < MaxIter) {
      val nbrMin = sym
        .join(assign, $"b" === $"id")
        .groupBy($"a")
        .agg(min($"comp").as("nbrComp"))

      val step = assign
        .join(nbrMin, assign("id") === nbrMin("a"), "left")
        .select(
          assign("id"),
          least(assign("comp"), coalesce($"nbrComp", assign("comp"))).as("comp")
        )

      // Pointer jump: follow the label one hop (comp := comp(comp)).
      val lookup = step.select($"id".as("cid"), $"comp".as("ccomp"))
      val jumped = step
        .join(lookup, step("comp") === lookup("cid"), "left")
        .select(step("id"), coalesce($"ccomp", step("comp")).as("comp"))
        .localCheckpoint(false)

      // The one action of the round: it scans every partition, so it also
      // materializes the lazy checkpoint.
      val total = jumped.agg(sum($"comp".cast("decimal(38,0)"))).head().getDecimal(0)
      assign = jumped
      converged = labelSum.contains(total)
      labelSum = Some(total)
      iter += 1
    }
    require(converged, s"connected components did not converge in $MaxIter iterations")
    assign.select($"id", $"comp".as("component"))
  }
}
