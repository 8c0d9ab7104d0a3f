package perfbench

/** Just enough JSON to print the benchmark's results. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"not a JSON number: $x")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  }

  def bool(b: Boolean): String = b.toString

  def arr(xs: Seq[String]): String = xs.mkString("[", ", ", "]")

  def obj(kvs: (String, String)*): String =
    kvs.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
