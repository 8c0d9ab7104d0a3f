package repro.matcher

/** Pair features computed on two serialized, truncated token sequences.
  *
  * This is the interface contract of the language-model substitute: the
  * classifier only sees what the simulated Transformer would see — the
  * serialized token sequences after the model's max-length truncation. A
  * variant whose serialization shreds or truncates away the identifiers is
  * therefore structurally blind to them, exactly like the paper's
  * DITTO (128) on securities; a variant whose [col]/[val] tags are shared
  * between any two records has its similarity signal compressed, making
  * hard blocked negatives sit closer to positives.
  */
object Featurizer {

  private def ngrams(s: String, n: Int): Set[String] =
    if (s.length < n) Set(s) else (0 to s.length - n).map(i => s.substring(i, i + n)).toSet

  private def jaccard[A](a: Set[A], b: Set[A]): Double =
    if (a.isEmpty && b.isEmpty) 0.0
    else a.intersect(b).size.toDouble / a.union(b).size

  /** Identifier-looking token: long enough and digit-bearing. Character
    * tokens produced by the ditto scheme's id-shredding never qualify.
    */
  private[matcher] def isIdLike(t: String): Boolean =
    t.length >= 6 && t.exists(_.isDigit)

  def features(a: Seq[String], b: Seq[String]): Array[Double] = {
    val sa = a.toSet
    val sb = b.toSet
    val inter = sa.intersect(sb)
    val minSize = math.min(sa.size, sb.size)

    val strA = a.mkString(" ").take(240)
    val strB = b.mkString(" ").take(240)

    val idA = sa.filter(isIdLike)
    val idB = sb.filter(isIdLike)
    val sharedIds = idA.intersect(idB).size

    val digA = sa.filter(_.exists(_.isDigit))
    val digB = sb.filter(_.exists(_.isDigit))

    val prefixA = a.take(6).mkString(" ")
    val prefixB = b.take(6).mkString(" ")

    Array(
      // token jaccard: |A ∩ B| / |A ∪ B| over token sets
      jaccard(sa, sb),
      // containment: |A ∩ B| / min(|A|, |B|)
      if (minSize == 0) 0.0 else inter.size.toDouble / minSize,
      // char-3-gram jaccard of the joined strings
      jaccard(ngrams(strA, 3), ngrams(strB, 3)),
      // shared identifier-looking tokens, capped at 3
      math.min(sharedIds, 3).toDouble / 3.0,
      // jaccard over digit-bearing tokens (model numbers)
      if (digA.isEmpty && digB.isEmpty) 0.0 else jaccard(digA, digB),
      // leading tokens equal (brand / name head)
      if (a.nonEmpty && b.nonEmpty && a.head == b.head) 1.0 else 0.0,
      // min/max token-sequence length
      if (a.isEmpty || b.isEmpty) 0.0
      else math.min(a.size, b.size).toDouble / math.max(a.size, b.size),
      // prefix similarity: char-4-gram jaccard of the first 6 tokens
      jaccard(ngrams(prefixA, 4), ngrams(prefixB, 4))
    )
  }

  /** Serializes both records, truncates the pair to the model's token
    * budget, and featurizes — the full "what the model sees" path.
    */
  def featurizePair(
      fieldsA: Seq[Serializer.Field],
      fieldsB: Seq[Serializer.Field],
      scheme: Serializer.Scheme,
      budget: Int
  ): Array[Double] = {
    val (ta, tb) = Serializer.truncatePair(
      Serializer.serialize(fieldsA, scheme),
      Serializer.serialize(fieldsB, scheme),
      budget)
    features(ta, tb)
  }
}
