package repro.matcher

/** Record serialization schemes (paper §5.2).
  *
  * The pairwise models of the paper differ in how a record is serialized
  * into a token sequence before the Transformer sees it:
  *
  *  - **plain** (DistilBERT variants): attribute values concatenated as word
  *    tokens. Identifier values stay whole tokens, so an exact identifier
  *    match is visible as one shared token.
  *  - **ditto** (DITTO variants): every column is wrapped as
  *    `[col] <name> [val] <value>` — including *empty* columns (`none`) —
  *    and identifier values are split into character tokens, emulating how
  *    a wordpiece tokenizer shreds alphanumeric codes into "long sequences
  *    of uninformative tokens" (paper §6.1). The tag overhead plus the
  *    shredded identifiers is what makes the 128-token budget bind for
  *    DITTO on identifier-centric records while DistilBERT's plain
  *    serialization still fits.
  *
  * A pair of serialized records shares one token budget (the model's max
  * sequence length); [[Serializer.truncatePair]] applies the standard
  * longest-first truncation.
  */
object Serializer {

  /** One attribute of a record: column name, value (null ⇒ missing), and
    * whether the column holds an identifier code.
    */
  final case class Field(column: String, value: String, isId: Boolean)

  /** A serialization scheme: [[Plain]] or [[Ditto]]. */
  sealed trait Scheme

  /** Attribute values as word tokens; identifier values stay whole. */
  case object Plain extends Scheme

  /** Every column, missing ones included, wrapped in `[col]`/`[val]` tags;
    * words shredded into wordpieces and identifier values into characters.
    */
  case object Ditto extends Scheme

  /** Word tokens of a free-text value (lowercased, punctuation split). */
  def wordTokens(value: String): Seq[String] =
    value.toLowerCase.split("[^a-z0-9]+").filter(_.nonEmpty).toSeq

  /** Wordpiece emulation for the ditto scheme: words longer than 3 chars
    * are shredded into 2-char pieces, the way a subword tokenizer inflates
    * the token count of domain-specific vocabulary. Combined with the
    * per-column tags and the character-split identifiers this is what makes
    * a 128-token pair budget bind on identifier-rich records (paper §6.1:
    * "long sequences of uninformative tokens").
    */
  private[matcher] def wordpieces(t: String): Seq[String] =
    if (t.length <= 3) Seq(t) else t.grouped(2).toSeq

  /** Serializes one record into its token sequence under `scheme`. */
  def serialize(fields: Seq[Field], scheme: Scheme): Seq[String] = {
    val ditto = scheme == Ditto
    fields.flatMap { f =>
      val valueTokens: Seq[String] =
        if (f.value == null || f.value.isEmpty)
          if (ditto) Seq("none") else Nil
        else if (f.isId && ditto) f.value.toLowerCase.map(_.toString)
        else if (f.isId) Seq(f.value.toLowerCase)
        else if (ditto) wordTokens(f.value).flatMap(wordpieces)
        else wordTokens(f.value)
      if (ditto)
        Seq("[col]") ++ wordpieces(f.column.toLowerCase) ++ Seq("[val]") ++ valueTokens
      else valueTokens
    }
  }

  /** Longest-first truncation of a serialized pair to `budget` total tokens
    * (the standard sentence-pair truncation of BERT-style models: repeatedly
    * drop the last token of the currently longer sequence).
    */
  def truncatePair(
      a: Seq[String], b: Seq[String], budget: Int
  ): (Seq[String], Seq[String]) = {
    var la = a.length
    var lb = b.length
    while (la + lb > budget && (la > 0 || lb > 0)) {
      if (la >= lb) la -= 1 else lb -= 1
    }
    (a.take(la), b.take(lb))
  }
}
