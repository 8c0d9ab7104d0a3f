package repro.matcher

/** The pairwise model variants evaluated in the paper (§5.2).
  *
  * Each variant = serialization scheme × token budget × training-pair
  * policy. The classifier head is identical ([[LogisticModel]]); all
  * behavioural differences flow from what the serialized-and-truncated
  * input lets the model see and which pairs it is fine-tuned on.
  */
object ModelZoo {

  sealed trait TrainPolicy

  /** Fine-tune on all positive train-split pairs + 5:1 random negatives. */
  case object TrainAll extends TrainPolicy

  /** The DistilBERT (128)-15K policy (§5.2.1): a reduced set of training
    * pairs obtainable with moderate labeling effort — positives whose groups
    * were not involved in an acquisition and can be fully matched via
    * identifier overlaps, capped at a budget that scales like the paper's
    * 15K pairs relative to the full training set.
    */
  case object TrainFilteredClean extends TrainPolicy

  final case class ModelVariant(
      name: String,
      scheme: Serializer.Scheme,
      tokenBudget: Int,
      trainPolicy: TrainPolicy
  )

  def distilBert128All: ModelVariant =
    ModelVariant("DistilBERT (128)-ALL", Serializer.Plain, 128, TrainAll)

  def distilBert128_15K: ModelVariant =
    ModelVariant("DistilBERT (128)-15K", Serializer.Plain, 128, TrainFilteredClean)

  def ditto128: ModelVariant =
    ModelVariant("DITTO (128)", Serializer.Ditto, 128, TrainAll)

  def ditto256: ModelVariant =
    ModelVariant("DITTO (256)", Serializer.Ditto, 256, TrainAll)
}
