package repro.matcher

/** From-scratch binary logistic-regression classifier — the trainable head
  * of the language-model substitute (paper §4.1's "add a final softmax layer
  * ... and train for a few epochs").
  *
  * Optimization is full-batch gradient descent with a decaying learning
  * rate; feature extraction is distributed (DataFrame UDFs), the optimizer
  * itself runs on the driver over the collected feature matrix, which is
  * small (training pairs only). Deterministic in its inputs.
  */
final case class LogisticModel(weights: Array[Double], bias: Double) {

  def score(features: Array[Double]): Double = {
    var z = bias
    var i = 0
    while (i < weights.length) { z += weights(i) * features(i); i += 1 }
    1.0 / (1.0 + math.exp(-z))
  }
}

object LogisticModel {

  private val Epochs       = 300
  private val LearningRate = 2.0
  private val L2           = 1e-4
  // Weight of a positive example: the 5:1 negative sampling of the paper is
  // partially rebalanced so positives are not drowned.
  private val ClassWeightPos = 2.0

  /** Trains on a dense feature matrix with {0,1} labels. */
  def train(features: Array[Array[Double]], labels: Array[Int]): LogisticModel = {
    require(features.length == labels.length, "features/labels length mismatch")
    require(features.nonEmpty, "empty training set")
    val n = features.length
    val d = features.head.length
    val w = new Array[Double](d)
    var b = 0.0

    var epoch = 0
    while (epoch < Epochs) {
      val lr = LearningRate / (1.0 + 0.02 * epoch)
      val gw = new Array[Double](d)
      var gb = 0.0
      var i = 0
      while (i < n) {
        val x = features(i)
        var z = b
        var j = 0
        while (j < d) { z += w(j) * x(j); j += 1 }
        val p = 1.0 / (1.0 + math.exp(-z))
        val cw = if (labels(i) == 1) ClassWeightPos else 1.0
        val err = cw * (p - labels(i))
        j = 0
        while (j < d) { gw(j) += err * x(j); j += 1 }
        gb += err
        i += 1
      }
      var j = 0
      while (j < d) { w(j) -= lr * (gw(j) / n + L2 * w(j)); j += 1 }
      b -= lr * gb / n
      epoch += 1
    }
    LogisticModel(w, b)
  }
}
