package repro.matcher

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class LogisticModelSpec extends AnyFunSuite {

  test("learns a linearly separable 1D problem") {
    val xs = (0 until 100).map(i => Array(i / 100.0)).toArray
    val ys = (0 until 100).map(i => if (i >= 50) 1 else 0).toArray
    val m = LogisticModel.train(xs, ys)
    assert(m.score(Array(0.9)) >= 0.5)
    assert(m.score(Array(0.1)) < 0.5)
  }

  test("learns AND-like interaction of two features") {
    val rnd = new Random(1)
    val data = (0 until 400).map { _ =>
      val a = rnd.nextDouble(); val b = rnd.nextDouble()
      (Array(a, b), if (a + b > 1.2) 1 else 0)
    }
    val m = LogisticModel.train(data.map(_._1).toArray, data.map(_._2).toArray)
    assert(m.score(Array(0.9, 0.9)) >= 0.5)
    assert(m.score(Array(0.1, 0.2)) < 0.5)
  }

  test("training is deterministic") {
    val xs = Array(Array(0.1), Array(0.9), Array(0.2), Array(0.8))
    val ys = Array(0, 1, 0, 1)
    val m1 = LogisticModel.train(xs, ys)
    val m2 = LogisticModel.train(xs, ys)
    assert(m1.weights.sameElements(m2.weights) && m1.bias == m2.bias)
  }

  test("score is a probability") {
    val m = LogisticModel(Array(3.0, -2.0), 0.5)
    val s = m.score(Array(0.4, 0.9))
    assert(s > 0.0 && s < 1.0)
  }

  test("rejects mismatched input lengths") {
    intercept[IllegalArgumentException] {
      LogisticModel.train(Array(Array(1.0)), Array(0, 1))
    }
  }

  test("rejects empty training sets") {
    intercept[IllegalArgumentException] {
      LogisticModel.train(Array.empty[Array[Double]], Array.empty[Int])
    }
  }

  test("separates realistic match/non-match feature vectors") {
    // positives: high similarity features; negatives: low, with hard cases
    val rnd = new Random(7)
    def pos() = Array(0.7 + 0.3 * rnd.nextDouble(), 0.8 + 0.2 * rnd.nextDouble(),
      0.6 + 0.4 * rnd.nextDouble(), if (rnd.nextBoolean()) 1.0 / 3 else 0.0,
      rnd.nextDouble(), 1.0, 0.8, 0.7)
    def neg() = Array(0.2 * rnd.nextDouble(), 0.3 * rnd.nextDouble(),
      0.2 * rnd.nextDouble(), 0.0, rnd.nextDouble() * 0.3, 0.0, 0.5, 0.1)
    val xs = (Array.fill(100)(pos()) ++ Array.fill(500)(neg()))
    val ys = Array.fill(100)(1) ++ Array.fill(500)(0)
    val m = LogisticModel.train(xs, ys)
    val acc = xs.indices.count(i => (m.score(xs(i)) >= 0.5) == (ys(i) == 1)).toDouble / xs.length
    assert(acc > 0.97, s"accuracy $acc")
  }
}
