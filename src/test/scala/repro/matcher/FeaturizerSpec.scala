package repro.matcher

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.testkit.Props
import Serializer.Field

class FeaturizerSpec extends AnyFunSuite with Props {

  private val Eps = 1e-9

  test("identical sequences have jaccard/containment/trigram 1") {
    val f = Featurizer.features(Seq("swiss", "energy"), Seq("swiss", "energy"))
    assert(math.abs(f(0) - 1.0) < Eps)
    assert(math.abs(f(1) - 1.0) < Eps)
    assert(math.abs(f(2) - 1.0) < Eps)
  }

  test("disjoint sequences have zero similarity features") {
    val f = Featurizer.features(Seq("alpha"), Seq("omega"))
    assert(f(0) == 0.0 && f(1) == 0.0 && f(3) == 0.0 && f(5) == 0.0)
  }

  test("empty sequences do not blow up") {
    val f = Featurizer.features(Nil, Nil)
    assert(f.forall(v => !v.isNaN && !v.isInfinite))
  }

  test("half-overlapping names score between 0 and 1") {
    val f = Featurizer.features(Seq("swiss", "energy", "holdings"), Seq("swiss", "energy", "group"))
    assert(f(0) > 0.4 && f(0) < 0.8)
  }

  test("sharedIdTokens counts long digit-bearing tokens") {
    val f = Featurizer.features(
      Seq("equity", "shares", "us318077556e"),
      Seq("common", "stock", "us318077556e"))
    assert(math.abs(f(3) - 1.0 / 3.0) < Eps)
  }

  test("sharedIdTokens caps at 3") {
    val ids = Seq("aaa111", "bbb222", "ccc333", "ddd444")
    val f = Featurizer.features(ids, ids)
    assert(math.abs(f(3) - 1.0) < Eps)
  }

  test("character tokens never count as id tokens (ditto blindness)") {
    val shredded = "us318077556e".map(_.toString)
    val f = Featurizer.features(shredded, shredded)
    assert(f(3) == 0.0)
  }

  test("digitTokenSim separates model numbers") {
    val same = Featurizer.features(Seq("acme", "x200"), Seq("acme", "x200"))
    val diff = Featurizer.features(Seq("acme", "x200"), Seq("acme", "x210"))
    assert(same(4) > diff(4))
  }

  test("firstTokenEqual flags matching heads") {
    assert(Featurizer.features(Seq("acme", "a"), Seq("acme", "b"))(5) == 1.0)
    assert(Featurizer.features(Seq("acme"), Seq("zeta"))(5) == 0.0)
  }

  test("lengthRatio is min/max") {
    val f = Featurizer.features(Seq("a", "b"), Seq("c", "d", "e", "f"))
    assert(math.abs(f(6) - 0.5) < Eps)
  }

  test("feature vector has the declared arity") {
    // eight features, whatever the inputs, empty ones included
    val inputs = Seq(
      (Seq("x"), Seq("y")), (Seq.empty[String], Seq.empty[String]), (Seq("a"), Seq.empty[String]),
      (Seq("swiss", "energy", "US318077556E"), Seq("swiss", "power", "US318077556E", "ltd")))
    assert(inputs.map { case (a, b) => Featurizer.features(a, b).length }.toSet == Set(8))
  }

  test("features are symmetric in their arguments") {
    val a = Seq("swiss", "energy", "ag", "zurich")
    val b = Seq("swiss", "power", "ltd")
    val fab = Featurizer.features(a, b)
    val fba = Featurizer.features(b, a)
    // all set-based features are symmetric; order-based ones (first token,
    // prefix) are symmetric too since both compare the same positions
    fab.zip(fba).foreach { case (x, y) => assert(math.abs(x - y) < Eps) }
  }

  test("property: all features lie in [0, 1]") {
    val tokens = Gen.listOf(Gen.oneOf("swiss", "energy", "acme", "x200", "us318077556e", "inc"))
    checkProp(Prop.forAll(tokens, tokens) { (a, b) =>
      Featurizer.features(a, b).forall(v => v >= 0.0 && v <= 1.0 + Eps)
    })
  }

  test("featurizePair truncates before featurizing: DITTO-128 loses ids on long pairs") {
    // two securities whose only commonality is the identifier; make the
    // serialized pair long enough that a 128 budget clips the ids under the
    // ditto scheme (tags + shredded chars), but not under plain.
    def sec(name: String) = Seq(
      Field("name", name, isId = false),
      Field("secType", "Ordinary Share", isId = false),
      Field("isin", "US318077556E", isId = true),
      Field("cusip", "318077DSI", isId = true),
      Field("valor", "109790723", isId = true),
      Field("sedol", "L9HAA4QZX", isId = true))
    val a = sec("Crowdstrike Holdings International Incorporated Worldwide Group")
    val b = sec("Crowd Strike Platforms Enterprises Corporation Global Alliance")
    val plain = Featurizer.featurizePair(a, b, Serializer.Plain, 128)
    assert(plain(3) > 0.9, "plain scheme must see all four shared ids")
    val serA = Serializer.serialize(a, Serializer.Ditto)
    assert(serA.size > 64, "ditto serialization must overflow half the budget")
  }

  test("featurizePair under generous budget is identical across budgets") {
    val a = Seq(Field("name", "acme corp", isId = false))
    val b = Seq(Field("name", "acme inc", isId = false))
    val f1 = Featurizer.featurizePair(a, b, Serializer.Plain, 128)
    val f2 = Featurizer.featurizePair(a, b, Serializer.Plain, 256)
    assert(f1.sameElements(f2))
  }
}
