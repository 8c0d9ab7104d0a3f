package repro.datagen

import org.apache.spark.sql.{Dataset, SparkSession}
import scala.util.Random

import Artifacts.rngFor

/** Product record in the WDC-Products-like benchmark (paper §5.1.4). */
case class ProductRecord(
    recordId: Long,
    source: Int,
    entityId: Long,
    title: String,
    brand: String,
    description: String
)

/** WDC-Products stand-in (paper §5.1.4: "large" variant with 80% corner
  * cases, test set with unseen entities).
  *
  * The two WDC properties the paper's analysis relies on are reproduced:
  *  - **corner cases**: most entities have sibling entities whose offers
  *    differ only in a model-number token ("X200 Pro" vs "X210 Pro"), which
  *    produces hard near-duplicate negatives under token-overlap blocking;
  *  - **heterogeneous group sizes** (1 … ~12 offers per product), which is
  *    exactly the setting where GraLMatch's fixed μ cap misfits (paper
  *    §6.2.3).
  *
  * Records are web offers, so every record gets its own pseudo-source (the
  * cross-source constraint of the blockings is then vacuous, like matching
  * thousands of web sources).
  */
object WdcGen {

  private val Brands = Vector(
    "Acme", "Zentro", "Novex", "Quanta", "Helix", "Orbix", "Vertex", "Lumos",
    "Pyron", "Kestrel", "Mirad", "Tellux"
  )
  private val Categories = Vector(
    "Wireless Mouse", "Gaming Keyboard", "USB Hub", "SSD Drive", "Monitor",
    "Router", "Webcam", "Headset", "Power Bank", "Memory Card", "Printer",
    "Graphics Card"
  )
  private val ModelPrefixes = Vector("X", "Z", "PRO", "GT", "MK", "NEO", "ULTRA", "AIR")
  private val Variants      = Vector("Pro", "Lite", "Plus", "Max", "SE", "")
  private val Specs = Vector(
    "16GB", "32GB", "64GB", "128GB", "256GB", "1TB", "2.4GHz", "5GHz",
    "RGB", "4K", "1080p", "USB-C", "Bluetooth", "Wired"
  )

  /** Share of product families with sibling entities (the corner cases). */
  private val CornerCaseShare = 0.8

  /** Largest number of offers of one product. */
  private val MaxGroupSize = 12

  final case class WdcParams(nFamilies: Int, seed: Long = 29L)

  private def groupSize(rng: Random): Int = {
    // heterogeneous, heavy at small sizes: 1 + geometric(0.35), capped
    var k = 1
    while (k < MaxGroupSize && rng.nextDouble() < 0.65) k += 1
    k
  }

  private def title(
      brand: String, category: String, model: String, variant: String, rng: Random
  ): String = {
    val spec = if (rng.nextDouble() < 0.6) " " + Specs(rng.nextInt(Specs.size)) else ""
    // real web offers often omit the exact model number — that omission is
    // what makes sibling entities genuine corner cases (indistinguishable
    // titles across different products)
    val withModel = rng.nextDouble() < 0.7
    val core =
      if (withModel) s"$model${if (variant.nonEmpty) " " + variant else ""}"
      else variant
    rng.nextInt(4) match {
      case 0 => s"$brand $category $core$spec".trim
      case 1 => s"$brand $core $category$spec".trim
      case 2 => s"$core $category by $brand$spec".trim
      case _ => s"$brand $category $core$spec New".trim
    }
  }

  /** Generates the records of one product family: 1–3 sibling entities that
    * differ only in the model-number token (the corner cases).
    */
  def generateFamily(p: WdcParams, famIdx: Long): Seq[ProductRecord] = {
    val rng      = rngFor(p.seed, famIdx, 1L)
    val brand    = Brands(rng.nextInt(Brands.size))
    val category = Categories(rng.nextInt(Categories.size))
    val prefix   = ModelPrefixes(rng.nextInt(ModelPrefixes.size))
    val baseNum  = 100 + rng.nextInt(800)
    val variant  = Variants(rng.nextInt(Variants.size))
    val corner   = rng.nextDouble() < CornerCaseShare
    val nSiblings = if (corner) 2 + rng.nextInt(2) else 1

    (0 until nSiblings).flatMap { sib =>
      val entityId = famIdx * 4 + sib
      val model    = s"$prefix${baseNum + sib * 10}"
      val k        = groupSize(rngFor(p.seed, famIdx, 2L, sib.toLong))
      (0 until k).map { r =>
        val rRng = rngFor(p.seed, famIdx, 3L, sib.toLong, r.toLong)
        val recordId = entityId * 16 + r
        val desc =
          if (rRng.nextDouble() < 0.5)
            s"$brand $model $category offer with fast shipping"
          else null
        ProductRecord(recordId, recordId.toInt, entityId,
          title(brand, category, model, variant, rRng), brand, desc)
      }
    }
  }

  def generate(spark: SparkSession, p: WdcParams): Dataset[ProductRecord] = {
    import spark.implicits._
    spark.range(p.nFamilies).flatMap(i => generateFamily(p, i)).as[ProductRecord]
  }
}
