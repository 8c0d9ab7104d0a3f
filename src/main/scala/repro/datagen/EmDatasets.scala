package repro.datagen

import org.apache.spark.sql.{Dataset, SparkSession}
import scala.util.Random

import Artifacts._
import NamePools._

/** Multi-source entity-group-matching dataset generator (paper §3.2/§3.3).
  *
  * The generation unit is a *pair of consecutive groups* (2i, 2i+1) so the
  * cross-group events (acquisition / merger) can be applied without any
  * shuffle: `spark.range(nGroups / 2).flatMap(genPair)` — fully distributed
  * and deterministic in (params, seed).
  *
  * Every company record carries its ground-truth `entityId` (group), every
  * security record likewise; acquisition events merge the ground-truth
  * groups of both companies (and of the acquiree's primary security into the
  * acquirer's), mergers only pollute identifiers without merging groups.
  */
object EmDatasets {

  final case class GroupRecords(
      companies: Seq[CompanyRecord],
      securities: Seq[SecurityRecord]
  )

  /** Offset separating security record ids from company record ids. */
  val SecurityIdOffset: Long = 1000000000L

  def companyRecordId(gid: Long, source: Int): Long = gid * 16 + source

  def securityRecordId(gid: Long, secIdx: Int, source: Int): Long =
    SecurityIdOffset + (gid * 8 + secIdx) * 16 + source

  def securityEntityId(gid: Long, secIdx: Int): Long = gid * 8 + secIdx

  // ----------------------------------------------------------------------
  // per-record rendering
  // ----------------------------------------------------------------------

  /** Company name as published by one source, with the AcronymName /
    * InsertCorporateTerm artifacts and ordinary naming-practice variation.
    */
  private[datagen] def renderCompanyName(base: BaseCompany, rng: Random): String = {
    val art = base.artifacts
    if (art.acronymName && base.coreTokens.size >= 2 && rng.nextDouble() < 0.35)
      acronym(base.coreTokens)
    else {
      // ordinary naming-practice noise across vendors: some sources list a
      // shortened name, some carry a transposition typo
      val core0 =
        if (base.coreTokens.size >= 2 && rng.nextDouble() < 0.15) base.coreTokens.init
        else base.coreTokens
      val core =
        if (rng.nextDouble() < 0.07) {
          val i = rng.nextInt(core0.size)
          core0.updated(i, typo(core0(i), rng))
        } else core0
      val suffix =
        if (art.insertCorporateTerm) {
          // the inserted common term varies by source: Inc. here, Limited there
          val r = rng.nextDouble()
          if (r < 0.45) base.suffix else if (r < 0.8) base.altSuffix else ""
        } else if (rng.nextDouble() < 0.5) base.suffix
        else ""
      val n = (core.mkString(" ") + (if (suffix.nonEmpty) " " + suffix else "")).trim
      if (rng.nextDouble() < 0.08) n.toUpperCase else n
    }
  }

  /** (city, region, country) in one of the source formatting conventions. */
  private[datagen] def renderLocation(
      base: BaseCompany, rng: Random
  ): (String, String, String) = {
    val (city, regionFull, regionAbbr, countryName, a2, a3) = base.place
    rng.nextInt(5) match {
      case 0 => (city, regionFull, a3)
      case 1 => ("", regionAbbr, a2)
      case 2 => (city, regionAbbr, a2)
      case 3 => ("", "", countryName)
      case _ => (city, "", a2)
    }
  }

  private[datagen] def renderDescription(
      base: BaseCompany, p: GenParams, rng: Random
  ): String = {
    if (!base.hasDescription || rng.nextDouble() >= 0.70) null
    else {
      val (city, _, _, countryName, _, _) = base.place
      val short =
        s"${base.coreName} is a ${base.adjective} company that provides ${base.activity} worldwide."
      val text =
        if (p.longDescriptions)
          short + s" The company is based in $city, $countryName and serves customers " +
            s"across multiple regions, delivering ${base.activity} to institutional and retail clients."
        else short
      if (base.artifacts.paraphrase && rng.nextDouble() < 0.5) paraphrase(text) else text
    }
  }

  private def present(rng: Random, prob: Double): Boolean = rng.nextDouble() < prob

  /** Renders all records of one group, before any pair event is applied. */
  private[datagen] def renderGroup(p: GenParams, base: BaseCompany): GroupRecords = {
    val gid = base.gid

    // presence of the company record per source (at least one source)
    val presRng = rngFor(p.seed, gid, 3L)
    val srcAll  = (1 to p.nSources).toVector
    val chosen  = srcAll.filter(_ => present(presRng, p.companyPresence))
    val companySources =
      if (chosen.nonEmpty) chosen else Vector(srcAll(presRng.nextInt(srcAll.size)))

    val companies = companySources.map { s =>
      val rng = rngFor(p.seed, gid, 4L, s.toLong)
      val name = renderCompanyName(base, rng)
      val (city, region, country) = renderLocation(base, rng)
      CompanyRecord(companyRecordId(gid, s), s, gid, name, city, region, country,
        renderDescription(base, p, rng))
    }.toSeq

    val securities = base.securities.flatMap { sec =>
      val sRng = rngFor(p.seed, gid, 5L, sec.secIdx.toLong)
      val secSources = {
        val c = srcAll.filter(_ => present(sRng, p.securityPresence))
        if (c.nonEmpty) c else Vector(srcAll(sRng.nextInt(srcAll.size)))
      }
      secSources.map { s =>
        val rng = rngFor(p.seed, gid, 6L, sec.secIdx.toLong, s.toLong)
        val generic = rng.nextDouble() < p.pGenericSecurityName
        val name =
          if (generic) sec.secType
          else s"${renderCompanyName(base, rng)} ${sec.secType}"
        // MultipleIDs: records of the security carry one of two id sets,
        // splitting the id-overlap clique of the group.
        val ids =
          if (base.artifacts.multipleIds && rng.nextDouble() < 0.5) sec.altIds
          else sec.ids
        // NoIdOverlaps: wipe identifiers of the whole group.
        val wipe = base.artifacts.noIdOverlaps
        val issuer =
          if (companySources.contains(s)) companyRecordId(gid, s) else -1L
        SecurityRecord(
          securityRecordId(gid, sec.secIdx, s), s,
          securityEntityId(gid, sec.secIdx), issuer, gid, name, sec.secType,
          if (!wipe && present(rng, p.pIsin)) ids.isin else null,
          if (!wipe && present(rng, p.pCusip)) ids.cusip else null,
          if (!wipe && present(rng, p.pValor)) ids.valor else null,
          if (!wipe && present(rng, p.pSedol)) ids.sedol else null
        )
      }
    }
    GroupRecords(companies, securities)
  }

  // ----------------------------------------------------------------------
  // pair events
  // ----------------------------------------------------------------------

  /** The sources that recorded a pair event on group `gid`: each with
    * probability 0.5, and one uniform source if that draws none. `stream`
    * keeps the two events' draws apart.
    */
  private def eventSources(p: GenParams, gid: Long, stream: Long): Set[Int] = {
    val rng = rngFor(p.seed, gid, stream)
    val u = (1 to p.nSources).filter(_ => rng.nextDouble() < 0.5).toSet
    if (u.nonEmpty) u else Set(1 + rng.nextInt(p.nSources))
  }

  /** Applies the acquisition event: acquirer A absorbs acquiree B.
    *
    * All of B's records become matches of A's (paper §3.2): B's company
    * records take A's company entity id, and B's *primary* security records
    * take A's primary security's entity id. Sources that recorded the event
    * overwrite B's identifiers (and, with probability 0.6, the company's
    * textual attributes) with A's — so an updated record that keeps B's text
    * but carries A's identifiers is the transitive bridge (paper Fig. 3,
    * record #21), while non-updated sources keep records that can only be
    * matched transitively through that bridge.
    */
  private[datagen] def applyAcquisition(
      p: GenParams, a: BaseCompany, b: BaseCompany, recsB: GroupRecords
  ): GroupRecords = {
    val updatedSources = eventSources(p, b.gid, 7L)
    val aSec0 = a.securities.head

    val companies = recsB.companies.map { c =>
      val rng = rngFor(p.seed, b.gid, 8L, c.source.toLong)
      if (updatedSources.contains(c.source) && rng.nextDouble() < 0.6) {
        // the source replaced the acquiree's record with the acquirer's data
        val name = renderCompanyName(a, rng)
        val (city, region, country) = renderLocation(a, rng)
        c.copy(entityId = a.gid, name = name, city = city, region = region,
          country = country, description = renderDescription(a, p, rng))
      } else c.copy(entityId = a.gid)
    }

    val securities = recsB.securities.map { s =>
      val isPrimary = s.entityId == securityEntityId(b.gid, 0)
      if (!isPrimary) s
      else {
        val rng = rngFor(p.seed, b.gid, 9L, s.source.toLong)
        val base = s.copy(entityId = securityEntityId(a.gid, 0), issuerEntityId = a.gid)
        if (updatedSources.contains(s.source))
          base.copy(
            isin  = if (present(rng, p.pIsin)) aSec0.ids.isin else null,
            cusip = if (present(rng, p.pCusip)) aSec0.ids.cusip else null,
            valor = if (present(rng, p.pValor)) aSec0.ids.valor else null,
            sedol = if (present(rng, p.pSedol)) aSec0.ids.sedol else null
          )
        else base
      }
    }
    GroupRecords(companies, securities)
  }

  /** Applies the merger event: B's primary-security identifiers in the
    * sources that recorded the merger are overwritten with A's — producing
    * record pairs with matching identifiers that are NOT true matches
    * (paper §3.2/§3.3 challenge 1; Fig. 2 records #30/#42).
    */
  private[datagen] def applyMerger(
      p: GenParams, a: BaseCompany, b: BaseCompany, recsB: GroupRecords
  ): GroupRecords = {
    val updatedSources = eventSources(p, b.gid, 10L)
    val aSec0 = a.securities.head
    val securities = recsB.securities.map { s =>
      val isPrimary = s.entityId == securityEntityId(b.gid, 0)
      if (isPrimary && updatedSources.contains(s.source)) {
        val rng = rngFor(p.seed, b.gid, 11L, s.source.toLong)
        s.copy(
          isin  = if (present(rng, p.pIsin)) aSec0.ids.isin else s.isin,
          cusip = if (present(rng, p.pCusip)) aSec0.ids.cusip else s.cusip,
          valor = if (present(rng, p.pValor)) aSec0.ids.valor else s.valor,
          sedol = if (present(rng, p.pSedol)) aSec0.ids.sedol else s.sedol
        )
      } else s
    }
    GroupRecords(recsB.companies, securities)
  }

  /** Generates both groups of pair `pairIdx` with the pair event applied. */
  def generatePair(p: GenParams, pairIdx: Long): GroupRecords = {
    val g0 = 2 * pairIdx
    val g1 = 2 * pairIdx + 1
    val baseA = baseCompany(p, g0)
    val baseB = baseCompany(p, g1)
    val recsA = renderGroup(p, baseA)
    val recsB0 = renderGroup(p, baseB)
    val recsB = pairEvent(p, pairIdx) match {
      case NoEvent     => recsB0
      case Acquisition => applyAcquisition(p, baseA, baseB, recsB0)
      case Merger      => applyMerger(p, baseA, baseB, recsB0)
    }
    GroupRecords(recsA.companies ++ recsB.companies, recsA.securities ++ recsB.securities)
  }

  // ----------------------------------------------------------------------
  // Spark assembly
  // ----------------------------------------------------------------------

  final case class EmData(
      companies: Dataset[CompanyRecord],
      securities: Dataset[SecurityRecord]
  )

  /** Generates the full multi-source dataset as Spark Datasets. */
  def generate(spark: SparkSession, p: GenParams): EmData = {
    import spark.implicits._
    val pairs = spark.range(p.nGroups / 2)
    val companies = pairs
      .flatMap(i => generatePair(p, i).companies)
      .as[CompanyRecord]
    val securities = pairs
      .flatMap(i => generatePair(p, i).securities)
      .as[SecurityRecord]
    EmData(companies, securities)
  }
}
