package repro.datagen

/** A company record as published by one data source (paper Fig. 2, top).
  *
  * `entityId` is the ground-truth group: all records with the same
  * `entityId` are matches (after acquisition events merge groups).
  * `description` is null for records without a textual description.
  */
case class CompanyRecord(
    recordId: Long,
    source: Int,
    entityId: Long,
    name: String,
    city: String,
    region: String,
    country: String,
    description: String
)

/** A security record as published by one data source (paper Fig. 2, bottom).
  *
  * A security belongs to exactly one company; `issuerRecordId` points at the
  * issuing company's record *in the same source* (that is how the ID Overlap
  * blocking for companies and the Issuer Match blocking for securities
  * traverse the company–security relationship). Identifier attributes are
  * null when the source does not carry them.
  */
case class SecurityRecord(
    recordId: Long,
    source: Int,
    entityId: Long,
    issuerRecordId: Long,
    issuerEntityId: Long,
    name: String,
    secType: String,
    isin: String,
    cusip: String,
    valor: String,
    sedol: String
)

/** Generation parameters (paper §3.2: "can be fully parameterized").
  *
  * Group-level event/artifact probabilities are applied per record group (or
  * per consecutive pair of groups for the cross-group events), exactly like
  * the paper's data artifacts; multiple artifacts compose on one group.
  */
case class GenParams(
    nGroups: Int,
    nSources: Int,
    /** probability a company entity has a record in a given source */
    companyPresence: Double,
    /** probability a security entity has a record in a given source */
    securityPresence: Double,
    /** probability a consecutive pair of groups is an acquisition event */
    pAcquisition: Double,
    /** probability a consecutive pair of groups is a merger event */
    pMerger: Double,
    pAcronym: Double,
    pCorporateTerm: Double,
    pParaphrase: Double,
    /** probability a company entity has a description at all */
    pDescription: Double,
    pMultipleIds: Double,
    pNoIdOverlaps: Double,
    pMultipleSecurities: Double,
    /** per-record probabilities that an identifier field is populated */
    pIsin: Double,
    pCusip: Double,
    pValor: Double,
    pSedol: Double,
    /** probability a security record's name is a generic type-only name */
    pGenericSecurityName: Double,
    /** "real" vendor records carry longer, more verbose descriptions */
    longDescriptions: Boolean,
    seed: Long
) {
  require(nGroups % 2 == 0, "nGroups must be even (events pair consecutive groups)")
}

object GenParams {

  /** Synthetic benchmark datasets (paper Table 1, Synthetic columns):
    * 5 sources, ~4.3 company records/entity, ~3.6 security records/entity,
    * ~32% of company records with descriptions.
    */
  def synthetic(nGroups: Int, seed: Long): GenParams = GenParams(
    nGroups = nGroups, nSources = 5,
    companyPresence = 0.87, securityPresence = 0.72,
    pAcquisition = 0.06, pMerger = 0.06,
    pAcronym = 0.10, pCorporateTerm = 0.30, pParaphrase = 0.25,
    pDescription = 0.45,
    pMultipleIds = 0.12, pNoIdOverlaps = 0.12, pMultipleSecurities = 0.10,
    pIsin = 0.90, pCusip = 0.55, pValor = 0.40, pSedol = 0.35,
    pGenericSecurityName = 0.45,
    longDescriptions = false, seed = seed
  )

  /** The "real" labeled subset stand-in (paper §5.1.1): 8 sources, mostly
    * easy ID-matched groups, very low proportion of edge cases, longer
    * descriptions, higher identifier coverage.
    */
  def real(nGroups: Int, seed: Long): GenParams = GenParams(
    nGroups = nGroups, nSources = 8,
    companyPresence = 0.55, securityPresence = 0.62,
    pAcquisition = 0.015, pMerger = 0.015,
    pAcronym = 0.04, pCorporateTerm = 0.20, pParaphrase = 0.10,
    pDescription = 0.35,
    pMultipleIds = 0.02, pNoIdOverlaps = 0.02, pMultipleSecurities = 0.06,
    pIsin = 0.95, pCusip = 0.75, pValor = 0.55, pSedol = 0.55,
    pGenericSecurityName = 0.30,
    longDescriptions = true, seed = seed
  )
}
