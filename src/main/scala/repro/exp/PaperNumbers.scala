package repro.exp

/** The paper's reported numbers (Tables 1–4), kept next to our measured
  * values so every bench prints a paper-vs-measured row and EXPERIMENTS.md
  * can be regenerated. All values are percentages unless noted.
  */
object PaperNumbers {

  final case class T3(p: Double, r: Double, f1: Double, trainTime: String)

  /** Table 3 — fine-tuning scores on test pairs. Keys: (dataset, model). */
  val table3: Map[(String, String), T3] = Map(
    ("Real Companies", "DITTO (128)")          -> T3(68.82, 83.49, 75.11, "18.74 h"),
    ("Real Companies", "DITTO (256)")          -> T3(99.90, 99.67, 99.78, "33.59 h"),
    ("Real Companies", "DistilBERT (128)-ALL") -> T3(99.93, 99.56, 99.73, "23.25 h"),
    ("Synthetic Companies", "DITTO (128)")          -> T3(99.45, 96.70, 98.15, "85.11 h"),
    ("Synthetic Companies", "DITTO (256)")          -> T3(99.55, 96.88, 98.20, "86.39 h"),
    ("Synthetic Companies", "DistilBERT (128)-15K") -> T3(99.35, 94.77, 96.99, "11.32 h"),
    ("Synthetic Companies", "DistilBERT (128)-ALL") -> T3(99.28, 96.09, 97.66, "93.28 h"),
    ("Real Securities", "DITTO (128)")          -> T3(25.55, 69.00, 33.89, "22.71 h"),
    ("Real Securities", "DITTO (256)")          -> T3(99.94, 99.13, 99.53, "37.88 h"),
    ("Real Securities", "DistilBERT (128)-ALL") -> T3(99.48, 99.48, 99.47, "20.96 h"),
    ("Synthetic Securities", "DITTO (128)")          -> T3(57.82, 56.00, 56.47, "94.43 h"),
    ("Synthetic Securities", "DITTO (256)")          -> T3(85.51, 91.35, 88.33, "122.44 h"),
    ("Synthetic Securities", "DistilBERT (128)-15K") -> T3(94.03, 61.11, 73.26, "11.62 h"),
    ("Synthetic Securities", "DistilBERT (128)-ALL") -> T3(90.96, 70.55, 79.46, "103.99 h"),
    ("WDC Products", "DITTO (128)")          -> T3(35.92, 63.20, 45.81, "27.63 min"),
    ("WDC Products", "DITTO (256)")          -> T3(48.45, 72.30, 57.71, "40.28 min"),
    ("WDC Products", "DistilBERT (128)-ALL") -> T3(46.24, 76.33, 57.58, "26.79 min")
  )

  final case class T4(
      pairP: Double, pairR: Double, pairF1: Double,
      preP: Double, preR: Double, preF1: Double, prePur: Double,
      postP: Double, postR: Double, postF1: Double, postPur: Double,
      inference: String)

  /** Table 4 — entity group matching with Blocking and GraLMatch. */
  val table4: Map[(String, String), T4] = Map(
    ("Real Companies", "DITTO (128)") ->
      T4(23.66, 99.64, 38.24, 0.05, 99.66, 0.10, 0.00, 99.86, 98.23, 99.06, 1.00, "6.7 min"),
    ("Real Companies", "DITTO (256)") ->
      T4(23.66, 99.64, 38.24, 23.52, 99.68, 38.06, 0.00, 98.42, 99.70, 99.05, 0.99, "6.6 min"),
    ("Real Companies", "DistilBERT (128)-ALL") ->
      T4(94.06, 99.27, 96.53, 49.07, 99.73, 56.92, 0.80, 86.90, 96.98, 91.64, 0.93, "3.5 min"),
    ("Synthetic Companies", "DITTO (128)") ->
      T4(33.16, 81.73, 47.18, 0.00, 83.06, 0.00, 0.00, 99.09, 36.94, 53.78, 0.99, "1h 26min"),
    ("Synthetic Companies", "DITTO (256)") ->
      T4(33.16, 81.73, 47.18, 0.00, 83.66, 0.00, 0.00, 99.07, 38.06, 54.93, 0.99, "1h 20min"),
    ("Synthetic Companies", "DistilBERT (128)-15K") ->
      T4(83.08, 77.48, 80.11, 0.01, 82.31, 0.02, 0.42, 98.06, 57.90, 72.34, 0.98, "1h 15min"),
    ("Synthetic Companies", "DistilBERT (128)-ALL") ->
      T4(77.03, 79.46, 78.18, 0.00, 82.26, 0.00, 0.23, 98.76, 43.31, 60.03, 0.99, "1h 15min"),
    ("Synthetic Companies", "DistilBERT (128)-ALL-MEC") ->
      T4(77.03, 79.46, 78.18, 0.00, 82.26, 0.00, 0.23, 98.57, 42.79, 59.50, 0.99, "1h 14min"),
    ("Synthetic Companies", "DistilBERT (128)-ALL (1/2 gamma)") ->
      T4(77.03, 79.46, 78.18, 0.00, 82.26, 0.00, 0.23, 98.79, 43.23, 59.96, 0.99, "1h 15min"),
    ("Synthetic Companies", "DistilBERT (128)-ALL-BC") ->
      T4(77.03, 79.46, 78.18, 0.00, 82.26, 0.00, 0.23, 98.76, 43.31, 60.03, 0.99, "1h 17min"),
    ("Real Securities", "DITTO (128)") ->
      T4(19.96, 91.99, 32.80, 19.95, 92.10, 32.80, 0.20, 19.35, 17.59, 18.28, 0.19, "4.8 min"),
    ("Real Securities", "DITTO (256)") ->
      T4(19.96, 91.99, 32.80, 19.94, 92.11, 32.78, 0.20, 19.70, 20.93, 20.30, 0.19, "4.5 min"),
    ("Real Securities", "DistilBERT (128)-ALL") ->
      T4(99.76, 97.77, 98.76, 99.73, 98.08, 98.90, 1.00, 99.73, 98.00, 98.86, 1.00, "2.6 min"),
    ("Synthetic Securities", "DITTO (128)") ->
      T4(97.26, 52.51, 68.20, 96.39, 54.58, 69.69, 0.98, 98.22, 44.88, 61.54, 0.99, "29.6 min"),
    ("Synthetic Securities", "DITTO (256)") ->
      T4(97.26, 52.51, 68.20, 96.23, 57.08, 71.66, 0.98, 98.31, 56.68, 71.90, 0.99, "29.0 min"),
    ("Synthetic Securities", "DistilBERT (128)-15K") ->
      T4(97.26, 57.06, 71.59, 96.05, 57.06, 71.59, 0.98, 98.08, 56.56, 71.71, 0.98, "23.3 min"),
    ("Synthetic Securities", "DistilBERT (128)-ALL") ->
      T4(95.58, 53.28, 68.40, 87.81, 58.40, 69.82, 0.94, 96.70, 57.52, 72.11, 0.97, "23.4 min"),
    ("WDC Products", "DITTO (128)") ->
      T4(19.71, 36.96, 25.71, 1.19, 50.38, 2.33, 0.01, 72.59, 9.02, 16.03, 0.84, "31 sec"),
    ("WDC Products", "DITTO (256)") ->
      T4(19.71, 36.96, 25.71, 20.34, 39.97, 26.96, 0.01, 74.14, 18.06, 28.96, 0.85, "32 sec"),
    ("WDC Products", "DistilBERT (128)-ALL") ->
      T4(39.64, 65.27, 49.32, 7.47, 71.40, 13.03, 0.43, 35.54, 57.93, 44.04, 0.53, "40 sec")
  )

  final case class T1(
      nSources: String, nEntities: String, nRecords: String,
      nMatches: String, avgMatches: String, descShare: String)

  /** Table 1 — dataset statistics as reported (strings keep the ~/< marks). */
  val table1: Map[String, T1] = Map(
    "Real Companies"       -> T1("~10", "<200K", "~600K", ">1M", "7", "25%"),
    "Synthetic Companies"  -> T1("5", "200K", "868K", "1.5M", "7.5", "32%"),
    "Real Securities"      -> T1("~10", "<250K", "~1M", ">1.5M", "10", "-"),
    "Synthetic Securities" -> T1("5", "~275K", "~984K", "~1.5M", "~5.4", "-")
  )

  final case class T2(blockings: String, nRecords: String, nCandidates: String, gamma: Int, mu: Int)

  /** Table 2 — blocking setup of the entity group matching experiment. */
  val table2: Map[String, T2] = Map(
    "Real Companies"       -> T2("ID Overlap + Token Overlap", "6.3K", "51K", 40, 8),
    "Synthetic Companies"  -> T2("ID Overlap + Token Overlap", "174K", "1.14M", 25, 5),
    "Real Securities"      -> T2("ID Overlap + Issuer Match", "12.8K", "41K", 40, 8),
    "Synthetic Securities" -> T2("ID Overlap + Issuer Match", "197K", "826K", 25, 5),
    "WDC Products"         -> T2("Token Overlap", "1K", "9.1K", 25, 5)
  )
}
