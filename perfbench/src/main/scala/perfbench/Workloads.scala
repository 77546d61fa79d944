package perfbench

import repro.nn.Trainer

/** One benchmark workload: the data set, the structure's sizes, and the
  * traffic of each phase. Every workload runs the same phases (lookup and
  * modification; Spark lookup when traced), so every workload reports
  * every metric.
  *
  * Sizes are scaled so that a run, with its three set-ups, fits in about
  * a minute on a 4-core machine: training costs about 25 us per row and
  * epoch, and a DM lookup about 6 us per key of model inference.
  */
final case class Workload(
    name: String,
    /** multiHigh (periodic, learnable) instead of multiLow (random). */
    highCorr: Boolean,
    rows: Int,
    /** Buffer-pool budget as a share of the raw data size. */
    poolOfRaw: Double,
    /** T_aux partition size (uncompressed). */
    auxPartitionBytes: Int,
    /** ABC-Z block size (uncompressed). */
    abczPartitionBytes: Int,
    train: Trainer.Config,
    /** Keys per lookup batch (DM and ABC-Z, each round's verified batch,
      * each traced Spark query), and the share of them that do not exist. */
    batch: Int,
    absentShare: Double,
    /** Keys per insert, update and delete chunk. */
    modChunk: Int,
    modRounds: Int,
) {
  def poolBytes(rawBytes: Long): Long = (rawBytes * poolOfRaw).toLong

  /** The same traffic at toy sizes, for the self-test. */
  def tiny: Workload = copy(rows = 3000, auxPartitionBytes = 8 * 1024, abczPartitionBytes = 16 * 1024,
    train = train.copy(epochs = 1), batch = 300, modChunk = 60, modRounds = 3)
}

object Workloads {

  /** One training config for both data sets: the build the benchmark times. */
  private val train = Trainer.Config(epochs = 3, batchSize = 256, lr = 2e-2f, lrDecay = 0.9999f, seed = 42L)

  val all: Seq[Workload] = Seq(
    // Random values: the model memorises ~0.1 % of rows, so T_aux holds
    // nearly every row. The pool is 35 % of raw (paper Table I), so T_aux
    // does not fit and every batch decompresses every block: core.aux,
    // store and compress do most of the work.
    Workload("lowcorr-spill", highCorr = false, rows = 25_000, poolOfRaw = 0.35,
      auxPartitionBytes = 64 * 1024, abczPartitionBytes = 128 * 1024, train = train,
      batch = 2000, absentShare = 0.0, modChunk = 320, modRounds = 20),
    // Periodic values: the model memorises most rows and T_aux is small.
    // The pool is 4x raw (Table II's medium machine), so T_aux stays
    // resident; encoding, inference and V_exist do nearly all the work,
    // and 10 % absent keys exercise V_exist's rejections.
    Workload("highcorr-resident", highCorr = true, rows = 25_000, poolOfRaw = 4.0,
      auxPartitionBytes = 64 * 1024, abczPartitionBytes = 128 * 1024, train = train,
      batch = 2000, absentShare = 0.1, modChunk = 320, modRounds = 40),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
