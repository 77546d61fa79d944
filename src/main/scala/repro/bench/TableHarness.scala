package repro.bench

import org.apache.spark.sql.DataFrame

import repro.compress.BlockCodec
import repro.core.{DeepMapping, DmConfig, Encoding, ValueDicts}
import repro.nn.Trainer
import repro.store.{BufferPool, KeyValueStore, KvData}

/** Shared measurement utilities for the Table I–V benchmark drivers.
  *
  * Conventions mirror the paper's §V-B: each latency number is the mean
  * of `Reps` runs of a batch of B random existing-key lookups; storage is
  * the offline on-disk footprint. All sizes are scaled (DESIGN.md §5).
  */
object TableHarness {

  /** Repetitions per latency measurement (paper uses 5; scaled). */
  val Reps = 2

  final case class Dataset(name: String, df: DataFrame, keyCol: String, valueCols: Seq[String]) {
    lazy val dicts: ValueDicts = Encoding.buildDicts(df, valueCols)
    lazy val data: KvData = Encoding.toKvData(df, keyCol, valueCols, dicts)
    def cards: Array[Int] = dicts.cols.map(_.size)
  }

  def timeMs[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e6)
  }

  /** `count` random existing keys (with replacement), seeded. */
  def randomKeys(existing: Array[Long], count: Int, seed: Long): Array[Long] = {
    val rng = new java.util.Random(seed)
    Array.fill(count)(existing(rng.nextInt(existing.length)))
  }

  /** Mean lookup latency (ms) over [[Reps]] batches of size `b`. */
  def lookupLatencyMs(store: KeyValueStore, existing: Array[Long], b: Int, seed: Long): Double = {
    var total = 0.0
    var rep = 0
    while (rep < Reps) {
      val keys = randomKeys(existing, b, seed + rep)
      val (_, ms) = timeMs(store.lookup(keys))
      total += ms
      rep += 1
    }
    total / Reps
  }

  def mb(bytes: Long): Double = bytes / 1e6
  def fmt(d: Double): String = if (d >= 100) f"$d%.0f" else if (d >= 10) f"$d%.1f" else f"$d%.2f"

  /** Render one paper-style table: rows = metrics, columns = methods. */
  def renderTable(title: String, methods: Seq[String], metricRows: Seq[(String, Seq[String])]): String = {
    val sb = new StringBuilder
    sb.append(s"\n### $title\n\n")
    sb.append("| Metric | " + methods.mkString(" | ") + " |\n")
    sb.append("|---" * (methods.length + 1) + "|\n")
    metricRows.foreach { case (metric, cells) =>
      sb.append(s"| $metric | " + cells.mkString(" | ") + " |\n")
    }
    sb.toString
  }

  /** DM training config used across benches (scaled-down §V-A.6).
    * Smaller batches than the paper's 16384: at our row counts the
    * memorisation quality is gated by optimizer steps, not throughput. */
  def dmTrain(rows: Int): Trainer.Config = {
    val epochs = if (rows <= 50_000) 25 else if (rows <= 150_000) 14 else 8
    Trainer.Config(epochs = epochs, batchSize = 1024, lr = 2e-3f, lrDecay = 0.9999f)
  }

  /** Build DM-Z: zstd T_aux in 512 KB partitions. */
  def buildDmZ(data: KvData, dicts: ValueDicts, poolBudget: Long): DeepMapping =
    DeepMapping.build(data, dicts,
      DmConfig(codec = BlockCodec.Zstd(3), partitionBytes = 512 * 1024,
        poolBudget = poolBudget, train = dmTrain(data.rows)))

  /** Cheap DM variant sharing the trained model/V_exist/f_decode but with
    * T_aux re-packed under a different codec / partition size / pool. */
  def deriveDm(dm: DeepMapping, codec: BlockCodec, partBytes: Int, poolBudget: Long): DeepMapping = {
    val (auxKeys, auxCols) = dm.aux.entries()
    val aux = repro.core.AuxTable.build(auxKeys, auxCols, codec, partBytes, new BufferPool(poolBudget))
    new DeepMapping(dm.model, dm.enc, dm.dicts, aux, dm.exist,
      DmConfig(codec = codec, partitionBytes = partBytes, poolBudget = poolBudget, train = dm.cfg.train))
  }
}
