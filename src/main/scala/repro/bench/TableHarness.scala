package repro.bench

import org.apache.spark.sql.DataFrame

import repro.baseline.DeepSqueezeLite
import repro.compress.BlockCodec
import repro.core.{AuxTable, DeepMapping, DmConfig, DmStorage, Encoding, ValueDicts}
import repro.nn.Trainer
import repro.store.{BufferPool, KeyValueStore, KvData}

/** Shared measurement utilities for the Table I–V benchmark drivers, and
  * the one Table I/II driver ([[runWorkload]]).
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

  /** Latency cell: the mean batch latency, or the paper's "failed" when
    * DS's full decode exceeds the pool (it throws OutOfMemoryBudget). */
  def latencyCell(store: KeyValueStore, existing: Array[Long], b: Int, seed: Long): String =
    try fmt(lookupLatencyMs(store, existing, b, seed))
    catch { case _: DeepSqueezeLite.OutOfMemoryBudget => "failed" }

  /** Share of the raw dataset that the memory-constrained machine of
    * Tables I and III–V holds in its pool (DESIGN.md §5). */
  val ConstrainedShare = 0.35

  /** Pool budget of a machine whose memory holds `share` of the raw
    * dataset; `share` < 1 is the paper's "dataset exceeds memory". */
  def poolBudget(data: KvData, share: Double): Long = (data.rawBytes * share).toLong

  /** One measuring condition of Tables I/II: a pool budget and a batch
    * size B, reported under `label`. */
  final case class Condition(label: String, budget: Long, b: Int)

  final case class MethodResult(method: String, storageMB: Double, latencyMs: Map[String, String])
  final case class WorkloadResult(workload: String, rawMB: Double, dmAccuracy: Double, dmBreakdown: DmStorage,
                                  dsErrorRate: Double, methods: Seq[MethodResult]) {
    def storageOf(m: String): Double = methods.find(_.method == m).get.storageMB
    def latencyOf(m: String, label: String): Double = methods.find(_.method == m).get.latencyMs(label).toDouble
  }

  /** Tables I/II: build the lossless baselines, DS, DM-Z and DM-L once,
    * then measure each store under every condition by resizing its pool.
    * Each store starts from an empty pool; a condition with a new budget
    * empties it again, one with the previous condition's budget keeps it.
    * DS's error rate is probed at an unbounded budget. */
  def runWorkload(ds: Dataset, conditions: Seq[Condition], seed: Long): WorkloadResult = {
    val data = ds.data
    val existing = data.keys
    val budget = conditions.head.budget
    val dmZ = buildDmZ(data, ds.dicts, budget)
    val dmL = deriveDm(dmZ, BlockCodec.Lzma(6), 128 * 1024, budget) // model and f_decode shared
    val dsq = DeepSqueezeLite.build(data, ds.dicts.cols.map(_.size), budget)
    val stores = Baselines.lossless(ds.name.replaceAll("\\W", ""), data, budget) ++ Seq(dsq, dmZ, dmL)
    val methods = stores.map { s =>
      s.pool.clear()
      MethodResult(s.name, mb(s.storageBytes), conditions.map { c =>
        s.pool.resize(c.budget)
        c.label -> latencyCell(s, existing, c.b, seed)
      }.toMap)
    }
    // DS lossiness: fraction of sampled rows DS reconstructs wrongly.
    dsq.pool.resize(Long.MaxValue)
    val sampleKeys = randomKeys(existing, 2000, seed)
    val byKey = existing.zipWithIndex.toMap
    val got = dsq.lookup(sampleKeys)
    val wrong = sampleKeys.indices.count { i =>
      val row = byKey(sampleKeys(i))
      got(i) == null || (0 until data.nCols).exists(c => got(i)(c) != data.cols(c)(row))
    }
    val result = WorkloadResult(ds.name, mb(data.rawBytes), dmZ.modelAccuracy(data), dmZ.storage,
      wrong.toDouble / sampleKeys.length, methods)
    stores.foreach(_.close())
    result
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

  /** Render Tables I/II: per workload, the storage row, one latency row
    * per `(row name, condition label)`, and the DM and DS notes. */
  def render(heading: String, results: Seq[WorkloadResult], latencyRows: Seq[(String, String)]): String =
    results.map { w =>
      renderTable(w.workload, w.methods.map(_.method),
        (s"Storage size (MB) [raw=${fmt(w.rawMB)}]", w.methods.map(m => fmt(m.storageMB))) +:
          latencyRows.map { case (row, label) => (row, w.methods.map(_.latencyMs(label))) }) +
        f"Model memorised ${w.dmAccuracy * 100}%.1f%% of tuples; " +
        f"DM breakdown (KB): model=${w.dmBreakdown.modelBytes / 1e3}%.1f " +
        f"aux=${w.dmBreakdown.auxBytes / 1e3}%.1f exist=${w.dmBreakdown.existBytes / 1e3}%.1f " +
        f"decode=${w.dmBreakdown.decodeBytes / 1e3}%.1f; " +
        f"DS (lossy) reconstructs ${w.dsErrorRate * 100}%.1f%% of sampled rows wrongly\n"
    }.mkString(s"\n$heading\n", "", "")

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

  /** Cheap DM variant sharing the trained model and f_decode, with T_aux
    * re-packed under a different codec / partition size / pool, and its own
    * copy of V_exist, so each DM answers only its own modifications. */
  def deriveDm(dm: DeepMapping, codec: BlockCodec, partBytes: Int, poolBudget: Long): DeepMapping = {
    val (auxKeys, auxCols) = dm.aux.entries()
    val aux = AuxTable.build(auxKeys, auxCols, codec, partBytes, new BufferPool(poolBudget))
    new DeepMapping(dm.model, dm.enc, dm.dicts, aux, dm.exist.copy,
      dm.cfg.copy(codec = codec, partitionBytes = partBytes, poolBudget = poolBudget))
  }
}
