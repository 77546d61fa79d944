package repro.bench

import org.apache.spark.sql.SparkSession

import repro.core.DmStorage
import repro.data.{CropData, SynthCorr, TpchCat}
import repro.store.KeyValueStore

/** Paper Table I — offline storage size and query latency for datasets
  * that EXCEED the available memory pool (small-size machine).
  *
  * Scaled per DESIGN.md §5: the memory pool is 35 % of the uncompressed
  * dataset, so uncompressed baselines thrash the LRU pool while the
  * DeepMapping structure stays resident — the paper's central scenario.
  */
object TableI {

  final case class MethodResult(method: String, storageMB: Double, latencyMs: Map[Int, String])
  final case class WorkloadResult(workload: String, rawMB: Double, dmAccuracy: Double,
                                  dmBreakdown: DmStorage, methods: Seq[MethodResult]) {
    def storageOf(m: String): Double = methods.find(_.method == m).get.storageMB
    def latencyOf(m: String, b: Int): Double = methods.find(_.method == m).get.latencyMs(b).toDouble
  }

  val Batches: Seq[Int] = Seq(500, 5000, 50000)

  def datasets(spark: SparkSession, scale: Double): Seq[TableHarness.Dataset] = {
    val s = scale
    Seq(
      TableHarness.Dataset("TPC-H Lineitem", TpchCat.lineitem(spark, sf = 0.05 * s), "l_key",
        Seq("l_returnflag", "l_linestatus", "l_shipmode", "l_shipinstruct")),
      TableHarness.Dataset("Synthetic Single-Low", SynthCorr.singleLow(spark, (250_000 * s).toLong), "k", Seq("v")),
      TableHarness.Dataset("Synthetic Single-High", SynthCorr.singleHigh(spark, (250_000 * s).toLong), "k", Seq("v")),
      TableHarness.Dataset("Synthetic Multi-Low", SynthCorr.multiLow(spark, (250_000 * s).toLong), "k",
        Seq("v1", "v2", "v3", "v4")),
      TableHarness.Dataset("Synthetic Multi-High", SynthCorr.multiHigh(spark, (250_000 * s).toLong), "k",
        Seq("v1", "v2", "v3", "v4")),
      TableHarness.Dataset("Crop Dataset", CropData.crops(spark, 1000, (250 * s).toInt max 20), "crop_key",
        Seq("crop_type")),
    )
  }

  def run(spark: SparkSession, scale: Double = 1.0, seed: Long = 77): Seq[WorkloadResult] =
    datasets(spark, scale).map(runWorkload(_, seed))

  def runWorkload(ds: TableHarness.Dataset, seed: Long): WorkloadResult = {
    import TableHarness._
    val data = ds.data
    val poolBudget = math.max(1L << 20, (data.rawBytes * 0.35).toLong) // dataset exceeds memory
    val dmZ = buildDmZ(data, ds.dicts, poolBudget)
    val dmL = deriveDm(dmZ, repro.compress.BlockCodec.Lzma(6), 128 * 1024, poolBudget) // model, V_exist, f_decode shared
    val acc = dmZ.modelAccuracy(data)
    val breakdown = dmZ.storage
    val baselines = Baselines.lossless(ds.name.replaceAll("\\W", ""), data, poolBudget)
    val dsq = Baselines.deepSqueeze(data, ds.cards, poolBudget)
    val existing = data.keys

    def measure(store: KeyValueStore): MethodResult =
      MethodResult(store.name, mb(store.storageBytes),
        Batches.map(b => b -> fmt(lookupLatencyMs(store, existing, b, seed))).toMap)

    val dsRes = MethodResult("DS", mb(dsq.storageBytes),
      Batches.map(b => b -> Baselines.dsLatencyCell(dsq, existing, b, seed)).toMap)

    val results = (baselines.map(measure) :+ dsRes) ++ Seq(measure(dmZ), measure(dmL))
    baselines.foreach(_.close())
    dmZ.close(); dmL.close()
    WorkloadResult(ds.name, mb(data.rawBytes), acc, breakdown, results)
  }

  def render(results: Seq[WorkloadResult]): String = {
    val sb = new StringBuilder
    sb.append("\n## Table I — storage + latency, dataset exceeds memory pool (pool = 35% of raw)\n")
    results.foreach { w =>
      val methods = w.methods.map(_.method)
      val rows =
        (s"Storage size (MB) [raw=${TableHarness.fmt(w.rawMB)}]",
          w.methods.map(m => TableHarness.fmt(m.storageMB))) +:
          Batches.map(b => (s"Latency, B=$b (ms)", w.methods.map(_.latencyMs(b))))
      sb.append(TableHarness.renderTable(w.workload, methods, rows))
      sb.append(f"Model memorised ${w.dmAccuracy * 100}%.1f%% of tuples; " +
        f"DM breakdown (KB): model=${w.dmBreakdown.modelBytes / 1e3}%.1f " +
        f"aux=${w.dmBreakdown.auxBytes / 1e3}%.1f exist=${w.dmBreakdown.existBytes / 1e3}%.1f " +
        f"decode=${w.dmBreakdown.decodeBytes / 1e3}%.1f\n")
    }
    sb.toString
  }
}
