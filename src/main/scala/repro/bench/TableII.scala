package repro.bench

import org.apache.spark.sql.SparkSession

import repro.core.DmStorage
import repro.data.{TpcdsLite, TpchCat}
import repro.store.KeyValueStore

/** Paper Table II — storage and latency for datasets that FIT the memory
  * pool, across three "machine sizes". Machines are simulated by the
  * buffer-pool budget (small = 1.2x data, medium = 4x, large = ∞);
  * the paper's CPU/GPU differences are out of scope (DESIGN.md §2), so
  * cross-machine latency deltas here come only from cold-load behaviour.
  */
object TableII {

  final case class Machine(name: String, budgetFactor: Double)
  val Machines: Seq[Machine] = Seq(Machine("Small", 1.2), Machine("Medium", 4.0), Machine("Large", 1e6))

  val B = 50000

  final case class MethodResult(method: String, storageMB: Double, latencyMs: Map[String, String])
  final case class WorkloadResult(workload: String, rawMB: Double, dmAccuracy: Double,
                                  dmBreakdown: DmStorage, dsErrorRate: Double,
                                  methods: Seq[MethodResult]) {
    def storageOf(m: String): Double = methods.find(_.method == m).get.storageMB
    def latencyOf(m: String, machine: String): Double = methods.find(_.method == m).get.latencyMs(machine).toDouble
  }

  def datasets(spark: SparkSession, scale: Double): Seq[TableHarness.Dataset] = Seq(
    TableHarness.Dataset("TPC-H Orders", TpchCat.orders(spark, sf = 0.1 * scale), "o_orderkey",
      Seq("o_orderstatus", "o_orderpriority", "o_clerkregion")),
    TableHarness.Dataset("TPC-H Part", TpchCat.part(spark, sf = 0.5 * scale), "p_partkey",
      Seq("p_brand", "p_container", "p_type")),
    TableHarness.Dataset("TPC-DS Catalog_sales", TpcdsLite.catalogSales(spark, sf = 0.1 * scale), "cs_key",
      Seq("cs_ship_mode", "cs_call_center", "cs_warehouse", "cs_item_bucket")),
    TableHarness.Dataset("TPC-DS Customer_demographics",
      TpcdsLite.customerDemographics(spark, rows = (140_000 * scale).toLong), "cd_demo_sk",
      Seq("cd_gender", "cd_marital_status", "cd_education_status", "cd_purchase_estimate",
        "cd_credit_rating", "cd_dep_count")),
    TableHarness.Dataset("TPC-DS Catalog_returns", TpcdsLite.catalogReturns(spark, sf = 1.0 * scale), "cr_key",
      Seq("cr_reason", "cr_refund_type", "cr_qty_band")),
  )

  def run(spark: SparkSession, scale: Double = 1.0, seed: Long = 88): Seq[WorkloadResult] =
    datasets(spark, scale).map(runWorkload(_, seed))

  def runWorkload(ds: TableHarness.Dataset, seed: Long): WorkloadResult = {
    import TableHarness._
    val data = ds.data
    val existing = data.keys

    // Train DM once; per machine only the stores/pools are rebuilt.
    val dmZ0 = buildDmZ(data, ds.dicts, data.rawBytes * 2)
    val acc = dmZ0.modelAccuracy(data)
    val breakdown = dmZ0.storage

    // DS lossiness: fraction of sampled rows DS reconstructs wrongly.
    val dsErrorRate = {
      val probe = Baselines.deepSqueeze(data, ds.cards, Long.MaxValue)
      val sampleKeys = randomKeys(existing, 2000, seed)
      val byKey = data.keys.zipWithIndex.toMap
      val got = probe.lookup(sampleKeys)
      val wrong = sampleKeys.indices.count { i =>
        val row = byKey(sampleKeys(i))
        got(i) == null || (0 until data.nCols).exists(c => got(i)(c) != data.cols(c)(row))
      }
      wrong.toDouble / sampleKeys.length
    }

    val perMachine: Seq[(String, Seq[(String, Double, String)])] = Machines.map { m =>
      val budget = math.max(1L << 20, (data.rawBytes * m.budgetFactor).toLong)
      val dmZ = deriveDm(dmZ0, repro.compress.BlockCodec.Zstd(3), 512 * 1024, budget)
      val dmL = deriveDm(dmZ0, repro.compress.BlockCodec.Lzma(6), 128 * 1024, budget)
      val baselines = Baselines.lossless(s"${ds.name.replaceAll("\\W", "")}${m.name}", data, budget)
      val dsq = Baselines.deepSqueeze(data, ds.cards, budget)
      def one(s: KeyValueStore): (String, Double, String) =
        (s.name, mb(s.storageBytes), fmt(lookupLatencyMs(s, existing, B, seed)))
      val rows = baselines.map(one) ++ Seq(
        ("DS", mb(dsq.storageBytes), Baselines.dsLatencyCell(dsq, existing, B, seed)),
        one(dmZ), one(dmL))
      baselines.foreach(_.close()); dmZ.close(); dmL.close()
      (m.name, rows)
    }
    dmZ0.close()

    val methodNames = perMachine.head._2.map(_._1)
    val methods = methodNames.zipWithIndex.map { case (name, i) =>
      MethodResult(name, perMachine.head._2(i)._2,
        perMachine.map { case (mn, rows) => mn -> rows(i)._3 }.toMap)
    }
    WorkloadResult(ds.name, mb(data.rawBytes), acc, breakdown, dsErrorRate, methods)
  }

  def render(results: Seq[WorkloadResult]): String = {
    val sb = new StringBuilder
    sb.append(s"\n## Table II — storage + latency (B=$B), dataset fits memory pool; machines = pool budgets\n")
    results.foreach { w =>
      val methods = w.methods.map(_.method)
      val rows =
        (s"Storage size (MB) [raw=${TableHarness.fmt(w.rawMB)}]",
          w.methods.map(m => TableHarness.fmt(m.storageMB))) +:
          Machines.map(m => (s"Latency-${m.name} (ms)", w.methods.map(_.latencyMs(m.name))))
      sb.append(TableHarness.renderTable(w.workload, methods, rows))
      sb.append(f"Model memorised ${w.dmAccuracy * 100}%.1f%% of tuples; " +
        f"DS (lossy) reconstructs ${w.dsErrorRate * 100}%.1f%% of sampled rows wrongly\n")
    }
    sb.toString
  }
}
