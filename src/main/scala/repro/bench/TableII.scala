package repro.bench

import org.apache.spark.sql.SparkSession

import repro.data.{TpcdsLite, TpchCat}
import repro.store.KvData

/** Paper Table II — storage and latency for datasets that FIT the memory
  * pool, across three "machine sizes". Machines are simulated by the
  * buffer-pool budget (small = 1.2x data, medium = 4x, large = ∞);
  * the paper's CPU/GPU differences are out of scope (DESIGN.md §2), so
  * cross-machine latency deltas here come only from cold-load behaviour.
  * Each representation is built once; a machine is a resize of its pool,
  * which empties it.
  */
object TableII {

  final case class Machine(name: String, budgetFactor: Double)
  val Machines: Seq[Machine] = Seq(Machine("Small", 1.2), Machine("Medium", 4.0), Machine("Large", 1e6))

  val B = 50000

  def conditions(data: KvData): Seq[TableHarness.Condition] = Machines.map { m =>
    TableHarness.Condition(m.name, TableHarness.poolBudget(data, m.budgetFactor), B)
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

  def run(spark: SparkSession, scale: Double = 1.0, seed: Long = 88): Seq[TableHarness.WorkloadResult] =
    datasets(spark, scale).map(ds => TableHarness.runWorkload(ds, conditions(ds.data), seed))

  def render(results: Seq[TableHarness.WorkloadResult]): String =
    TableHarness.render(s"## Table II — storage + latency (B=$B), dataset fits memory pool; machines = pool budgets",
      results, Machines.map(m => (s"Latency-${m.name} (ms)", m.name)))
}
