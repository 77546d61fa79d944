package repro.bench

import org.apache.spark.sql.SparkSession

import repro.data.{CropData, SynthCorr, TpchCat}
import repro.store.KvData

/** Paper Table I — offline storage size and query latency for datasets
  * that EXCEED the available memory pool (small-size machine).
  *
  * Scaled per DESIGN.md §5: the memory pool is 35 % of the uncompressed
  * dataset at every scale, so uncompressed baselines thrash the LRU pool
  * while the DeepMapping structure stays resident — the paper's central
  * scenario.
  * The three batch sizes share that one budget, so each store's pool
  * stays warm from one batch size to the next.
  */
object TableI {

  val Batches: Seq[Int] = Seq(500, 5000, 50000)

  def conditions(data: KvData): Seq[TableHarness.Condition] =
    Batches.map(b => TableHarness.Condition(b.toString, TableHarness.poolBudget(data, TableHarness.ConstrainedShare), b))

  def datasets(spark: SparkSession, s: Double): Seq[TableHarness.Dataset] = Seq(
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

  def run(spark: SparkSession, scale: Double = 1.0, seed: Long = 77): Seq[TableHarness.WorkloadResult] =
    datasets(spark, scale).map(ds => TableHarness.runWorkload(ds, conditions(ds.data), seed))

  def render(results: Seq[TableHarness.WorkloadResult]): String =
    TableHarness.render("## Table I — storage + latency, dataset exceeds memory pool " +
      f"(pool = ${TableHarness.ConstrainedShare * 100}%.0f%% of raw)",
      results, Batches.map(b => (s"Latency, B=$b (ms)", b.toString)))
}
