package repro.core

import org.apache.spark.sql.functions.col

import repro.SparkSpec
import repro.compress.BlockCodec
import repro.data.SynthCorr
import repro.nn.Trainer

/** Distributed lookup paths: snapshot and mapPartitions DataFrame lookup
  * (oracle-checked against DuckDB). */
class SparkLookupSpec extends SparkSpec {

  private val valueCols = Seq("v1", "v2", "v3", "v4")
  private lazy val df = SynthCorr.multiHigh(spark, rows = 2000)
  private lazy val dm = DeepMapping.buildFromDf(df, "k", valueCols,
    DmConfig(codec = BlockCodec.Zstd(3), partitionBytes = 8 * 1024, poolBudget = 1 << 20,
      train = Trainer.Config(epochs = 8, batchSize = 1024)))
  private lazy val snap = dm.snapshot()

  test("snapshot lookupBatch equals direct DeepMapping lookup") {
    val keys = Array(1L, 5L, 77L, 1999L, 123L)
    val direct = dm.lookupBatch(keys)
    val viaSnap = snap.lookupBatch(keys)
    keys.indices.foreach { i =>
      assert(direct(i).toSeq == viaSnap(i).toSeq)
    }
  }

  test("snapshot returns null rows for non-existing keys") {
    val r = snap.lookupBatch(Array(0L, 5000L))
    assert(r.forall(_ == null))
  }

  test("lookupDf over all keys matches the source table (oracle-checked)") {
    import spark.implicits._
    val keysDf = (1L to 2000L).toDF("k")
    val out = SparkLookup.lookupDf(spark, snap, keysDf, "k")
    repro.Oracle.assertEquivalent(
      out.select(col("k").cast("string").as("k"), col("v1"), col("v2"), col("v3"), col("v4")),
      "SELECT k, v1, v2, v3, v4 FROM t", "t" -> df)
  }

  test("lookupDf yields nulls for missing keys") {
    import spark.implicits._
    val keysDf = Seq(1L, 999_999L).toDF("k")
    val rows = SparkLookup.lookupDf(spark, snap, keysDf, "k").collect()
    val byKey = rows.map(r => r.getLong(0) -> r).toMap
    assert(byKey(1L).getString(1) != null)
    assert(byKey(999_999L).isNullAt(1))
  }

  test("lookupDf answers a null key with a NULL row") {
    import spark.implicits._
    val out = SparkLookup.lookupDf(spark, snap, Seq(Some(1L), None).toDF("k"), "k")
    assert(out.schema("k").nullable)
    val rows = out.collect()
    assert(rows.length == 2)
    val (nulls, keyed) = rows.partition(_.isNullAt(0))
    assert(nulls.length == 1 && (1 to valueCols.length).forall(nulls.head.isNullAt))
    assert(keyed.head.getLong(0) == 1L && keyed.head.getString(1) != null)
  }

  test("outputSchema has key + one string column per attribute") {
    val s = SparkLookup.outputSchema("k", snap)
    assert(s.fieldNames.toSeq == Seq("k", "v1", "v2", "v3", "v4"))
  }
}
