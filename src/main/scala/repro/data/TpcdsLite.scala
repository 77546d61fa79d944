package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** TPC-DS-lite tables (paper §V-A.1, float attributes removed).
  *
  * `customer_demographics` is generated exactly as the TPC-DS spec does:
  * a deterministic cross-product of demographic levels, so every column
  * is periodic along cd_demo_sk — the "strong key-value correlation /
  * periodical patterns" the paper highlights (0.6 % compression ratio).
  * `catalog_sales` mixes date-rule columns with a high-cardinality
  * quasi-random column, reproducing "TPC-DS is harder to compress".
  */
object TpcdsLite {

  private val genders = Seq("M", "F")
  private val marital = Seq("M", "S", "D", "W", "U")
  private val education = Seq("Primary", "Secondary", "College", "2 yr Degree", "4 yr Degree", "Advanced Degree", "Unknown")
  private val credit = Seq("Low Risk", "Good", "High Risk", "Unknown")

  /** Deterministic cross-product demographics: value = level extracted
    * from mixed-radix digits of (sk-1), as dsdgen does. */
  def customerDemographics(spark: SparkSession, rows: Long = 19_208L, seed: Long = 20): DataFrame = {
    spark.range(1, rows + 1).toDF("sk").select(
      col("sk").as("cd_demo_sk"),
      pick((col("sk") - 1) % 2, genders: _*).as("cd_gender"),
      pick(floor((col("sk") - 1) / 2) % 5, marital: _*).as("cd_marital_status"),
      pick(floor((col("sk") - 1) / 10) % 7, education: _*).as("cd_education_status"),
      (floor((col("sk") - 1) / 70) % 20 * 500 + 500).cast(LongType).cast(StringType).as("cd_purchase_estimate"),
      pick(floor((col("sk") - 1) / 1400) % 4, credit: _*).as("cd_credit_rating"),
      (floor((col("sk") - 1) / 5600) % 7).cast(LongType).cast(StringType).as("cd_dep_count"),
    )
  }

  /** catalog_sales-cat: key = insertion rowid. Ship mode / call center /
    * warehouse follow date rules with noise; the item bucket is
    * high-cardinality and mostly random (hard to memorise). */
  def catalogSales(spark: SparkSession, sf: Double = 0.01, seed: Long = 21): DataFrame = {
    val n = math.max(100L, (1_440_000L * sf).toLong)
    spark.range(1, n + 1).toDF("id").select(
      col("id").as("cs_key"),
      (floor(col("id") * 1823L / n) + (rand(seed) * 60 - 30).cast(LongType)).as("dateIdx"),
      rand(seed + 1).as("u1"), rand(seed + 2).as("u2"), rand(seed + 3).as("u3"),
      (rand(seed + 4) * 100000).cast(LongType).as("r1"),
    ).select(
      col("cs_key"),
      when(col("u1") < 0.12, pick(col("r1"), (0 until 10).map(i => s"SHIP_MODE_$i"): _*))
        .otherwise(pick(floor(col("dateIdx") / 183), (0 until 10).map(i => s"SHIP_MODE_$i"): _*))
        .as("cs_ship_mode"),
      when(col("u2") < 0.08, pick(col("r1"), (0 until 6).map(i => s"CC_$i"): _*))
        .otherwise(pick(floor(col("dateIdx") / 304), (0 until 6).map(i => s"CC_$i"): _*))
        .as("cs_call_center"),
      when(col("u3") < 0.08, pick(col("r1"), (0 until 5).map(i => s"WH_$i"): _*))
        .otherwise(pick(col("cs_key") % 5, (0 until 5).map(i => s"WH_$i"): _*))
        .as("cs_warehouse"),
      // Quasi-random high-cardinality bucket: 400 distinct values.
      pick(col("r1"), (0 until 400).map(i => s"ITM_$i"): _*).as("cs_item_bucket"),
    )
  }

  /** catalog_returns-cat: smaller table, moderately structured. */
  def catalogReturns(spark: SparkSession, sf: Double = 0.01, seed: Long = 22): DataFrame = {
    val n = math.max(100L, (144_000L * sf).toLong)
    spark.range(1, n + 1).toDF("id").select(
      col("id").as("cr_key"),
      (floor(col("id") * 1823L / n) + (rand(seed) * 40 - 20).cast(LongType)).as("dateIdx"),
      rand(seed + 1).as("u1"), rand(seed + 2).as("u2"),
      (rand(seed + 3) * 1000).cast(LongType).as("r1"),
    ).select(
      col("cr_key"),
      when(col("u1") < 0.10, pick(col("r1"), (0 until 8).map(i => s"REASON_$i"): _*))
        .otherwise(pick(floor(col("dateIdx") / 228), (0 until 8).map(i => s"REASON_$i"): _*))
        .as("cr_reason"),
      when(col("u2") < 0.10, pick(col("r1"), "CASH", "CREDIT", "STORE", "EXCHANGE"))
        .otherwise(pick(col("cr_key") % 4, "CASH", "CREDIT", "STORE", "EXCHANGE"))
        .as("cr_refund_type"),
      pick(col("cr_key") % 3, "LOW", "MID", "HIGH").as("cr_qty_band"),
    )
  }
}
