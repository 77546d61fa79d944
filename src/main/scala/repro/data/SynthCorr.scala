package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** The paper's synthetic low/high key-value-correlation datasets
  * (§V-A.1): low-correlation sets sample lineitem/orders-style *random*
  * categorical columns (Pearson ~1e-4); high-correlation sets sample the
  * periodic customer_demographics cross-product (Pearson ~0.12 with
  * periodic patterns along the key). Sizes are scaled (DESIGN.md §2);
  * keys support an offset so out-of-distribution *insertion* batches
  * (Table IV) can extend the key domain.
  */
object SynthCorr {

  /** <OrderKey, OrderStatus>-style: one uniformly random 3-ary column. */
  def singleLow(spark: SparkSession, rows: Long, startKey: Long = 1, seed: Long = 30): DataFrame =
    spark.range(startKey, startKey + rows).toDF("k").select(
      col("k"),
      pick((rand(seed) * 1000).cast(LongType), "O", "F", "P").as("v"),
    )

  /** Multi-column with independently *random* values. Value domains match
    * [[multiHigh]] so cross-distribution insertions (paper Table IV) mix
    * the two generators over one dictionary. */
  def multiLow(spark: SparkSession, rows: Long, startKey: Long = 1, seed: Long = 31): DataFrame =
    spark.range(startKey, startKey + rows).toDF("k").select(
      col("k"),
      pick((rand(seed) * 1000).cast(LongType), "M", "F").as("v1"),
      pick((rand(seed + 1) * 1000).cast(LongType), "M", "S", "D", "W", "U").as("v2"),
      pick((rand(seed + 2) * 1000).cast(LongType),
        "Primary", "Secondary", "College", "2 yr Degree", "4 yr Degree", "Advanced Degree", "Unknown").as("v3"),
      ((rand(seed + 3) * 20).cast(LongType) * 500 + 500).cast(StringType).as("v4"),
    )

  /** <sk, education>-style: single periodic (period 70) column. */
  def singleHigh(spark: SparkSession, rows: Long, startKey: Long = 1, seed: Long = 32): DataFrame =
    spark.range(startKey, startKey + rows).toDF("k").select(
      col("k"),
      pick(floor((col("k") - 1) / 10) % 7,
        "Primary", "Secondary", "College", "2 yr Degree", "4 yr Degree", "Advanced Degree", "Unknown").as("v"),
    )

  /** customer_demographics-style periodic cross-product, all columns. */
  def multiHigh(spark: SparkSession, rows: Long, startKey: Long = 1, seed: Long = 33): DataFrame =
    spark.range(startKey, startKey + rows).toDF("k").select(
      col("k"),
      pick((col("k") - 1) % 2, "M", "F").as("v1"),
      pick(floor((col("k") - 1) / 2) % 5, "M", "S", "D", "W", "U").as("v2"),
      pick(floor((col("k") - 1) / 10) % 7,
        "Primary", "Secondary", "College", "2 yr Degree", "4 yr Degree", "Advanced Degree", "Unknown").as("v3"),
      (floor((col("k") - 1) / 70) % 20 * 500 + 500).cast(LongType).cast(StringType).as("v4"),
    )
}
