package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Categorical-only TPC-H tables (paper §V-A.1: float attributes such as
  * quantity / retail_price removed, categorical + integer kept).
  *
  * Key→value correlation follows the TPC-H spec's *functional
  * dependencies*, which is what makes these mappings partially learnable:
  * `l_linestatus` and `l_returnflag` are date rules (spec §4.2.3), dates
  * advance with the insertion-ordered key, and a small noise fraction
  * models the spec's random choices (e.g. R vs A for returned items).
  * See DESIGN.md §2 for the substitution rationale.
  */
object TpchCat {

  /** Lineitem-cat: key = insertion rowid; 4 categorical columns.
    * ~70 % of rows follow the date rules exactly (cf. the paper's models
    * memorising 66–68 % of TPC-H tuples). */
  def lineitem(spark: SparkSession, sf: Double = 0.01, seed: Long = 10): DataFrame = {
    val n = math.max(100L, (6_000_000L * sf).toLong)
    spark.range(1, n + 1).toDF("lk").select(
      col("lk").as("l_key"),
      // Ship date index advances with the key (insertion order) + jitter.
      (floor(col("lk") * 2557L / n) + (rand(seed) * 90 - 45).cast(LongType)).as("dateIdx"),
      rand(seed + 1).as("u1"), rand(seed + 2).as("u2"),
      rand(seed + 3).as("u3"), rand(seed + 4).as("u4"),
      (rand(seed + 5) * 1000).cast(LongType).as("r1"),
    ).select(
      col("l_key"),
      // returnflag: date rule (A then R then N) with 5% noise.
      when(col("u1") < 0.05, pick((col("r1")), "A", "R", "N"))
        .when(col("dateIdx") <= 850, lit("A"))
        .when(col("dateIdx") <= 1250, lit("R"))
        .otherwise(lit("N")).as("l_returnflag"),
      // linestatus: spec rule F before the cutoff, O after; 2% noise.
      when(col("u2") < 0.02, pick(col("r1"), "F", "O"))
        .when(col("dateIdx") <= 1300, lit("F"))
        .otherwise(lit("O")).as("l_linestatus"),
      // shipmode: seasonal rule over the date with 15% noise.
      when(col("u3") < 0.15, pick(col("r1"), "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"))
        .otherwise(pick(floor(col("dateIdx") / 366), "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"))
        .as("l_shipmode"),
      // shipinstruct: rule over date quarter with 10% noise.
      when(col("u4") < 0.10, pick(col("r1"), "DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"))
        .otherwise(pick(floor(col("dateIdx") / 640), "DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"))
        .as("l_shipinstruct"),
    )
  }

  /** Orders-cat: key = o_orderkey; status follows the date rule. */
  def orders(spark: SparkSession, sf: Double = 0.01, seed: Long = 11): DataFrame = {
    val n = math.max(100L, (1_500_000L * sf).toLong)
    spark.range(1, n + 1).toDF("ok").select(
      col("ok").as("o_orderkey"),
      (floor(col("ok") * 2406L / n) + (rand(seed) * 60 - 30).cast(LongType)).as("dateIdx"),
      rand(seed + 1).as("u1"), rand(seed + 2).as("u2"), rand(seed + 3).as("u3"),
      (rand(seed + 4) * 1000).cast(LongType).as("r1"),
    ).select(
      col("o_orderkey"),
      // F for old orders, O for recent, P in the transition window; 3% noise.
      when(col("u1") < 0.03, pick(col("r1"), "F", "O", "P"))
        .when(col("dateIdx") <= 1100, lit("F"))
        .when(col("dateIdx") >= 1260, lit("O"))
        .otherwise(lit("P")).as("o_orderstatus"),
      // Priority drifts over time with 10% noise.
      when(col("u2") < 0.10, pick(col("r1"), "1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"))
        .otherwise(pick(floor(col("dateIdx") / 482), "1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"))
        .as("o_orderpriority"),
      // Clerk region keyed by orderkey residue with 8% noise.
      when(col("u3") < 0.08, pick(col("r1"), (0 until 10).map(i => s"R$i"): _*))
        .otherwise(pick(col("o_orderkey") % 10, (0 until 10).map(i => s"R$i"): _*))
        .as("o_clerkregion"),
    )
  }

  /** Part-cat: key = p_partkey; brand/container follow partkey residues
    * (the dbgen recipe) with noise. */
  def part(spark: SparkSession, sf: Double = 0.01, seed: Long = 12): DataFrame = {
    val n = math.max(100L, (200_000L * sf).toLong)
    spark.range(1, n + 1).toDF("pk").select(
      col("pk").as("p_partkey"),
      rand(seed).as("u1"), rand(seed + 1).as("u2"), rand(seed + 2).as("u3"),
      (rand(seed + 3) * 1000).cast(LongType).as("r1"),
    ).select(
      col("p_partkey"),
      when(col("u1") < 0.05, pick(col("r1"), (1 to 25).map(i => s"Brand#$i"): _*))
        .otherwise(pick(col("p_partkey") % 25, (1 to 25).map(i => s"Brand#$i"): _*))
        .as("p_brand"),
      when(col("u2") < 0.10, pick(col("r1"), "SM CASE", "LG BOX", "MED BAG", "JUMBO JAR", "WRAP PKG", "SM PACK", "LG CAN", "MED DRUM"))
        .otherwise(pick(col("p_partkey") % 8, "SM CASE", "LG BOX", "MED BAG", "JUMBO JAR", "WRAP PKG", "SM PACK", "LG CAN", "MED DRUM"))
        .as("p_container"),
      when(col("u3") < 0.10, pick(col("r1"), "STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"))
        .otherwise(pick(floor(col("p_partkey") / math.max(1L, n / 6L)), "STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"))
        .as("p_type"),
    )
  }
}
