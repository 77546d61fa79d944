package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.SparkSpec

/** Dataset generators: determinism, uniqueness, cardinality, and the
  * key-value correlation structure each table is supposed to carry. */
class DataSpec extends SparkSpec {

  private def keyIsUnique(df: DataFrame, key: String): Unit = {
    val n = df.count()
    assert(df.select(key).distinct().count() == n, s"$key not unique")
  }

  test("TpchCat.lineitem: schema, uniqueness, determinism") {
    val df = TpchCat.lineitem(spark, sf = 0.002)
    assert(df.columns.toSeq == Seq("l_key", "l_returnflag", "l_linestatus", "l_shipmode", "l_shipinstruct"))
    keyIsUnique(df, "l_key")
    assert(TpchCat.lineitem(spark, sf = 0.002).collect().toSeq == df.collect().toSeq)
  }

  test("TpchCat.lineitem: cardinalities match TPC-H domains") {
    val df = TpchCat.lineitem(spark, sf = 0.01).cache()
    assert(df.select("l_returnflag").distinct().count() <= 3)
    assert(df.select("l_linestatus").distinct().count() <= 2)
    assert(df.select("l_shipmode").distinct().count() <= 7)
    assert(df.select("l_shipinstruct").distinct().count() <= 4)
    df.unpersist()
  }

  test("TpchCat.lineitem: returnflag correlates with key position (date rule)") {
    val df = TpchCat.lineitem(spark, sf = 0.01)
    val n = df.count()
    // Early keys are mostly A/R, late keys mostly N.
    val early = df.where(col("l_key") < n / 4).where(col("l_returnflag") === "N").count()
    val late = df.where(col("l_key") > 3 * n / 4).where(col("l_returnflag") === "N").count()
    assert(late > early * 3, s"date rule not visible: early=$early late=$late")
  }

  test("TpchCat.orders: status follows the date rule with noise") {
    val df = TpchCat.orders(spark, sf = 0.01)
    val n = df.count()
    val earlyF = df.where(col("o_orderkey") < n / 4).where(col("o_orderstatus") === "F").count()
    assert(earlyF > n / 4 * 0.85, "early orders should be mostly F")
    keyIsUnique(df, "o_orderkey")
  }

  test("TpchCat.part: brand determined by partkey residue (mostly)") {
    val df = TpchCat.part(spark, sf = 0.05)
    val match25 = df.where(
      col("p_brand") === concat(lit("Brand#"), ((col("p_partkey") % 25) + 1).cast("string"))).count()
    val n = df.count()
    assert(match25 > n * 0.9, s"only $match25 of $n follow the residue rule")
  }

  test("TpcdsLite.customerDemographics: deterministic cross-product") {
    val df = TpcdsLite.customerDemographics(spark, rows = 2800)
    keyIsUnique(df, "cd_demo_sk")
    // Fully deterministic in sk: regenerating matches.
    assert(TpcdsLite.customerDemographics(spark, rows = 2800).collect().toSeq == df.collect().toSeq)
    // gender alternates with period 2.
    val wrong = df.where(
      (col("cd_demo_sk") % 2 === 1 && col("cd_gender") =!= "M") ||
      (col("cd_demo_sk") % 2 === 0 && col("cd_gender") =!= "F")).count()
    assert(wrong == 0)
  }

  test("TpcdsLite.customerDemographics: education has period 70") {
    val df = TpcdsLite.customerDemographics(spark, rows = 1400)
    val a = df.where(col("cd_demo_sk") === 1).select("cd_education_status").collect()(0).getString(0)
    val b = df.where(col("cd_demo_sk") === 71).select("cd_education_status").collect()(0).getString(0)
    assert(a == b, "education must repeat every 70 keys")
  }

  test("TpcdsLite.catalogSales: includes a high-cardinality column") {
    val df = TpcdsLite.catalogSales(spark, sf = 0.02)
    assert(df.select("cs_item_bucket").distinct().count() > 100)
    keyIsUnique(df, "cs_key")
  }

  test("TpcdsLite.catalogReturns: schema + uniqueness") {
    val df = TpcdsLite.catalogReturns(spark, sf = 0.05)
    assert(df.columns.toSeq == Seq("cr_key", "cr_reason", "cr_refund_type", "cr_qty_band"))
    keyIsUnique(df, "cr_key")
  }

  test("SynthCorr.singleLow: uniform-ish random statuses") {
    val df = SynthCorr.singleLow(spark, rows = 9000)
    val counts = df.groupBy("v").count().collect().map(_.getLong(1))
    assert(counts.length == 3)
    assert(counts.forall(c => c > 9000 / 3 * 0.8 && c < 9000 / 3 * 1.2))
  }

  test("SynthCorr.singleHigh: deterministic function of key") {
    val df = SynthCorr.singleHigh(spark, rows = 500)
    val wrong = df.where(col("v") =!=
      element_at(array(Seq("Primary", "Secondary", "College", "2 yr Degree", "4 yr Degree",
        "Advanced Degree", "Unknown").map(lit): _*),
        ((col("k") - 1) / 10 % 7 + 1).cast("int"))).count()
    assert(wrong == 0)
  }

  test("SynthCorr.multiLow/multiHigh share value domains") {
    val low = SynthCorr.multiLow(spark, rows = 3000)
    val high = SynthCorr.multiHigh(spark, rows = 3000)
    Seq("v1", "v2", "v3", "v4").foreach { c =>
      val lv = low.select(c).distinct().collect().map(_.getString(0)).toSet
      val hv = high.select(c).distinct().collect().map(_.getString(0)).toSet
      assert(lv.subsetOf(hv) || hv.subsetOf(lv), s"$c domains diverge: $lv vs $hv")
    }
  }

  test("SynthCorr startKey offsets the key range") {
    val df = SynthCorr.multiHigh(spark, rows = 10, startKey = 100)
    val keys = df.select("k").collect().map(_.getLong(0)).sorted
    assert(keys.head == 100 && keys.last == 109)
  }

  test("CropData: spatially clustered — neighbours usually share a type") {
    val df = CropData.crops(spark, width = 100, height = 40).cache()
    val rows = df.collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    var same = 0; var total = 0
    (0 until 40).foreach { y =>
      (0 until 99).foreach { x =>
        val a = rows(y.toLong * 100 + x); val b = rows(y.toLong * 100 + x + 1)
        if (a == b) same += 1
        total += 1
      }
    }
    df.unpersist()
    assert(same.toDouble / total > 0.85, s"spatial autocorrelation only ${same.toDouble / total}")
  }

  test("CropData: the raster is pinned, ties going to the first crop type") {
    val types = CropData.crops(spark, 100, 40).orderBy("crop_key").collect().map(_.getString(1)).toSeq
    assert(types.size == 4000)
    assert(scala.util.hashing.MurmurHash3.orderedHash(types) == 1231692700)
  }

  test("CropData: rejects non-power-of-ten width") {
    intercept[IllegalArgumentException](CropData.crops(spark, width = 123, height = 10))
  }

  test("CropData: crop types drawn from the fixed palette") {
    val df = CropData.crops(spark, width = 100, height = 10)
    val types = df.select("crop_type").distinct().collect().map(_.getString(0)).toSet
    assert(types.subsetOf(CropData.CropTypes.toSet))
    assert(types.size >= 2, "degenerate single-class raster")
  }
}
