package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic stand-in for the CroplandCROS raster (paper §V-A.1): a
  * (lat, lon, crop_type) table where crop types form spatially clustered
  * patches — the property that makes the real crop map learnable. Patches
  * come from the argmax of K smooth random Fourier fields over the grid;
  * a small salt-noise fraction models mixed pixels. Keys flatten the grid
  * as `lat * width + lon` with width a power of ten, so the decimal-digit
  * key encoding splits cleanly back into coordinates.
  */
object CropData {

  val CropTypes: Seq[String] = Seq(
    "Corn", "Soybeans", "Wheat", "Cotton", "Rice", "Alfalfa",
    "Barley", "Sorghum", "Oats", "Fallow", "Grass", "Forest")

  /** Grid of `height` x `width` pixels, width must be a power of ten. */
  def crops(spark: SparkSession, width: Int = 1000, height: Int = 200, seed: Long = 40): DataFrame = {
    require(Seq(10, 100, 1000, 10000).contains(width), "width must be a power of ten")
    val k = CropTypes.length
    val rng = new java.util.Random(seed)
    // K random low-frequency fields: score_c(x,y) = sum_j a_j sin(wx x + wy y + p_j)
    val waves = 4
    val params = Array.fill(k, waves)((rng.nextGaussian(), rng.nextDouble() * 0.02 + 0.004,
      rng.nextDouble() * 0.02 + 0.004, rng.nextDouble() * math.Pi * 2))
    val scoreCols = (0 until k).map { c =>
      params(c).map { case (a, wx, wy, p) =>
        lit(a) * sin(col("x") * wx + col("y") * wy + p)
      }.reduce(_ + _).as(s"s$c")
    }
    val base = spark.range(0, width.toLong * height).toDF("id").select(
      col("id"),
      (col("id") % width).cast(DoubleType).as("x"),
      (col("id") / width).cast(DoubleType).as("y"),
      rand(seed + 1).as("noise"),
      (rand(seed + 2) * k).cast(IntegerType).as("rndType"),
    )
    val withScores = base.select(col("id"), col("noise"), col("rndType"), array(scoreCols: _*).as("scores"))
    // argmax over the k scores: the 1-based position of the first maximum.
    val best = array_position(col("scores"), array_max(col("scores"))).cast(IntegerType)
    withScores.select(
      col("id").as("crop_key"),
      element_at(array(CropTypes.map(lit): _*), when(col("noise") < 0.02, col("rndType") + 1).otherwise(best))
        .as("crop_type"),
    )
  }
}
