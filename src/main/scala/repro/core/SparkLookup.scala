package repro.core

import org.apache.spark.sql.{DataFrame, Encoders, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}

/** Spark-side query paths for a DeepMapping structure.
  *
  * The hybrid structure is an access method, not a plan rewrite, so the
  * Catalyst extension point is the function/DataSource layer (DESIGN.md
  * §4): a broadcast [[DmSnapshot]] serves per-partition *columnar batch
  * inference* inside `Dataset.mapPartitions`.
  */
object SparkLookup {

  /** Output schema of a lookup: the key plus one string column per value
    * attribute (f_decode applied). Missing keys yield nulls. */
  def outputSchema(keyCol: String, snap: DmSnapshot): StructType =
    StructType(StructField(keyCol, LongType, nullable = false) +:
      snap.dicts.cols.map(c => StructField(c.name, StringType, nullable = true)).toSeq)

  /** Batch lookup of `keysDf(keyCol)` through the snapshot — one model
    * inference batch per partition (the repro hint's "per-partition UDF
    * over columnar data"). */
  def lookupDf(spark: SparkSession, snap: DmSnapshot, keysDf: DataFrame, keyCol: String): DataFrame = {
    val bc = spark.sparkContext.broadcast(snap)
    val schema = outputSchema(keyCol, snap)
    val nCols = snap.dicts.nCols
    implicit val enc = Encoders.row(schema)
    keysDf
      .select(col(keyCol).cast("long").as(keyCol))
      .mapPartitions { it =>
        val keys = it.map(_.getLong(0)).toArray
        if (keys.isEmpty) Iterator.empty
        else {
          val vals = bc.value.lookupBatch(keys)
          keys.indices.iterator.map { i =>
            val vs: Seq[Any] = if (vals(i) == null) Seq.fill(nCols)(null) else vals(i).toSeq
            Row.fromSeq(keys(i) +: vs)
          }
        }
      }
  }

  /** Distributed misclassification evaluation used by integration tests:
    * run the model over a DataFrame of (key, value codes) and return the
    * number of rows where any task mispredicts. */
  def countMisses(spark: SparkSession, snap: DmSnapshot, df: DataFrame,
                  keyCol: String, valueCols: Seq[String]): Long = {
    val bc = spark.sparkContext.broadcast(snap)
    val cols = col(keyCol).cast("long") +: valueCols.map(c => col(c).cast("string"))
    df.select(cols: _*)
      .mapPartitions { it =>
        val rows = it.toArray
        if (rows.isEmpty) Iterator.empty
        else {
          val keys = rows.map(_.getLong(0))
          val preds = bc.value.lookupBatch(keys)
          var misses = 0L
          rows.indices.foreach { i =>
            val p = preds(i)
            var ok = p != null
            var c = 0
            while (c < valueCols.length && ok) { ok = p(c) == rows(i).getString(c + 1); c += 1 }
            if (!ok) misses += 1
          }
          Iterator.single(misses)
        }
      }(Encoders.scalaLong)
      .reduce(_ + _)
  }
}
