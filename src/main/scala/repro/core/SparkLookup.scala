package repro.core

import org.apache.spark.sql.{DataFrame, Encoders, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}

/** Spark-side query paths for a DeepMapping structure.
  *
  * The hybrid structure is an access method, not a plan rewrite, so the
  * Catalyst extension point is the function/DataSource layer (DESIGN.md
  * §4): a broadcast [[DeepMapping.snapshot]] serves per-partition
  * *columnar batch inference* inside `Dataset.mapPartitions`.
  */
object SparkLookup {

  /** Output schema of a lookup: the key plus one string column per value
    * attribute (f_decode applied). Missing and null keys yield nulls. */
  def outputSchema(keyCol: String, snap: DeepMapping): StructType =
    StructType(StructField(keyCol, LongType, nullable = true) +:
      snap.dicts.cols.map(c => StructField(c.name, StringType, nullable = true)).toSeq)

  /** Batch lookup of `keysDf(keyCol)` through the snapshot — one model
    * inference batch per partition (the repro hint's "per-partition UDF
    * over columnar data"). */
  def lookupDf(spark: SparkSession, snap: DeepMapping, keysDf: DataFrame, keyCol: String): DataFrame = {
    val bc = spark.sparkContext.broadcast(snap)
    val nCols = snap.dicts.nCols
    implicit val enc = Encoders.row(outputSchema(keyCol, snap))
    keysDf
      .select(col(keyCol).cast("long").as(keyCol))
      .mapPartitions { it =>
        val keys = it.map(_.get(0)).toArray
        if (keys.isEmpty) Iterator.empty
        else {
          // A null key asks for -1, which V_exist never holds, so its values are NULL.
          val vals = bc.value.lookupBatch(keys.map(k => if (k == null) -1L else k.asInstanceOf[Long]))
          keys.indices.iterator.map(i => Row.fromSeq(keys(i) +: (if (vals(i) == null) Seq.fill(nCols)(null) else vals(i).toSeq)))
        }
      }
  }
}
