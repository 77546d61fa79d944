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
}
