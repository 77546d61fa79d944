package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.bench.{TableI, TableII, TableMod}

/** spark-submit entrypoint for one evaluation table: prints `table`'s
  * markdown. Optional first argument scales dataset row counts (default
  * 1.0), e.g. `spark-submit --class repro.jobs.RunTableI repro.jar 0.5`. */
abstract class TableJob(app: String, table: (SparkSession, Double) => String) {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(table(spark, args.headOption.map(_.toDouble).getOrElse(1.0))) finally spark.stop()
  }
}

object RunTableI extends TableJob("repro-table1", (spark, scale) => TableI.render(TableI.run(spark, scale)))

object RunTableII extends TableJob("repro-table2", (spark, scale) => TableII.render(TableII.run(spark, scale)))

object RunTableIII extends TableJob("repro-table3", (spark, scale) => TableMod.render(
  "Table III — insertions following the original distribution", TableMod.runInsert(spark, crossDist = false, scale)))

object RunTableIV extends TableJob("repro-table4", (spark, scale) => TableMod.render(
  "Table IV — insertions NOT following the original distribution", TableMod.runInsert(spark, crossDist = true, scale)))

object RunTableV extends TableJob("repro-table5", (spark, scale) =>
  TableMod.render("Table V — deletions", TableMod.runDelete(spark, scale)))
