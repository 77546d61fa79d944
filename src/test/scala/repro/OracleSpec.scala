package repro

/** The oracle's own comparison: rows are matched cell by cell, and a
  * null cell matches only a null cell. */
class OracleSpec extends SparkSpec {

  test("rows whose cells concatenate to the same string are told apart") {
    import spark.implicits._
    val rows = Seq(("1", "23"), ("12", "3"))
    val t = rows.toDF("a", "b")
    // One of the two orders differs from DuckDB's, whichever it returns.
    Seq(rows, rows.reverse).foreach(rs => Oracle.assertEquivalent(rs.toDF("a", "b"), "SELECT a, b FROM t", "t" -> t))
    intercept[IllegalArgumentException](
      Oracle.assertEquivalent(Seq(("1", "23"), ("1", "23")).toDF("a", "b"), "SELECT a, b FROM t", "t" -> t))
  }

  test("a null cell equals a null cell and differs from any string") {
    import spark.implicits._
    val t = Seq(("1", null: String)).toDF("a", "b")
    Oracle.assertEquivalent(t, "SELECT a, b FROM t", "t" -> t)
    intercept[IllegalArgumentException](Oracle.assertEquivalent(t, "SELECT a, '∅' AS b FROM t", "t" -> t))
  }
}
