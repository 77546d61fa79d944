package repro

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

package object data {

  /** The value of `values` at `col` mod its length: a categorical column
    * from an integer one. */
  private[data] def pick(col: Column, values: String*): Column =
    element_at(array(values.map(lit): _*), (pmod(col, lit(values.length)) + 1).cast("int"))
}
