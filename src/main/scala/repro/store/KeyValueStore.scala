package repro.store

/** Column-major in-memory key-value dataset: unique keys plus m integer
  * code columns (values are dictionary codes; see `repro.core.Encoding`).
  * This is the common build input for DeepMapping and every baseline.
  */
final case class KvData(keys: Array[Long], cols: Array[Array[Int]]) {
  require(cols.forall(_.length == keys.length), "column length mismatch")
  def rows: Int = keys.length
  def nCols: Int = cols.length
  /** Uncompressed row bytes: 8-byte key + 4 bytes per value column. */
  def rawRowBytes: Int = 8 + 4 * nCols
  def rawBytes: Long = rows.toLong * rawRowBytes
  /** Value codes of row `i`. */
  def row(i: Int): Array[Int] = cols.map(_(i))

  /** Copy sorted by key (stable pairing of columns). */
  def sortedByKey: KvData = {
    val idx = Array.tabulate(rows)(identity)
    val boxed = idx.map(Integer.valueOf)
    java.util.Arrays.sort(boxed, (a: Integer, b: Integer) => java.lang.Long.compare(keys(a), keys(b)))
    val ks = new Array[Long](rows)
    val cs = Array.fill(nCols)(new Array[Int](rows))
    var i = 0
    while (i < rows) {
      val j = boxed(i).intValue
      ks(i) = keys(j)
      var c = 0
      while (c < nCols) { cs(c)(i) = cols(c)(j); c += 1 }
      i += 1
    }
    KvData(ks, cs)
  }
}

/** Lookup interface every representation (AB/ABC/HB/HBC/DM) implements.
  * `lookup` returns, per query key, the value-code row or null when the
  * key does not exist — matching Algorithm 1's NULL semantics.
  */
trait KeyValueStore extends AutoCloseable {
  def name: String
  /** Offline (on-disk) footprint in bytes. */
  def storageBytes: Long
  def lookup(keys: Array[Long]): Array[Array[Int]]
  def pool: BufferPool
  override def close(): Unit = ()
}
