package repro.core

import org.apache.spark.sql.{DataFrame, functions => F}

import repro.compress.BlockCodec
import repro.store.KvData

/** Key featurisation for the memorisation network.
  *
  * The paper one-hot encodes integer keys before training (§IV-A). We use
  * the standard DeepMapping digit-wise one-hot over base-10 digits, plus
  * small residue one-hots (k mod 2/3/5/7). The residues make the periodic
  * cross-product structure of TPC-DS customer_demographics (and similar
  * high-correlation data) linearly separable, which is the property the
  * paper's models exploit there — see DESIGN.md §2.
  */
final case class KeyEncoder(maxKey: Long) extends Serializable {
  require(maxKey >= 0, "negative key domain")
  val digits: Int = math.max(1, maxKey.toString.length)
  // Residues 2/3/5/7 plus the prime powers 8 and 25: decimal digits give
  // k mod 10^i, so together the features CRT-cover periods up to
  // lcm(8,25,7,3) = 4200 with at most two-way conjunctions — the range
  // the TPC-DS demographic cross-product actually uses.
  val mods: Array[Int] = Array(2, 3, 5, 7, 8, 25)
  val featDim: Int = 10 * digits + mods.sum

  /** Write the feature vector of `key` into out[offset, offset+featDim). */
  def encode(key: Long, out: Array[Float], offset: Int): Unit = {
    var k = key
    var d = 0
    while (d < digits) {
      out(offset + d * 10 + (k % 10).toInt) = 1f
      k /= 10
      d += 1
    }
    var base = offset + 10 * digits
    var m = 0
    while (m < mods.length) {
      out(base + (key % mods(m)).toInt) = 1f
      base += mods(m)
      m += 1
    }
  }
}

/** Per-column dictionary: code -> original value string. The decoding map
  * f_decode of the hybrid structure; charged to storage per Eq. 1. A null
  * cell is one more value of its column, so it round-trips like any other. */
final case class ColumnDict(name: String, values: Array[String]) extends Serializable {
  @transient lazy val index: java.util.HashMap[String, Integer] = {
    val m = new java.util.HashMap[String, Integer](values.length * 2)
    var i = 0
    while (i < values.length) { m.put(values(i), i); i += 1 }
    m
  }
  def size: Int = values.length
  def code(v: String): Int = {
    val c = index.get(v)
    require(c != null, s"value '$v' not in dictionary of column $name")
    c.intValue
  }
  def decode(c: Int): String = values(c)
}

/** All column dictionaries of a mapping. */
final case class ValueDicts(cols: Array[ColumnDict]) extends Serializable {
  def nCols: Int = cols.length
  /** f_decode of one row of value codes. */
  def decode(codes: Array[Int]): Array[String] = Array.tabulate(codes.length)(c => cols(c).decode(codes(c)))
  /** Storage charge: zstd-compressed serialized dictionaries. */
  lazy val byteSize: Long = {
    val bos = new java.io.ByteArrayOutputStream()
    val out = new java.io.DataOutputStream(bos)
    cols.foreach { c =>
      out.writeUTF(c.name)
      // A null value is charged as its position, flagged by a negated count.
      val nul = c.values.indexOf(null)
      if (nul < 0) out.writeInt(c.values.length) else { out.writeInt(-c.values.length); out.writeInt(nul) }
      c.values.foreach(v => if (v != null) out.writeUTF(v))
    }
    out.close()
    BlockCodec.Zstd(3).compress(bos.toByteArray).length.toLong
  }
}

/** DataFrame -> encoded driver-side data. Dictionary building runs as
  * Spark aggregations; row encoding happens once on the collected result
  * (datasets are <= SF 0.1 here — the paper also materialises the full
  * mapping to train on it). */
object Encoding {

  /** Distinct-value dictionaries for `valueCols`, via Spark `distinct`;
    * null, where a column holds it, sorts first. */
  def buildDicts(df: DataFrame, valueCols: Seq[String]): ValueDicts = {
    val dicts = valueCols.map { c =>
      val vals = df
        .select(F.col(c).cast("string").as("v"))
        .distinct()
        .orderBy("v")
        .collect()
        .map(_.getString(0))
      ColumnDict(c, vals)
    }
    ValueDicts(dicts.toArray)
  }

  /** Collect and dictionary-encode a DataFrame into [[KvData]]. Keys must
    * be unique (a DeepMapping key "uniquely and minimally identifies" a
    * tuple, §IV-C). */
  def toKvData(df: DataFrame, keyCol: String, valueCols: Seq[String], dicts: ValueDicts): KvData = {
    val cols = F.col(keyCol).cast("long").as("k") +:
      valueCols.map(c => F.col(c).cast("string"))
    val rows = df.select(cols: _*).collect()
    val n = rows.length
    val keys = new Array[Long](n)
    val codes = Array.fill(valueCols.length)(new Array[Int](n))
    var i = 0
    while (i < n) {
      val r = rows(i)
      keys(i) = r.getLong(0)
      var c = 0
      while (c < valueCols.length) { codes(c)(i) = dicts.cols(c).code(r.getString(c + 1)); c += 1 }
      i += 1
    }
    val kv = KvData(keys, codes)
    require(kv.keys.distinct.length == n, s"key column $keyCol is not unique")
    kv
  }
}
