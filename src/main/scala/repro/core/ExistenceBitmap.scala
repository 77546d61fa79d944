package repro.core

import repro.compress.BlockCodec

/** V_exist — dynamic bit vector over the key domain (paper §IV-B). Each
  * bit marks whether the key exists; it is what lets the structure reject
  * never-seen keys instead of hallucinating a prediction for them.
  * Storage is charged at the zstd-compressed size of the word array
  * (the paper also stores it compressed; Table V notes decompression of
  * V_exist during query).
  */
final class ExistenceBitmap private (private var words: Array[Long], private var nBits: Long)
    extends Serializable {

  def capacity: Long = nBits

  /** An independent copy (snapshots must not see later modifications). */
  def copy: ExistenceBitmap = new ExistenceBitmap(words.clone(), nBits)

  private def ensure(key: Long): Unit = {
    if (key >= nBits) {
      val newBits = math.max(key + 1, nBits * 2)
      val newWords = new Array[Long](((newBits + 63) / 64).toInt)
      System.arraycopy(words, 0, newWords, 0, words.length)
      words = newWords
      nBits = newBits
    }
  }

  def get(key: Long): Boolean =
    key >= 0 && key < nBits && ((words((key >>> 6).toInt) >>> (key & 63)) & 1L) != 0

  def set(key: Long): Unit = { require(key >= 0); ensure(key); words((key >>> 6).toInt) |= (1L << (key & 63)) }

  def clear(key: Long): Unit = if (key >= 0 && key < nBits) words((key >>> 6).toInt) &= ~(1L << (key & 63))

  def cardinality: Long = {
    var s = 0L
    var i = 0
    while (i < words.length) { s += java.lang.Long.bitCount(words(i)); i += 1 }
    s
  }

  /** Existing keys within [lo, hi] — the batch-inference range-query path
    * of §IV-E ("range-based filtering over the existence index"). */
  def keysInRange(lo: Long, hi: Long): Array[Long] = {
    val out = scala.collection.mutable.ArrayBuffer.empty[Long]
    var k = math.max(0, lo)
    val end = math.min(hi, nBits - 1)
    while (k <= end) { if (get(k)) out += k; k += 1 }
    out.toArray
  }

  /** Compressed storage footprint (what Eq. 1 charges for V_exist). */
  def byteSize: Long = {
    val bb = java.nio.ByteBuffer.allocate(words.length * 8)
    words.foreach(bb.putLong)
    BlockCodec.Zstd(3).compress(bb.array()).length.toLong
  }
}

object ExistenceBitmap {
  def empty(capacity: Long): ExistenceBitmap =
    new ExistenceBitmap(new Array[Long](((math.max(1, capacity) + 63) / 64).toInt), math.max(1, capacity))

  def fromKeys(keys: Array[Long]): ExistenceBitmap = {
    val max = if (keys.isEmpty) 0L else keys.max
    val bm = empty(max + 1)
    keys.foreach(bm.set)
    bm
  }
}
