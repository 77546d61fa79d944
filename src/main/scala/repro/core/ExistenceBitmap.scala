package repro.core

import org.roaringbitmap.longlong.Roaring64NavigableMap

import repro.compress.BlockCodec

/** V_exist — the set of existing keys (paper §IV-B), a 64-bit Roaring
  * bitmap (Lemire et al., *Better bitmap performance with Roaring
  * bitmaps*, SPE 2016). It is what lets the structure reject never-seen
  * keys instead of hallucinating a prediction for them. Its size follows
  * how many keys it holds and how they cluster, not the largest key.
  *
  * `get` writes no field of the map, so executors can share one copy.
  * Storage is charged at the zstd-compressed size of the serialized map
  * (the paper also stores V_exist compressed).
  */
final class ExistenceBitmap private (bits: Roaring64NavigableMap) extends Serializable {

  def get(key: Long): Boolean = key >= 0 && bits.contains(key)

  def set(key: Long): Unit = {
    require(key >= 0, s"negative key $key")
    bits.addLong(key)
  }

  def clear(key: Long): Unit = if (key >= 0) bits.removeLong(key)

  def cardinality: Long = bits.getLongCardinality

  /** An independent copy (snapshots must not see later modifications). */
  def copy: ExistenceBitmap = {
    val m = new Roaring64NavigableMap()
    m.or(bits)
    new ExistenceBitmap(m)
  }

  /** Compressed storage footprint (what Eq. 1 charges for V_exist). */
  def byteSize: Long = {
    val bos = new java.io.ByteArrayOutputStream()
    val out = new java.io.DataOutputStream(bos)
    bits.serialize(out)
    out.close()
    BlockCodec.Zstd(3).compress(bos.toByteArray).length.toLong
  }
}

object ExistenceBitmap {
  def fromKeys(keys: Array[Long]): ExistenceBitmap = {
    val bm = new ExistenceBitmap(new Roaring64NavigableMap())
    keys.foreach(bm.set)
    bm
  }
}
