package repro.core

import scala.jdk.CollectionConverters._

import repro.compress.BlockCodec
import repro.store.{BlockStore, BufferPool, KvData, SortedBlocks}

/** T_aux — the auxiliary accuracy-assurance table (paper §IV-B.1).
  *
  * Misclassified key→value-codes pairs in [[SortedBlocks]]: sorted by key,
  * range-partitioned, each partition compressed with the configured codec
  * and stored on disk, fetched through a [[BufferPool]] and binary-searched
  * (Alg. 1's validation step).
  *
  * Modifications (Alg. 3–5) land in an in-memory sorted overlay — the
  * "materialize the modification operations in this structure" of
  * §IV-D — with tombstones for deletions of base entries; [[repack]]
  * folds the overlay back into compressed partitions (what retraining's
  * reconstruction uses). Size accounting always reflects the packed form.
  */
final class AuxTable private (codec: BlockCodec, partitionBytes: Int, private var base: SortedBlocks, val nCols: Int) {

  /** Overlay value null = tombstone over a base entry (removed from T_aux). */
  private val overlay = new java.util.TreeMap[Long, Array[Int]]()

  def store: BlockStore = base.store
  def pool: BufferPool = base.pool
  def overlaySize: Int = overlay.size

  private def overlayKeys: Array[Long] = overlay.keySet.asScala.toArray

  /** Logical entry count (base minus tombstones plus overlay adds). */
  def entryCount: Long = {
    val inBase = base.get(overlayKeys)
    var n = base.rows
    var i = 0
    overlay.values.forEach { v =>
      if (v == null) n -= 1 else if (inBase(i) == null) n += 1
      i += 1
    }
    n
  }

  /** Value codes of each of `keys` (null when not in T_aux); each base
    * partition is decompressed at most once per call. */
  def get(keys: Array[Long]): Array[Array[Int]] = {
    val rows = base.get(keys)
    var i = 0
    while (i < keys.length) { rows(i) = overlay.getOrDefault(keys(i), rows(i)); i += 1 } // may be a tombstone
    rows
  }

  def get(k: Long): Array[Int] = get(Array(k))(0)

  def contains(k: Long): Boolean = get(k) != null

  /** Add or overwrite an entry (Alg. 3 / Alg. 5). */
  def add(k: Long, codes: Array[Int]): Unit = {
    require(codes.length == nCols)
    overlay.put(k, codes.clone())
  }

  /** Remove entries if present (Alg. 4 / Alg. 5's first branch); each
    * base partition is decompressed at most once per call. */
  def remove(keys: Array[Long]): Unit = {
    val inBase = base.get(keys)
    var i = 0
    while (i < keys.length) {
      if (inBase(i) != null) overlay.put(keys(i), null) else overlay.remove(keys(i))
      i += 1
    }
  }

  def remove(k: Long): Unit = remove(Array(k))

  /** All live (key, codes) pairs, sorted by key. */
  def entries(): (Array[Long], Array[Array[Int]]) = {
    val keys = scala.collection.mutable.ArrayBuffer.empty[Long]
    val cols = Array.fill(nCols)(scala.collection.mutable.ArrayBuffer.empty[Int])
    def put(k: Long, codes: Int => Int): Unit = { keys += k; cols.indices.foreach(c => cols(c) += codes(c)) }
    (0 until base.blockCount).foreach { b =>
      val blk = base.block(b)
      blk.keys.indices.foreach(i => if (!overlay.containsKey(blk.keys(i))) put(blk.keys(i), blk.cols(_)(i)))
    }
    overlay.forEach((k, v) => if (v != null) put(k, v))
    val sorted = KvData(keys.toArray, cols.map(_.toArray)).sortedByKey
    (sorted.keys, sorted.cols)
  }

  /** Fold the overlay into fresh compressed partitions. */
  def repack(): Unit = {
    val (ks, cs) = entries()
    overlay.clear()
    pool.clear()
    val old = base
    base = SortedBlocks.pack("aux", KvData(ks, cs), codec, partitionBytes, bitPacked = false, old.pool)
    old.close()
  }

  /** Packed on-disk footprint. The overlay is charged at its would-be
    * compressed size so growth from modifications is visible to the
    * retrain trigger without forcing an eager repack. */
  def byteSize: Long = {
    val overlayBytes =
      if (overlay.isEmpty) 0L
      else {
        val rows = overlay.values.asScala.toArray
        val codes = Array.tabulate(nCols)(c => rows.map(v => if (v == null) 0 else v(c)))
        codec.compress(SortedBlocks.encodeBlock(overlayKeys, codes, 0, overlay.size, bitPacked = false)).length.toLong
      }
    base.byteSize + overlayBytes
  }

  def close(): Unit = base.close()
}

object AuxTable {

  /** Build from (already misclassification-filtered) pairs; sorts by key. */
  def build(keys: Array[Long], cols: Array[Array[Int]], codec: BlockCodec,
            partitionBytes: Int, pool: BufferPool): AuxTable =
    new AuxTable(codec, partitionBytes,
      SortedBlocks.pack("aux", KvData(keys, cols).sortedByKey, codec, partitionBytes, bitPacked = false, pool), cols.length)
}
