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
  * Not thread-safe: [[DeepMapping]] locks around it.
  */
final class AuxTable private (codec: BlockCodec, partitionBytes: Int, private var base: SortedBlocks, val nCols: Int)
    extends Serializable {

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

  /** All live (key, codes) pairs, sorted by key: one merge of the base
    * blocks, which are in key order, with the sorted overlay. */
  def entries(): (Array[Long], Array[Array[Int]]) = {
    val cap = (base.rows + overlay.size).toInt
    val keys = new Array[Long](cap)
    val cols = Array.fill(nCols)(new Array[Int](cap))
    var n = 0
    def put(k: Long, code: Int => Int): Unit = { keys(n) = k; cols.indices.foreach(c => cols(c)(n) = code(c)); n += 1 }
    val over = overlay.entrySet.iterator.asScala.buffered
    def putOverlay(): Unit = { val e = over.next(); val v = e.getValue; if (v != null) put(e.getKey, v(_)) } // skips tombstones
    (0 until base.blockCount).foreach { b =>
      val blk = base.block(b)
      blk.keys.indices.foreach { i =>
        val k = blk.keys(i)
        while (over.hasNext && over.head.getKey < k) putOverlay()
        if (over.hasNext && over.head.getKey == k) putOverlay() else put(k, blk.cols(_)(i))
      }
    }
    while (over.hasNext) putOverlay()
    (java.util.Arrays.copyOf(keys, n), cols.map(java.util.Arrays.copyOf(_, n)))
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

  /** An independent copy for shipping: the packed blocks as stored, held in
    * memory, the overlay, and an unbounded pool of its own. */
  def held: AuxTable = {
    val t = new AuxTable(codec, partitionBytes, base.held(new BufferPool(Long.MaxValue)), nCols)
    t.overlay.putAll(overlay)
    t
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
