package repro.store

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, DataInputStream, DataOutputStream}

import repro.compress.{BitPack, BlockCodec}

/** Rows sorted by key, range-partitioned into blocks; each block
  * serialises its key array plus columnar value arrays (the "serialized
  * numpy array" analogue), optionally dictionary/bit-packed (ABC-D), and
  * is compressed with `codec`. This is the layout of the array baselines
  * AB / ABC-* (paper §V-A) and of T_aux (§IV-B.1). An in-memory
  * first/last-key index locates a key's block; blocks are decoded through
  * the buffer pool and charged at their decoded size.
  */
final class SortedBlocks private (
    val store: BlockStore,
    firstKeys: Array[Long],
    lastKeys: Array[Long],
    val rows: Long,
    codec: BlockCodec,
    bitPacked: Boolean,
    val pool: BufferPool,
) extends Serializable {
  import SortedBlocks.Block

  def blockCount: Int = firstKeys.length

  /** On-disk footprint: the block file plus the index's first and last
    * key, 16 B per block. */
  def byteSize: Long = store.fileBytes + blockCount * 16L

  /** Index of the block whose [first,last] range covers `k`, or -1. */
  private def blockOf(k: Long): Int = {
    var lo = 0; var hi = firstKeys.length - 1; var ans = -1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      if (firstKeys(mid) <= k) { ans = mid; lo = mid + 1 } else hi = mid - 1
    }
    if (ans >= 0 && k <= lastKeys(ans)) ans else -1
  }

  /** Block `id`, read, decompressed and deserialised on a pool miss. */
  def block(id: Int): Block =
    pool.get[Block]((store, id)) {
      val blk = SortedBlocks.decode(codec.decompress(store.read(id)), bitPacked)
      (blk, blk.keys.length.toLong * (8 + 4 * blk.cols.length) + 64)
    }

  /** Value row of each of `keys` (null where absent), in the order of
    * `keys`. The keys are probed in ascending order with the current block
    * held in a local, so each block is decoded at most once per call even
    * when no block fits the pool (paper §IV-B.2: batch keys are sorted
    * before validation). */
  def get(keys: Array[Long]): Array[Array[Int]] = {
    val sorted = keys.clone()
    java.util.Arrays.sort(sorted)
    val found = new Array[Array[Int]](sorted.length)
    var cur = -1
    var blk: Block = null
    var i = 0
    while (i < sorted.length) {
      val b = blockOf(sorted(i))
      if (b >= 0) {
        if (b != cur) { blk = block(b); cur = b }
        found(i) = blk.row(sorted(i))
      }
      i += 1
    }
    keys.map(k => found(java.util.Arrays.binarySearch(sorted, k)))
  }

  /** The same blocks held in memory (see [[BlockStore.held]]), cached in `pool`. */
  def held(pool: BufferPool): SortedBlocks = new SortedBlocks(store.held, firstKeys, lastKeys, rows, codec, bitPacked, pool)

  def close(): Unit = store.delete()
}

object SortedBlocks {

  /** One decoded block: ascending keys and one code array per column. */
  final class Block(val keys: Array[Long], val cols: Array[Array[Int]]) {
    /** Value row of `k`, or null when this block does not hold it. */
    def row(k: Long): Array[Int] = {
      val pos = java.util.Arrays.binarySearch(keys, k)
      if (pos >= 0) cols.map(_(pos)) else null
    }
  }

  /** Deserialise one uncompressed block written by [[encodeBlock]]. */
  def decode(bytes: Array[Byte], bitPacked: Boolean): Block = {
    val in = new DataInputStream(new ByteArrayInputStream(bytes))
    val n = in.readInt(); val nCols = in.readInt()
    val keys = new Array[Long](n)
    var i = 0
    while (i < n) { keys(i) = in.readLong(); i += 1 }
    val cols = new Array[Array[Int]](nCols)
    var c = 0
    while (c < nCols) {
      if (bitPacked) {
        val bits = in.readInt()
        val packed = new Array[Byte](in.readInt()); in.readFully(packed)
        cols(c) = BitPack.unpack(packed, bits, n)
      } else {
        val a = new Array[Int](n)
        var j = 0
        while (j < n) { a(j) = in.readInt(); j += 1 }
        cols(c) = a
      }
      c += 1
    }
    new Block(keys, cols)
  }

  /** Serialise rows [from, until); bitPacked selects the ABC-D payload. */
  def encodeBlock(keys: Array[Long], cols: Array[Array[Int]], from: Int, until: Int,
                  bitPacked: Boolean): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val out = new DataOutputStream(bos)
    out.writeInt(until - from); out.writeInt(cols.length)
    (from until until).foreach(i => out.writeLong(keys(i)))
    cols.foreach { col =>
      if (bitPacked) {
        val slice = java.util.Arrays.copyOfRange(col, from, until)
        val bits = BitPack.bitsFor(slice.foldLeft(0)(math.max))
        val packed = BitPack.pack(slice, bits)
        out.writeInt(bits); out.writeInt(packed.length); out.write(packed)
      } else (from until until).foreach(j => out.writeInt(col(j)))
    }
    out.close()
    bos.toByteArray
  }

  /** Pack key-sorted `data` into blocks of at most `partitionBytes`
    * uncompressed row bytes (at least one row each) — the partition-size
    * knob of paper §V-A.5. */
  def pack(tag: String, data: KvData, codec: BlockCodec, partitionBytes: Int, bitPacked: Boolean,
           pool: BufferPool): SortedBlocks = {
    val rowsPerBlock = math.max(1, partitionBytes / data.rawRowBytes)
    val starts = (0 until data.rows by rowsPerBlock).toArray
    val ends = starts.map(from => math.min(data.rows, from + rowsPerBlock))
    val blocks = starts.indices.map(b => codec.compress(encodeBlock(data.keys, data.cols, starts(b), ends(b), bitPacked)))
    new SortedBlocks(BlockStore.write(tag, blocks), starts.map(data.keys(_)), ends.map(e => data.keys(e - 1)),
      data.rows, codec, bitPacked, pool)
  }
}
