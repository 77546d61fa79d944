package repro.store

import repro.compress.BlockCodec

/** Array-based representation (paper baselines AB / ABC-*): the rows in
  * [[SortedBlocks]], optionally dictionary/bit-packed (ABC-D) and/or
  * block-compressed (ABC-G/Z/L). Lookup binary-searches the block index,
  * loads the block through the buffer pool, then binary-searches the keys
  * inside the block.
  */
final class ArrayStore private (val name: String, val blocks: SortedBlocks) extends KeyValueStore {
  override def pool: BufferPool = blocks.pool
  override def storageBytes: Long = blocks.byteSize
  override def lookup(keys: Array[Long]): Array[Array[Int]] = blocks.get(keys)
  override def close(): Unit = blocks.close()
}

object ArrayStore {

  /** Build from `data`; `partitionBytes` bounds the *uncompressed* block
    * size (the grid-search knob of paper §V-A.5). */
  def build(tag: String, data: KvData, codec: BlockCodec, partitionBytes: Int,
            poolBudget: Long, bitPacked: Boolean = false): ArrayStore = {
    val nm = (codec, bitPacked) match {
      case (BlockCodec.Noop, false) => "AB"
      case (BlockCodec.Noop, true)  => "ABC-D"
      case (c, _)                   => s"ABC-${c.name.head.toUpper}"
    }
    new ArrayStore(nm, SortedBlocks.pack(tag, data.sortedByKey, codec, partitionBytes, bitPacked,
      new BufferPool(poolBudget)))
  }
}
