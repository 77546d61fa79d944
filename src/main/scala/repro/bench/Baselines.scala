package repro.bench

import repro.compress.BlockCodec
import repro.store.{ArrayStore, HashStore, KeyValueStore, KvData}

/** Builders for the paper's comparison baselines (§V-A.3), with the
  * partition sizes the paper's grid search settles on (§V-A.5): large
  * partitions for array stores (loading dominates), small partitions for
  * hash stores (deserialization dominates).
  */
object Baselines {

  val ArrayPartBytes = 1 << 20 // 1 MB
  val HashPartBytes = 128 * 1024

  /** All lossless baselines: AB, HB, ABC-D/G/Z/L, HBC-Z/L. */
  def lossless(tag: String, data: KvData, poolBudget: Long): Seq[KeyValueStore] = Seq(
    ArrayStore.build(s"$tag-ab", data, BlockCodec.Noop, ArrayPartBytes, poolBudget),
    HashStore.build(s"$tag-hb", data, BlockCodec.Noop, HashPartBytes, poolBudget),
    ArrayStore.build(s"$tag-abcd", data, BlockCodec.Noop, ArrayPartBytes, poolBudget, bitPacked = true),
    ArrayStore.build(s"$tag-abcg", data, BlockCodec.Gzip(6), ArrayPartBytes, poolBudget),
    ArrayStore.build(s"$tag-abcz", data, BlockCodec.Zstd(3), ArrayPartBytes, poolBudget),
    ArrayStore.build(s"$tag-abcl", data, BlockCodec.Lzma(6), ArrayPartBytes, poolBudget),
    HashStore.build(s"$tag-hbcz", data, BlockCodec.Zstd(3), HashPartBytes, poolBudget),
    HashStore.build(s"$tag-hbcl", data, BlockCodec.Lzma(6), HashPartBytes, poolBudget),
  )
}
