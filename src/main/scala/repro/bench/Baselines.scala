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

  /** Each lossless baseline's builder (block-file tag, data, pool budget),
    * by method name, in the paper's column order: AB, HB, ABC-D/G/Z/L,
    * HBC-Z/L. */
  private val builders: Seq[(String, (String, KvData, Long) => KeyValueStore)] = Seq(
    ("AB", ArrayStore.build(_, _, BlockCodec.Noop, ArrayPartBytes, _)),
    ("HB", HashStore.build(_, _, BlockCodec.Noop, HashPartBytes, _)),
    ("ABC-D", ArrayStore.build(_, _, BlockCodec.Noop, ArrayPartBytes, _, bitPacked = true)),
    ("ABC-G", ArrayStore.build(_, _, BlockCodec.Gzip(6), ArrayPartBytes, _)),
    ("ABC-Z", ArrayStore.build(_, _, BlockCodec.Zstd(3), ArrayPartBytes, _)),
    ("ABC-L", ArrayStore.build(_, _, BlockCodec.Lzma(6), ArrayPartBytes, _)),
    ("HBC-Z", HashStore.build(_, _, BlockCodec.Zstd(3), HashPartBytes, _)),
    ("HBC-L", HashStore.build(_, _, BlockCodec.Lzma(6), HashPartBytes, _)),
  )

  /** Build the baselines named `methods` (all of them by default), in that order. */
  def lossless(tag: String, data: KvData, poolBudget: Long,
               methods: Seq[String] = builders.map(_._1)): Seq[KeyValueStore] = {
    val build = builders.toMap
    methods.map(m => build(m)(s"$tag-${m.toLowerCase}", data, poolBudget))
  }
}
