package repro.baseline

import repro.compress.BlockCodec
import repro.nn.{Dense, Mat}
import repro.store.{BufferPool, KeyValueStore, KvData}

/** Simplified DeepSqueeze (paper baseline DS, [32]): a semantic
  * compressor that auto-encodes normalised column codes, stores the
  * ε-quantised latents (compressed) plus the decoder, and reconstructs
  * *all* rows to answer any query.
  *
  * Reproduces the two behaviours the paper reports for DS on these
  * workloads: (1) it is lossy — quantisation bins cannot guarantee exact
  * categorical reconstruction; and (2) lookups are extremely expensive in
  * time and memory because the whole dataset must be decoded before any
  * key can be probed ("failed"/OOM on the small machine). The full-decode
  * working set is charged against the buffer-pool budget: if it does not
  * fit, [[lookup]] throws [[DeepSqueezeLite.OutOfMemoryBudget]], which
  * benchmarks report as the paper's "failed".
  */
final class DeepSqueezeLite private (
    keys: Array[Long],
    latentBlocks: Array[Byte],
    decoder: Array[Dense],
    nCols: Int,
    cards: Array[Int],
    latentDim: Int,
    eps: Float,
    val pool: BufferPool,
) extends KeyValueStore {

  override def name: String = "DS"

  override def storageBytes: Long =
    latentBlocks.length.toLong + keys.length * 8L / 4 /* keys zstd ~4x */ +
      decoder.map(_.byteSize).sum

  /** Decoded working set: all rows' codes + latents. */
  def decodeWorkingSetBytes: Long = keys.length.toLong * (4L * nCols + 4L * latentDim + 8L)

  private def decodeAll(): Array[Array[Int]] = {
    if (decodeWorkingSetBytes > pool.budgetBytes)
      throw new DeepSqueezeLite.OutOfMemoryBudget(decodeWorkingSetBytes, pool.budgetBytes)
    val raw = BlockCodec.Zstd(3).decompress(latentBlocks)
    val bb = java.nio.ByteBuffer.wrap(raw)
    val n = keys.length
    val z = Mat.zeros(n, latentDim)
    var i = 0
    while (i < z.data.length) { z.data(i) = bb.getInt * eps; i += 1 }
    val h = Dense.forwardAll(decoder, z).last
    // De-normalise to codes.
    val out = Array.fill(nCols)(new Array[Int](n))
    var r = 0
    while (r < n) {
      var c = 0
      while (c < nCols) {
        val v = math.round(h.data(r * nCols + c) * (cards(c) - 1)).toInt
        out(c)(r) = math.max(0, math.min(cards(c) - 1, v))
        c += 1
      }
      r += 1
    }
    out
  }

  override def lookup(qs: Array[Long]): Array[Array[Int]] = {
    // DS has no partition structure: every batch decodes the full table.
    val cols = decodeAll()
    val out = new Array[Array[Int]](qs.length)
    var i = 0
    while (i < qs.length) {
      val pos = java.util.Arrays.binarySearch(keys, qs(i))
      if (pos >= 0) out(i) = Array.tabulate(nCols)(c => cols(c)(pos))
      i += 1
    }
    out
  }
}

object DeepSqueezeLite {

  final class OutOfMemoryBudget(need: Long, budget: Long)
      extends RuntimeException(s"DS decode working set $need B exceeds memory budget $budget B")

  /** Train the autoencoder and quantise latents. `eps` is the paper's
    * error bound (0.001). */
  def build(data: KvData, cards: Array[Int], poolBudget: Long,
            eps: Float = 0.001f, epochs: Int = 5, seed: Long = 50): DeepSqueezeLite = {
    val sorted = data.sortedByKey
    val n = sorted.rows
    val m = sorted.nCols
    val latentDim = math.max(1, m / 2)
    val hidden = 16
    val encoder = Array(new Dense(m, hidden, relu = true, seed), new Dense(hidden, latentDim, relu = false, seed + 1))
    val decoder = Array(new Dense(latentDim, hidden, relu = true, seed + 2), new Dense(hidden, m, relu = false, seed + 3))
    val layers = encoder ++ decoder
    // Normalised input matrix.
    val x = Mat.zeros(n, m)
    var r = 0
    while (r < n) {
      var c = 0
      while (c < m) { x.data(r * m + c) = sorted.cols(c)(r).toFloat / math.max(1, cards(c) - 1); c += 1 }
      r += 1
    }
    // Mini-batch MSE training.
    val batch = 4096
    var t = 0
    var e = 0
    while (e < epochs) {
      var from = 0
      while (from < n) {
        val until = math.min(n, from + batch)
        val nb = until - from
        val xb = new Mat(nb, m, java.util.Arrays.copyOfRange(x.data, from * m, until * m))
        val acts = Dense.forwardAll(layers, xb)
        val y = acts.last
        val dy = Mat.zeros(nb, m)
        var i = 0
        while (i < dy.data.length) { dy.data(i) = 2f * (y.data(i) - xb.data(i)) / nb; i += 1 }
        Dense.backwardAll(layers, acts, dy)
        t += 1
        layers.foreach(_.step(1e-3f, t))
        from = until
      }
      e += 1
    }
    // Quantise latents of all rows.
    val z = Dense.forwardAll(encoder, x).last
    val bb = java.nio.ByteBuffer.allocate(n * latentDim * 4)
    var i = 0
    while (i < z.data.length) { bb.putInt(math.round(z.data(i) / eps)); i += 1 }
    val latents = BlockCodec.Zstd(3).compress(bb.array())
    new DeepSqueezeLite(sorted.keys, latents, decoder, m, cards, latentDim, eps, new BufferPool(poolBudget))
  }
}
