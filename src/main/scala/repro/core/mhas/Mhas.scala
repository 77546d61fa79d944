package repro.core.mhas

import repro.core.{DmConfig, ExistenceBitmap, KeyEncoder, ValueDicts}
import repro.nn.{Dense, MultiTaskNet, NetArch, Trainer}
import repro.store.{KvData, SortedBlocks}

/** Multi-task hybrid architecture search — paper Algorithm 2.
  *
  * Alternates (a) *model training iterations* — train the currently
  * sampled child for a few mini-batches with weights drawn from a shared
  * bank, so layers sampled again later keep their learned parameters
  * (ENAS weight sharing) — and (b) *controller training iterations* —
  * REINFORCE updates of the LSTM controller against the Eq. 1 objective
  *
  *   (size(M) + size(T_aux) + size(V_exist) + size(f_decode)) / size(D)
  *
  * where size(T_aux) is estimated by packing the child's misses on an
  * evaluation sample as T_aux packs them, scaled up to the whole dataset.
  */
object Mhas {

  final case class Config(
      space: SearchSpace,
      /** Total search iterations N_t (paper: 2000; scaled down here). */
      iterations: Int = 60,
      /** Mini-batches of model training per model iteration. */
      trainBatchesPerIter: Int = 8,
      /** Controller updates happen every `controllerEvery` iterations
        * (paper: every 50, 1 epoch of controller training). */
      controllerEvery: Int = 5,
      batchSize: Int = 2048,
      modelLr: Float = 1e-3f,
      controllerLr: Float = 3.5e-4f, // paper §V-A.6
      /** Rows used for the reward estimate. */
      evalRows: Int = 4096,
      seed: Long = 21L,
  )

  final case class Result(arch: NetArch, bestRatio: Double, ratioHistory: Seq[Double]) {
    /** Fig. 9's qualitative property: the best ratio found late in the
      * search is at least as good as anything sampled early. A short,
      * noisy search cannot guarantee monotone *means* (the paper smooths
      * over a 500-sample window), so we compare running minima. */
    def historyImproved: Boolean = {
      if (ratioHistory.length < 4) true
      else {
        val half = ratioHistory.length / 2
        val earlyBest = ratioHistory.take(half).min
        val lateBest = ratioHistory.drop(half).min
        lateBest <= earlyBest * 1.05 + 1e-9
      }
    }
  }

  /** Rows per run of the eval sample. */
  private val EvalRun = 256

  /** About `n` rows of `data` in key order, as runs of [[EvalRun]]
    * key-consecutive rows at random starts: runs keep the neighbours that
    * T_aux compresses together, which rows drawn one by one lose. */
  private[mhas] def evalSample(data: KvData, n: Int, rng: java.util.Random): KvData = {
    val sorted = data.sortedByKey
    val run = math.min(EvalRun, data.rows)
    val starts = if (run == 0) Array.empty[Int]
                 else Array.fill(math.max(1, math.min(n, data.rows) / run))(rng.nextInt(data.rows - run + 1))
    val idx = starts.flatMap(s => s until s + run).distinct.sorted
    KvData(idx.map(sorted.keys(_)), sorted.cols.map(col => idx.map(col(_))))
  }

  /** Eq. 1 estimate for a trained child on a key-sorted `sample` of `data`.
    * size(T_aux) is the child's misses on the sample as one T_aux block,
    * compressed with `build`'s default codec, times rows over sample rows;
    * `existBytes` is V_exist's real size, the same for every child. */
  private[mhas] def ratioEstimate(net: MultiTaskNet, data: KvData, enc: KeyEncoder, dicts: ValueDicts,
                                  sample: KvData, existBytes: Long): Double = {
    val miss = Trainer.mispredicted(net, sample.keys, sample.cols, enc.encode)
    val block = SortedBlocks.encodeBlock(miss.map(sample.keys(_)), sample.cols.map(col => miss.map(col(_))),
      0, miss.length, bitPacked = false)
    val auxBytes = DmConfig().codec.compress(block).length.toDouble * data.rows / sample.rows
    (net.byteSize + auxBytes + existBytes + dicts.byteSize) / data.rawBytes.toDouble
  }

  /** Run the search; returns the best architecture by estimated Eq. 1. */
  def search(data: KvData, dicts: ValueDicts, cfg: Config): Result = {
    val maxKey = if (data.rows == 0) 0L else data.keys.max
    val enc = KeyEncoder(maxKey)
    val rng = new java.util.Random(cfg.seed)
    // ENAS weight sharing: one Dense per (slot, in, out, relu), handed to
    // every child that selects that slot shape. A head's slot is
    // `<task>.head` at any private depth, so children share it.
    val bank = scala.collection.mutable.HashMap.empty[(String, Int, Int, Boolean), Dense]
    def child(arch: NetArch): MultiTaskNet = MultiTaskNet.wire(enc.featDim, arch) { (task, depth, in, out) =>
      val slot = if (task < 0) s"shared$depth" else s"${arch.tasks(task).name}.${if (depth < 0) "head" else s"p$depth"}"
      bank.getOrElseUpdate((slot, in, out, depth >= 0), new Dense(in, out, depth >= 0, cfg.seed + bank.size))
    }
    val controller = new Controller(cfg.space, seed = cfg.seed)
    val sample = evalSample(data, cfg.evalRows, rng)
    val order = Array.tabulate(data.rows)(identity)
    val existBytes = ExistenceBitmap.fromKeys(data.keys).byteSize

    var baseline = -1.0 // EMA of rewards
    var bestRatio = Double.MaxValue
    var bestArch: NetArch = cfg.space.decode(new Array[Int](cfg.space.slotCount))
    val history = scala.collection.mutable.ArrayBuffer.empty[Double]
    var adamT = 0

    var iter = 0
    while (iter < cfg.iterations) {
      // --- model training iteration (controller fixed) ---
      val s = controller.sample(rng)
      val arch = cfg.space.decode(s.decisions)
      val net = child(arch)
      var b = 0
      while (b < cfg.trainBatchesPerIter) {
        val from = rng.nextInt(math.max(1, data.rows - cfg.batchSize + 1))
        val until = math.min(data.rows, from + cfg.batchSize)
        val x = Trainer.encodeBatch(data.keys, order, from, until, enc.featDim, enc.encode)
        val y = data.cols.map(col => java.util.Arrays.copyOfRange(col, from, until))
        adamT += 1
        net.trainBatch(x, y, cfg.modelLr, adamT)
        b += 1
      }
      // --- controller training iteration (weights fixed) ---
      if ((iter + 1) % cfg.controllerEvery == 0) {
        val s2 = controller.sample(rng)
        val arch2 = cfg.space.decode(s2.decisions)
        val child2 = child(arch2)
        val ratio = ratioEstimate(child2, data, enc, dicts, sample, existBytes)
        history += ratio
        if (ratio < bestRatio) { bestRatio = ratio; bestArch = arch2 }
        val reward = -ratio
        baseline = if (baseline == -1.0) reward else 0.9 * baseline + 0.1 * reward
        controller.reinforce(s2, reward - baseline, cfg.controllerLr)
      }
      iter += 1
    }
    // Final greedy sample is also a candidate.
    val greedy = controller.sample(rng, greedy = true)
    val gArch = cfg.space.decode(greedy.decisions)
    val gChild = child(gArch)
    val gRatio = ratioEstimate(gChild, data, enc, dicts, sample, existBytes)
    if (gRatio < bestRatio) { bestRatio = gRatio; bestArch = gArch }
    Result(bestArch, bestRatio, history.toSeq)
  }
}
