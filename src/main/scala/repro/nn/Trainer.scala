package repro.nn

/** Mini-batch trainer for [[MultiTaskNet]].
  *
  * Features are materialised per batch from the raw keys via `encode`, so
  * the full feature matrix is never resident (mirrors the paper's batched
  * training at batch 16384, scaled down). Shuffling is a deterministic
  * Fisher–Yates on a seeded RNG so runs are reproducible.
  */
object Trainer {

  final case class Config(
      epochs: Int = 20,
      batchSize: Int = 4096,
      lr: Float = 1e-3f,
      lrDecay: Float = 0.999f,
      lossTol: Double = 1e-4, // paper: stop when |Δloss| < 1e-4
      seed: Long = 42L,
  )

  /** Encode rows `idx` of `keys` into a feature matrix. */
  def encodeBatch(keys: Array[Long], idx: Array[Int], from: Int, until: Int,
                  featDim: Int, encode: (Long, Array[Float], Int) => Unit): Mat = {
    val n = until - from
    val m = Mat.zeros(n, featDim)
    var r = 0
    while (r < n) { encode(keys(idx(from + r)), m.data, r * featDim); r += 1 }
    m
  }

  private def gatherLabels(labels: Array[Array[Int]], idx: Array[Int], from: Int, until: Int): Array[Array[Int]] =
    labels.map { col =>
      val out = new Array[Int](until - from)
      var r = 0
      while (r < out.length) { out(r) = col(idx(from + r)); r += 1 }
      out
    }

  /** Train `net` to memorise keys→labels. Returns per-epoch mean losses. */
  def fit(net: MultiTaskNet, keys: Array[Long], labels: Array[Array[Int]],
          encode: (Long, Array[Float], Int) => Unit, cfg: Config = Config()): Seq[Double] = {
    val n = keys.length
    require(labels.forall(_.length == n), "label column length mismatch")
    val idx = Array.tabulate(n)(identity)
    val rng = new java.util.Random(cfg.seed)
    var lr = cfg.lr
    var t = 0
    var prevLoss = Double.MaxValue
    val losses = scala.collection.mutable.ArrayBuffer.empty[Double]
    var epoch = 0
    var stop = false
    while (epoch < cfg.epochs && !stop) {
      // Fisher–Yates shuffle.
      var i = n - 1
      while (i > 0) { val j = rng.nextInt(i + 1); val tmp = idx(i); idx(i) = idx(j); idx(j) = tmp; i -= 1 }
      var lossSum = 0.0
      var batches = 0
      var from = 0
      while (from < n) {
        val until = math.min(n, from + cfg.batchSize)
        val x = encodeBatch(keys, idx, from, until, net.featDim, encode)
        val y = gatherLabels(labels, idx, from, until)
        t += 1
        lossSum += net.trainBatch(x, y, lr, t)
        lr *= cfg.lrDecay
        batches += 1
        from = until
      }
      val epochLoss = lossSum / math.max(1, batches)
      losses += epochLoss
      if (math.abs(prevLoss - epochLoss) < cfg.lossTol) stop = true
      prevLoss = epochLoss
      epoch += 1
    }
    losses.toSeq
  }

  /** Batched prediction over `keys`; result(task)(row). */
  def predictAll(net: MultiTaskNet, keys: Array[Long],
                 encode: (Long, Array[Float], Int) => Unit, batchSize: Int = 8192): Array[Array[Int]] = {
    val n = keys.length
    val out = Array.fill(net.arch.tasks.length)(new Array[Int](n))
    val idx = Array.tabulate(n)(identity)
    var from = 0
    while (from < n) {
      val until = math.min(n, from + batchSize)
      val x = encodeBatch(keys, idx, from, until, net.featDim, encode)
      val preds = net.predict(x)
      var tk = 0
      while (tk < preds.length) {
        System.arraycopy(preds(tk), 0, out(tk), from, until - from)
        tk += 1
      }
      from = until
    }
    out
  }

  /** Misclassification sweep: indices of the rows whose prediction misses
    * its label in at least one task, ascending. */
  def mispredicted(net: MultiTaskNet, keys: Array[Long], labels: Array[Array[Int]],
                   encode: (Long, Array[Float], Int) => Unit): Array[Int] = {
    val preds = predictAll(net, keys, encode)
    val out = Array.newBuilder[Int]
    var i = 0
    while (i < keys.length) {
      var t = 0
      while (t < labels.length && preds(t)(i) == labels(t)(i)) t += 1
      if (t < labels.length) out += i
      i += 1
    }
    out.result()
  }
}
