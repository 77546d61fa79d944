package repro.core.mhas

import repro.nn.{LstmCell, Mat, StepCache}

/** LSTM architecture-search controller (paper §IV-C.2, after ENAS).
  *
  * Decisions are sampled autoregressively: the embedding of the previous
  * decision feeds the LSTM, whose hidden state goes through a per-slot
  * softmax head. Training is REINFORCE: for a sampled decision sequence
  * with advantage A, the loss is `-A * Σ log p(d_t)`, backpropagated
  * through the heads and through time with [[LstmCell.backwardStep]].
  */
final class Controller(val space: SearchSpace, hidden: Int = 64, embDim: Int = 16, seed: Long = 11L) {

  private val cell = new LstmCell(embDim, hidden, seed)
  /** Per-slot softmax head: hidden -> nChoices (weights + bias). */
  private val headW: Array[Mat] = space.slots.zipWithIndex.map { case ((_, k), i) =>
    Mat.randn(hidden, k, seed + 100 + i, scale = 0.05)
  }.toArray
  private val headB: Array[Array[Float]] = space.slots.map { case (_, k) => new Array[Float](k) }.toArray
  /** Per-slot embedding table of the *chosen* option (input to next step).
    * Row 0 of slot -1 is the start token. */
  private val emb: Array[Mat] = space.slots.zipWithIndex.map { case ((_, k), i) =>
    Mat.randn(k, embDim, seed + 200 + i, scale = 0.05)
  }.toArray
  private val startToken: Array[Float] = {
    val rng = new java.util.Random(seed + 999)
    Array.fill(embDim)((rng.nextGaussian() * 0.05).toFloat)
  }

  private var adamT = 0

  final case class Sample(decisions: Array[Int], logProb: Double,
                          caches: Array[StepCache],
                          probs: Array[Array[Float]])

  /** Sample a decision sequence (optionally greedy = argmax). */
  def sample(rng: java.util.Random, greedy: Boolean = false): Sample = {
    val n = space.slotCount
    val decisions = new Array[Int](n)
    val caches = new Array[StepCache](n)
    val probs = new Array[Array[Float]](n)
    var h = new Array[Float](hidden)
    var c = new Array[Float](hidden)
    var x = startToken
    var logP = 0.0
    var t = 0
    while (t < n) {
      val cache = cell.forwardStep(x, h, c)
      caches(t) = cache
      h = cache.h; c = cache.c
      val logits = Mat.addRowInPlace(Mat.mul(new Mat(1, hidden, h), headW(t)), headB(t))
      val softmax = Mat.softmaxRows(logits)
      val pr = softmax.data
      probs(t) = pr
      val choice =
        if (greedy) Mat.argmaxRows(softmax)(0)
        else {
          val u = rng.nextDouble()
          var acc = 0.0; var i2 = 0; var pick = pr.length - 1; var done = false
          while (i2 < pr.length && !done) { acc += pr(i2); if (u <= acc) { pick = i2; done = true }; i2 += 1 }
          pick
        }
      decisions(t) = choice
      logP += math.log(math.max(pr(choice).toDouble, 1e-12))
      x = emb(t).row(choice)
      t += 1
    }
    Sample(decisions, logP, caches, probs)
  }

  /** One REINFORCE update for `s` with the given advantage. */
  def reinforce(s: Sample, advantage: Double, lr: Float): Unit = {
    adamT += 1
    val n = space.slotCount
    val adv = advantage.toFloat
    // Backward through time.
    var dh = new Array[Float](hidden)
    var dc = new Array[Float](hidden)
    var dxNext: Array[Float] = null // gradient flowing into the embedding fed at step t+1
    var t = n - 1
    while (t >= 0) {
      val k = space.slots(t)._2
      val pr = s.probs(t)
      val choice = s.decisions(t)
      // d(-adv * log p(choice))/dlogits = adv * (softmax - onehot)
      val dLogits = new Array[Float](k)
      var j = 0
      while (j < k) { dLogits(j) = adv * (pr(j) - (if (j == choice) 1f else 0f)); j += 1 }
      // Head gradients; also dh contribution.
      val h = s.caches(t).h
      var p = 0
      while (p < hidden) {
        var s2 = 0f
        j = 0
        while (j < k) {
          s2 += headW(t).data(p * k + j) * dLogits(j)
          headW(t).data(p * k + j) -= lr * h(p) * dLogits(j) // plain SGD on heads
          j += 1
        }
        dh(p) += s2
        p += 1
      }
      j = 0
      while (j < k) { headB(t)(j) -= lr * dLogits(j); j += 1 }
      // Embedding of this step's choice receives the gradient that flowed
      // into the *next* step's input.
      if (dxNext != null) {
        val row = choice * embDim
        var e = 0
        while (e < embDim) { emb(t).data(row + e) -= lr * dxNext(e); e += 1 }
      }
      val (dx, dhPrev, dcPrev) = cell.backwardStep(s.caches(t), dh, dc)
      dxNext = dx
      dh = dhPrev
      dc = dcPrev
      t -= 1
    }
    cell.step(lr, adamT)
  }
}
