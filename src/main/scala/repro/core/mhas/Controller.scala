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
  import Controller.Sample

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
    val adv = advantage.toFloat
    // Backward through time.
    var dh = new Array[Float](hidden)
    var dc = new Array[Float](hidden)
    var dxNext: Array[Float] = null // gradient flowing into the embedding fed at step t+1
    var t = space.slotCount - 1
    while (t >= 0) {
      val pr = s.probs(t)
      val choice = s.decisions(t)
      // d(-adv * log p(choice))/dlogits = adv * (softmax - onehot)
      val dLogits = new Mat(1, pr.length, Array.tabulate(pr.length)(j => adv * (pr(j) - (if (j == choice) 1f else 0f))))
      // dh gains dLogits * headWᵀ, taken before the head's plain SGD step.
      Mat.axpyInPlace(dh, 0, 1f, Mat.mulTransB(dLogits, headW(t)).data)
      Mat.axpyInPlace(headW(t).data, 0, -lr, Mat.transAmul(new Mat(1, hidden, s.caches(t).h), dLogits).data)
      Mat.axpyInPlace(headB(t), 0, -lr, dLogits.data)
      // Embedding of this step's choice receives the gradient that flowed
      // into the *next* step's input.
      if (dxNext != null) Mat.axpyInPlace(emb(t).data, choice * embDim, -lr, dxNext)
      val (dx, dhPrev, dcPrev) = cell.backwardStep(s.caches(t), dh, dc)
      dxNext = dx
      dh = dhPrev
      dc = dcPrev
      t -= 1
    }
    cell.step(lr, adamT)
  }
}

object Controller {
  /** One sampled decision sequence, with what REINFORCE needs to update it. */
  final case class Sample(decisions: Array[Int], logProb: Double,
                          caches: Array[StepCache],
                          probs: Array[Array[Float]])
}
