package repro.nn

/** Single LSTM cell (batch size 1) with manual backprop-through-time.
  *
  * This powers the MHAS controller (paper §IV-C.2 / ENAS): the controller
  * samples architecture decisions autoregressively; REINFORCE needs
  * d(-logP)/dθ through the recurrent steps, which [[backwardStep]]
  * provides. Gate layout in the stacked weight matrices is [i, f, o, g].
  */
/** Per-step activations cached for backprop-through-time. */
final case class StepCache(x: Array[Float], hPrev: Array[Float], cPrev: Array[Float],
                           i: Array[Float], f: Array[Float], o: Array[Float], g: Array[Float],
                           c: Array[Float], h: Array[Float])

final class LstmCell(val inDim: Int, val hidden: Int, seed: Long) extends Serializable {
  val wx: Mat = Mat.randn(inDim, 4 * hidden, seed, scale = 0.05)
  val wh: Mat = Mat.randn(hidden, 4 * hidden, seed + 1, scale = 0.05)
  val b: Array[Float] = new Array[Float](4 * hidden)

  // Accumulated gradients (summed across BPTT steps until step()).
  private val gWx = new Array[Float](wx.data.length)
  private val gWh = new Array[Float](wh.data.length)
  private val gB = new Array[Float](b.length)
  private val adamWx = new Adam(wx.data.length)
  private val adamWh = new Adam(wh.data.length)
  private val adamB = new Adam(b.length)

    @inline private def sigmoid(v: Float): Float = (1.0 / (1.0 + math.exp(-v.toDouble))).toFloat

  /** h,c <- step(x, hPrev, cPrev); returns (h, c, cache). */
  def forwardStep(x: Array[Float], hPrev: Array[Float], cPrev: Array[Float]): StepCache = {
    val z = new Array[Float](4 * hidden)
    var j = 0
    while (j < 4 * hidden) { z(j) = b(j); j += 1 }
    var p = 0
    while (p < inDim) {
      val xv = x(p)
      if (xv != 0f) { val o = p * 4 * hidden; var k = 0; while (k < 4 * hidden) { z(k) += xv * wx.data(o + k); k += 1 } }
      p += 1
    }
    p = 0
    while (p < hidden) {
      val hv = hPrev(p)
      if (hv != 0f) { val o = p * 4 * hidden; var k = 0; while (k < 4 * hidden) { z(k) += hv * wh.data(o + k); k += 1 } }
      p += 1
    }
    val i = new Array[Float](hidden); val f = new Array[Float](hidden)
    val o = new Array[Float](hidden); val g = new Array[Float](hidden)
    val c = new Array[Float](hidden); val h = new Array[Float](hidden)
    var k = 0
    while (k < hidden) {
      i(k) = sigmoid(z(k))
      f(k) = sigmoid(z(hidden + k))
      o(k) = sigmoid(z(2 * hidden + k))
      g(k) = math.tanh(z(3 * hidden + k).toDouble).toFloat
      c(k) = f(k) * cPrev(k) + i(k) * g(k)
      h(k) = o(k) * math.tanh(c(k).toDouble).toFloat
      k += 1
    }
    StepCache(x.clone(), hPrev.clone(), cPrev.clone(), i, f, o, g, c, h)
  }

  /** Backprop one step given upstream (dh, dc); accumulates weight grads,
    * returns (dx, dhPrev, dcPrev). */
  def backwardStep(cache: StepCache, dh: Array[Float], dc: Array[Float]): (Array[Float], Array[Float], Array[Float]) = {
    import cache._
    val dz = new Array[Float](4 * hidden)
    val dcTotal = new Array[Float](hidden)
    var k = 0
    while (k < hidden) {
      val tanhC = math.tanh(c(k).toDouble).toFloat
      val dO = dh(k) * tanhC
      dcTotal(k) = dc(k) + dh(k) * o(k) * (1 - tanhC * tanhC)
      val dI = dcTotal(k) * g(k)
      val dF = dcTotal(k) * cPrev(k)
      val dG = dcTotal(k) * i(k)
      dz(k) = dI * i(k) * (1 - i(k))
      dz(hidden + k) = dF * f(k) * (1 - f(k))
      dz(2 * hidden + k) = dO * o(k) * (1 - o(k))
      dz(3 * hidden + k) = dG * (1 - g(k) * g(k))
      k += 1
    }
    val dx = new Array[Float](inDim)
    val dhPrev = new Array[Float](hidden)
    val dcPrev = new Array[Float](hidden)
    var p = 0
    while (p < inDim) {
      val o2 = p * 4 * hidden
      var s = 0f
      var j = 0
      while (j < 4 * hidden) { s += wx.data(o2 + j) * dz(j); gWx(o2 + j) += x(p) * dz(j); j += 1 }
      dx(p) = s
      p += 1
    }
    p = 0
    while (p < hidden) {
      val o2 = p * 4 * hidden
      var s = 0f
      var j = 0
      while (j < 4 * hidden) { s += wh.data(o2 + j) * dz(j); gWh(o2 + j) += hPrev(p) * dz(j); j += 1 }
      dhPrev(p) = s
      dcPrev(p) = dcTotal(p) * f(p)
      p += 1
    }
    var j = 0
    while (j < 4 * hidden) { gB(j) += dz(j); j += 1 }
    (dx, dhPrev, dcPrev)
  }

  /** Accumulated gradients — exposed for gradient-checking tests. */
  private[repro] def pendingGrads: (Array[Float], Array[Float], Array[Float]) = (gWx, gWh, gB)

  /** Adam step over accumulated gradients; zeroes the accumulators. */
  def step(lr: Float, t: Int): Unit = {
    adamWx.step(wx.data, gWx, lr, t)
    adamWh.step(wh.data, gWh, lr, t)
    adamB.step(b, gB, lr, t)
    java.util.Arrays.fill(gWx, 0f); java.util.Arrays.fill(gWh, 0f); java.util.Arrays.fill(gB, 0f)
  }
}
