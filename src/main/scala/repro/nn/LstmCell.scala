package repro.nn

/** Per-step activations cached for backprop-through-time: the gate layer's
  * input `xh = [x; hPrev]` and output `z`, the cell state before the step,
  * the gates and the new state. */
final case class StepCache(xh: Mat, z: Mat, cPrev: Array[Float],
                           i: Array[Float], f: Array[Float], o: Array[Float], g: Array[Float],
                           c: Array[Float], h: Array[Float])

/** Single LSTM cell (batch size 1) with backprop-through-time.
  *
  * This powers the MHAS controller (paper §IV-C.2 / ENAS): the controller
  * samples architecture decisions autoregressively; REINFORCE needs
  * d(-logP)/dθ through the recurrent steps, which [[backwardStep]]
  * provides. The four gate pre-activations are one linear [[Dense]] over
  * `[x; hPrev]`, laid out [i, f, o, g]; its pending gradients sum over the
  * steps until [[step]].
  */
final class LstmCell(val inDim: Int, val hidden: Int, seed: Long) extends Serializable {
  val gates = new Dense(inDim + hidden, 4 * hidden, relu = false, seed)

  @inline private def sigmoid(v: Float): Float = (1.0 / (1.0 + math.exp(-v.toDouble))).toFloat
  @inline private def tanh(v: Float): Float = math.tanh(v.toDouble).toFloat

  /** One step from (x, hPrev, cPrev); the cache holds the new h and c. */
  def forwardStep(x: Array[Float], hPrev: Array[Float], cPrev: Array[Float]): StepCache = {
    val xh = new Mat(1, inDim + hidden, x ++ hPrev)
    val z = gates.forward(xh)
    val i = Array.tabulate(hidden)(k => sigmoid(z.data(k)))
    val f = Array.tabulate(hidden)(k => sigmoid(z.data(hidden + k)))
    val o = Array.tabulate(hidden)(k => sigmoid(z.data(2 * hidden + k)))
    val g = Array.tabulate(hidden)(k => tanh(z.data(3 * hidden + k)))
    val c = Array.tabulate(hidden)(k => f(k) * cPrev(k) + i(k) * g(k))
    val h = Array.tabulate(hidden)(k => o(k) * tanh(c(k)))
    StepCache(xh, z, cPrev.clone(), i, f, o, g, c, h)
  }

  /** Backprop one step given upstream (dh, dc); adds the gate layer's
    * gradients, returns (dx, dhPrev, dcPrev). */
  def backwardStep(cache: StepCache, dh: Array[Float], dc: Array[Float]): (Array[Float], Array[Float], Array[Float]) = {
    import cache._
    val dz = new Array[Float](4 * hidden)
    val dcPrev = new Array[Float](hidden)
    var k = 0
    while (k < hidden) {
      val tanhC = tanh(c(k))
      val dcTotal = dc(k) + dh(k) * o(k) * (1 - tanhC * tanhC)
      dz(k) = dcTotal * g(k) * i(k) * (1 - i(k))
      dz(hidden + k) = dcTotal * cPrev(k) * f(k) * (1 - f(k))
      dz(2 * hidden + k) = dh(k) * tanhC * o(k) * (1 - o(k))
      dz(3 * hidden + k) = dcTotal * i(k) * (1 - g(k) * g(k))
      dcPrev(k) = dcTotal * f(k)
      k += 1
    }
    val dxh = gates.backward(xh, z, new Mat(1, 4 * hidden, dz)).data
    (dxh.take(inDim), dxh.drop(inDim), dcPrev)
  }

  /** Adam step over the gradients summed since the last step; clears them. */
  def step(lr: Float, t: Int): Unit = gates.step(lr, t)
}
