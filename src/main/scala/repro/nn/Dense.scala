package repro.nn

/** Fully connected layer with optional ReLU and per-layer Adam state.
  *
  * Weight layout is (in x out) so the forward pass is a single
  * `X(batch x in) * W(in x out)` matmul. The layer owns its optimizer
  * moments — MHAS's weight-sharing bank hands the *same* `Dense` instance
  * to every sampled child model that uses the slot, which is exactly how
  * ENAS shares parameters across architectures.
  */
final class Dense(val in: Int, val out: Int, val relu: Boolean, seed: Long) extends Serializable {
  val w: Mat = Mat.randn(in, out, seed)
  val b: Array[Float] = new Array[Float](out)

  // Adam moments, made on the first step.
  @transient private var adamW: Adam = _
  @transient private var adamB: Adam = _

  // Pending gradients, summed over every backward() since the last step().
  @transient private var gW: Mat = _
  @transient private var gB: Array[Float] = _

  def paramCount: Long = in.toLong * out + out

  def forward(x: Mat): Mat = {
    val y = Mat.addRowInPlace(Mat.mul(x, w), b)
    if (relu) Mat.reluInPlace(y) else y
  }

  /** Backward for a forward on (x, y=forward(x)). Adds dW/db to the
    * pending gradients (so BPTT can call it once per step before one
    * step()); returns dX. */
  def backward(x: Mat, y: Mat, dy: Mat): Mat = {
    val g = if (relu) Mat.reluBackwardInPlace(dy, y) else dy
    val (dW, dB) = (Mat.transAmul(x, g), Mat.colSum(g))
    if (gW == null) { gW = dW; gB = dB }
    else { Mat.axpyInPlace(gW.data, 0, 1f, dW.data); Mat.axpyInPlace(gB, 0, 1f, dB) }
    Mat.mulTransB(g, w)
  }

  /** Pending gradients — exposed for gradient-checking tests. */
  private[repro] def pendingGradW: Mat = gW
  private[repro] def pendingGradB: Array[Float] = gB

  /** Adam update with the pending gradients; clears them. */
  def step(lr: Float, t: Int): Unit = {
    if (gW == null) return
    if (adamW == null) { adamW = new Adam(w.data.length); adamB = new Adam(b.length) }
    adamW.step(w.data, gW.data, lr, t)
    adamB.step(b, gB, lr, t)
    gW = null; gB = null
  }

  /** Serialized float32 size in bytes — what "size(M)" charges per Eq. 1. */
  def byteSize: Long = paramCount * 4L
}

object Dense {
  /** Runs `x` through `layers` in order; returns every activation, `x` first. */
  def forwardAll(layers: Array[Dense], x: Mat): Array[Mat] = {
    val acts = new Array[Mat](layers.length + 1)
    acts(0) = x
    var i = 0
    while (i < layers.length) { acts(i + 1) = layers(i).forward(acts(i)); i += 1 }
    acts
  }

  /** Backward through `layers` from the output gradient `dy`, where
    * `acts = forwardAll(layers, x)`; leaves each layer's gradients pending
    * and returns dX. */
  def backwardAll(layers: Array[Dense], acts: Array[Mat], dy: Mat): Mat = {
    var grad = dy
    var i = layers.length - 1
    while (i >= 0) { grad = layers(i).backward(acts(i), acts(i + 1), grad); i -= 1 }
    grad
  }
}

/** Adam moments for one parameter array, and the update that uses them
  * (Kingma & Ba, β1 = 0.9, β2 = 0.999, ε = 1e-8). */
private[nn] final class Adam(n: Int) extends Serializable {
  private val m = new Array[Float](n)
  private val v = new Array[Float](n)

  /** `w -= lr * m̂ / (sqrt(v̂) + ε)` for gradient `g` at timestep `t` (from 1). */
  def step(w: Array[Float], g: Array[Float], lr: Float, t: Int): Unit = {
    val beta1 = 0.9f; val beta2 = 0.999f; val eps = 1e-8f
    val bc1 = (1.0 - math.pow(beta1, t)).toFloat
    val bc2 = (1.0 - math.pow(beta2, t)).toFloat
    var i = 0
    while (i < w.length) {
      val gi = g(i)
      m(i) = beta1 * m(i) + (1 - beta1) * gi
      v(i) = beta2 * v(i) + (1 - beta2) * gi * gi
      w(i) -= lr * (m(i) / bc1) / (math.sqrt((v(i) / bc2).toDouble).toFloat + eps)
      i += 1
    }
  }
}
