package repro.nn

import java.util.stream.IntStream

/** Dense float32 matrix, row-major.
  *
  * This is the reproduction's substitute for NumPy/ONNX (see DESIGN.md §2):
  * just enough BLAS-1/2/3 for multi-layer perceptron training and batched
  * inference. Matmuls use the cache-friendly i-k-j loop order and fan out
  * across cores with `IntStream.parallel` once the row count is large
  * enough to amortise the fork-join overhead.
  */
final class Mat(val rows: Int, val cols: Int, val data: Array[Float]) extends Serializable {
  require(data.length == rows * cols, s"shape ($rows x $cols) != data ${data.length}")

  @inline def apply(r: Int, c: Int): Float = data(r * cols + c)
  @inline def update(r: Int, c: Int, v: Float): Unit = data(r * cols + c) = v

  def copy(): Mat = new Mat(rows, cols, data.clone())

  /** Row `r` as a fresh array (used by per-row decision heads). */
  def row(r: Int): Array[Float] = java.util.Arrays.copyOfRange(data, r * cols, (r + 1) * cols)

  override def toString: String = s"Mat($rows x $cols)"
}

object Mat {
  /** Rows above this threshold are processed in parallel. */
  private val ParThreshold = 64

  def zeros(rows: Int, cols: Int): Mat = new Mat(rows, cols, new Array[Float](rows * cols))

  /** He-style init: N(0, sqrt(2/fanIn)) — suits the ReLU stacks we train. */
  def randn(rows: Int, cols: Int, seed: Long, scale: Double = -1.0): Mat = {
    val rng = new java.util.Random(seed)
    val s = if (scale > 0) scale else math.sqrt(2.0 / rows)
    val d = new Array[Float](rows * cols)
    var i = 0
    while (i < d.length) { d(i) = (rng.nextGaussian() * s).toFloat; i += 1 }
    new Mat(rows, cols, d)
  }

  private def parRows(rows: Int)(body: Int => Unit): Unit =
    if (rows >= ParThreshold) IntStream.range(0, rows).parallel().forEach(r => body(r))
    else { var r = 0; while (r < rows) { body(r); r += 1 } }

  /** C = A(m x k) * B(k x n). */
  def mul(a: Mat, b: Mat): Mat = {
    require(a.cols == b.rows, s"mul shape: $a * $b")
    val out = zeros(a.rows, b.cols)
    val (ad, bd, od) = (a.data, b.data, out.data)
    val (k, n) = (a.cols, b.cols)
    parRows(a.rows) { i =>
      val ai = i * k; val oi = i * n
      var p = 0
      while (p < k) {
        val av = ad(ai + p)
        if (av != 0f) {
          val bp = p * n
          var j = 0
          while (j < n) { od(oi + j) += av * bd(bp + j); j += 1 }
        }
        p += 1
      }
    }
    out
  }

  /** C = A(m x k) * B(n x k)^T — used for dX = dY * W^T. */
  def mulTransB(a: Mat, b: Mat): Mat = {
    require(a.cols == b.cols, s"mulTransB shape: $a * ${b}^T")
    val out = zeros(a.rows, b.rows)
    val (ad, bd, od) = (a.data, b.data, out.data)
    val (k, n) = (a.cols, b.rows)
    parRows(a.rows) { i =>
      val ai = i * k; val oi = i * n
      var j = 0
      while (j < n) {
        val bj = j * k
        var s = 0f
        var p = 0
        while (p < k) { s += ad(ai + p) * bd(bj + p); p += 1 }
        od(oi + j) = s
        j += 1
      }
    }
    out
  }

  /** C = A(k x m)^T * B(k x n) — used for dW = X^T * dY. */
  def transAmul(a: Mat, b: Mat): Mat = {
    require(a.rows == b.rows, s"transAmul shape: ${a}^T * $b")
    val out = zeros(a.cols, b.cols)
    val (ad, bd, od) = (a.data, b.data, out.data)
    val (m, n) = (a.cols, b.cols)
    // Parallelise over output rows (columns of A) to stay race-free.
    parRows(m) { i =>
      val oi = i * n
      var r = 0
      while (r < a.rows) {
        val av = ad(r * m + i)
        if (av != 0f) {
          val br = r * n
          var j = 0
          while (j < n) { od(oi + j) += av * bd(br + j); j += 1 }
        }
        r += 1
      }
    }
    out
  }

  /** In place: every row of `m` += `bias`. */
  def addRowInPlace(m: Mat, bias: Array[Float]): Mat = {
    require(m.cols == bias.length)
    parRows(m.rows) { r =>
      val o = r * m.cols
      var j = 0
      while (j < m.cols) { m.data(o + j) += bias(j); j += 1 }
    }
    m
  }

  /** In place: `y(off + i) += a * x(i)` for every `i` of `x`. */
  def axpyInPlace(y: Array[Float], off: Int, a: Float, x: Array[Float]): Unit = {
    var i = 0
    while (i < x.length) { y(off + i) += a * x(i); i += 1 }
  }

  /** In place ReLU; returns the same matrix. */
  def reluInPlace(m: Mat): Mat = {
    val d = m.data
    var i = 0
    while (i < d.length) { if (d(i) < 0f) d(i) = 0f; i += 1 }
    m
  }

  /** In place: zero `grad` entries where the forward activation was <= 0. */
  def reluBackwardInPlace(grad: Mat, activated: Mat): Mat = {
    require(grad.rows == activated.rows && grad.cols == activated.cols)
    val (g, a) = (grad.data, activated.data)
    var i = 0
    while (i < g.length) { if (a(i) <= 0f) g(i) = 0f; i += 1 }
    grad
  }

  /** Column-sum of `m` (bias gradient). */
  def colSum(m: Mat): Array[Float] = {
    val out = new Array[Float](m.cols)
    var r = 0
    while (r < m.rows) {
      val o = r * m.cols
      var j = 0
      while (j < m.cols) { out(j) += m.data(o + j); j += 1 }
      r += 1
    }
    out
  }

  /** Row-wise softmax, numerically stabilised; returns a new matrix. */
  def softmaxRows(m: Mat): Mat = {
    val out = zeros(m.rows, m.cols)
    parRows(m.rows) { r =>
      val o = r * m.cols
      var mx = Float.NegativeInfinity
      var j = 0
      while (j < m.cols) { if (m.data(o + j) > mx) mx = m.data(o + j); j += 1 }
      var s = 0.0
      j = 0
      while (j < m.cols) { val e = math.exp((m.data(o + j) - mx).toDouble); out.data(o + j) = e.toFloat; s += e; j += 1 }
      val inv = (1.0 / s).toFloat
      j = 0
      while (j < m.cols) { out.data(o + j) *= inv; j += 1 }
    }
    out
  }

  /** Row-wise argmax. */
  def argmaxRows(m: Mat): Array[Int] = {
    val out = new Array[Int](m.rows)
    parRows(m.rows) { r =>
      val o = r * m.cols
      var best = 0; var bv = m.data(o)
      var j = 1
      while (j < m.cols) { if (m.data(o + j) > bv) { bv = m.data(o + j); best = j }; j += 1 }
      out(r) = best
    }
    out
  }
}
