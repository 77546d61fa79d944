package repro.nn

import org.scalatest.funsuite.AnyFunSuite

/** Dense layer: analytic gradients vs central finite differences, and
  * optimizer behaviour. */
class DenseSpec extends AnyFunSuite {

  private def lossOf(layer: Dense, x: Mat, c: Mat): Double = {
    val y = layer.forward(x)
    var s = 0.0
    y.data.indices.foreach(i => s += y.data(i).toDouble * c.data(i))
    s
  }

  private def gradCheck(relu: Boolean): Unit = {
    val layer = new Dense(4, 3, relu, seed = 5)
    val x = Mat.randn(6, 4, seed = 6)
    val c = Mat.randn(6, 3, seed = 7) // L = sum(c * y)
    val y = layer.forward(x)
    val dy = c.copy()
    val dx = layer.backward(x, y, dy.copy())
    val gW = layer.pendingGradW

    val eps = 1e-3f
    // Weight gradients.
    for (i <- 0 until 4; j <- 0 until 3) {
      val orig = layer.w(i, j)
      layer.w(i, j) = orig + eps
      val lp = lossOf(layer, x, c)
      layer.w(i, j) = orig - eps
      val lm = lossOf(layer, x, c)
      layer.w(i, j) = orig
      val num = (lp - lm) / (2 * eps)
      assert(math.abs(num - gW(i, j)) < 2e-2, s"dW($i,$j): analytic=${gW(i, j)} numeric=$num")
    }
    // Input gradients.
    for (r <- 0 until 6; i <- 0 until 4) {
      val orig = x(r, i)
      x(r, i) = orig + eps
      val lp = lossOf(layer, x, c)
      x(r, i) = orig - eps
      val lm = lossOf(layer, x, c)
      x(r, i) = orig
      val num = (lp - lm) / (2 * eps)
      assert(math.abs(num - dx(r, i)) < 2e-2, s"dX($r,$i): analytic=${dx(r, i)} numeric=$num")
    }
  }

  test("linear layer gradients match finite differences") { gradCheck(relu = false) }

  test("relu layer gradients match finite differences") { gradCheck(relu = true) }

  test("bias gradient is column sum of upstream gradient (linear)") {
    val layer = new Dense(3, 2, relu = false, seed = 1)
    val x = Mat.randn(5, 3, seed = 2)
    val y = layer.forward(x)
    val dy = Mat.randn(5, 2, seed = 3)
    layer.backward(x, y, dy.copy())
    val gB = layer.pendingGradB
    val expect = Mat.colSum(dy)
    (0 until 2).foreach(j => assert(math.abs(gB(j) - expect(j)) < 1e-4))
  }

  test("adam step reduces a simple quadratic objective") {
    // Minimise ||W x - t||^2 for fixed x, t via repeated backward/step.
    val layer = new Dense(2, 2, relu = false, seed = 4)
    val x = new Mat(1, 2, Array(1f, -1f))
    val t = Array(0.5f, -0.25f)
    def loss(): Double = {
      val y = layer.forward(x)
      (0 until 2).map(j => math.pow(y(0, j) - t(j), 2)).sum
    }
    val before = loss()
    for (it <- 1 to 200) {
      val y = layer.forward(x)
      val dy = Mat.zeros(1, 2)
      (0 until 2).foreach(j => dy(0, j) = 2 * (y(0, j) - t(j)))
      layer.backward(x, y, dy)
      layer.step(0.05f, it)
    }
    assert(loss() < before * 0.01, s"loss ${loss()} vs initial $before")
  }

  test("backward sums pending gradients until step clears them") {
    val layer = new Dense(3, 2, relu = true, seed = 10)
    val (x1, x2) = (Mat.randn(4, 3, seed = 11), Mat.randn(5, 3, seed = 12))
    val (dy1, dy2) = (Mat.randn(4, 2, seed = 13), Mat.randn(5, 2, seed = 14))
    def alone(x: Mat, dy: Mat): (Array[Float], Array[Float]) = {
      val fresh = new Dense(3, 2, relu = true, seed = 10)
      fresh.backward(x, fresh.forward(x), dy.copy())
      (fresh.pendingGradW.data, fresh.pendingGradB)
    }
    val ((w1, b1), (w2, b2)) = (alone(x1, dy1), alone(x2, dy2))
    layer.backward(x1, layer.forward(x1), dy1.copy())
    layer.backward(x2, layer.forward(x2), dy2.copy())
    assert(layer.pendingGradW.data.sameElements(w1.indices.map(i => w1(i) + w2(i))))
    assert(layer.pendingGradB.sameElements(b1.indices.map(j => b1(j) + b2(j))))
    layer.step(0.01f, 1)
    assert(layer.pendingGradW == null && layer.pendingGradB == null)
  }

  test("step without backward is a no-op") {
    val layer = new Dense(2, 2, relu = false, seed = 8)
    val snapshot = layer.w.data.clone()
    layer.step(0.1f, 1)
    assert(layer.w.data.sameElements(snapshot))
  }

  test("paramCount and byteSize") {
    val layer = new Dense(10, 7, relu = true, seed = 9)
    assert(layer.paramCount == 10 * 7 + 7)
    assert(layer.byteSize == (10 * 7 + 7) * 4L)
  }
}
