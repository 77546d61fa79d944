package repro.nn

import org.scalatest.funsuite.AnyFunSuite

/** LSTM cell: forward sanity and full BPTT gradient check over a
  * two-step sequence against central finite differences. */
class LstmCellSpec extends AnyFunSuite {

  private val inDim = 3
  private val hidden = 4

  /** Scalar loss: dot(c1 · h1) + dot(c2 · h2) over a 2-step rollout. */
  private def rollLoss(cell: LstmCell, x1: Array[Float], x2: Array[Float],
                       c1: Array[Float], c2: Array[Float]): Double = {
    val s1 = cell.forwardStep(x1, new Array[Float](hidden), new Array[Float](hidden))
    val s2 = cell.forwardStep(x2, s1.h, s1.c)
    var l = 0.0
    (0 until hidden).foreach { k => l += c1(k).toDouble * s1.h(k) + c2(k).toDouble * s2.h(k) }
    l
  }

  test("forwardStep produces bounded activations") {
    val cell = new LstmCell(inDim, hidden, seed = 1)
    val s = cell.forwardStep(Array(1f, -1f, 0.5f), new Array[Float](hidden), new Array[Float](hidden))
    assert(s.h.forall(v => v >= -1f && v <= 1f)) // |h| <= |tanh| bound
    assert(s.i.forall(v => v > 0f && v < 1f))
    assert(s.f.forall(v => v > 0f && v < 1f))
    assert(s.o.forall(v => v > 0f && v < 1f))
  }

  test("forwardStep is deterministic") {
    val cell = new LstmCell(inDim, hidden, seed = 2)
    val x = Array(0.3f, -0.7f, 0.1f)
    val a = cell.forwardStep(x, new Array[Float](hidden), new Array[Float](hidden))
    val b = cell.forwardStep(x, new Array[Float](hidden), new Array[Float](hidden))
    assert(a.h.sameElements(b.h) && a.c.sameElements(b.c))
  }

  test("state propagates: second step depends on first") {
    val cell = new LstmCell(inDim, hidden, seed = 3)
    val x = Array(0.5f, 0.5f, 0.5f)
    val zero = new Array[Float](hidden)
    val fromZero = cell.forwardStep(x, zero, zero)
    val s1 = cell.forwardStep(Array(1f, -1f, 1f), zero, zero)
    val fromState = cell.forwardStep(x, s1.h, s1.c)
    assert(!fromZero.h.sameElements(fromState.h))
  }

  test("BPTT gradients match finite differences over 2 steps") {
    val cell = new LstmCell(inDim, hidden, seed = 4)
    val rng = new java.util.Random(5)
    def vec(n: Int): Array[Float] = Array.fill(n)((rng.nextGaussian() * 0.5).toFloat)
    val (x1, x2) = (vec(inDim), vec(inDim))
    val (c1, c2) = (vec(hidden), vec(hidden))

    // Analytic: forward 2 steps, backward 2 steps.
    val zero = new Array[Float](hidden)
    val s1 = cell.forwardStep(x1, zero, zero)
    val s2 = cell.forwardStep(x2, s1.h, s1.c)
    val (dx2, dh1, dc1) = cell.backwardStep(s2, c2.clone(), new Array[Float](hidden))
    val dh1Total = (0 until hidden).map(k => dh1(k) + c1(k)).toArray
    val (dx1, _, _) = cell.backwardStep(s1, dh1Total, dc1)
    val gWSnap = cell.gates.pendingGradW.data.clone(); val gBSnap = cell.gates.pendingGradB.clone()

    val eps = 1e-3f
    def check(param: Array[Float], grad: Array[Float], name: String, sampleEvery: Int): Unit = {
      var i = 0
      while (i < param.length) {
        val orig = param(i)
        param(i) = orig + eps
        val lp = rollLoss(cell, x1, x2, c1, c2)
        param(i) = orig - eps
        val lm = rollLoss(cell, x1, x2, c1, c2)
        param(i) = orig
        val num = (lp - lm) / (2 * eps)
        assert(math.abs(num - grad(i)) < 3e-2, s"$name[$i]: analytic=${grad(i)} numeric=$num")
        i += sampleEvery
      }
    }
    check(cell.gates.w.data, gWSnap, "w", 3)
    check(cell.gates.b, gBSnap, "b", 1)

    // Input gradient check for x1 (flows through both steps).
    (0 until inDim).foreach { i =>
      val orig = x1(i)
      x1(i) = orig + eps
      val lp = rollLoss(cell, x1, x2, c1, c2)
      x1(i) = orig - eps
      val lm = rollLoss(cell, x1, x2, c1, c2)
      x1(i) = orig
      val num = (lp - lm) / (2 * eps)
      assert(math.abs(num - dx1(i)) < 3e-2, s"dx1[$i]: analytic=${dx1(i)} numeric=$num")
    }
    assert(dx2.length == inDim)
  }

  test("step applies and clears accumulated gradients") {
    val cell = new LstmCell(inDim, hidden, seed = 6)
    val zero = new Array[Float](hidden)
    val s = cell.forwardStep(Array(1f, 1f, 1f), zero, zero)
    cell.backwardStep(s, Array.fill(hidden)(1f), new Array[Float](hidden))
    val before = cell.gates.w.data.clone()
    cell.step(0.01f, 1)
    assert(!cell.gates.w.data.sameElements(before))
    assert(cell.gates.pendingGradW == null && cell.gates.pendingGradB == null)
  }
}
