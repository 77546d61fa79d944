package repro.nn

import org.scalatest.funsuite.AnyFunSuite

/** Multi-task network: shapes, memorisation, loss behaviour. */
class MultiTaskNetSpec extends AnyFunSuite {

  private val arch = NetArch(Seq(32), Seq(
    TaskSpec("mod3", 3, Seq(16)),
    TaskSpec("mod2", 2, Seq()),
  ))

  /** keys 0..n-1 one-hot over 10 features via digit trick. */
  private def encode(n: Int): Mat = {
    val x = Mat.zeros(n, 20)
    for (r <- 0 until n) { x(r, r % 10) = 1f; x(r, 10 + (r / 10) % 10) = 1f }
    x
  }

  test("forwardLogits shapes per task") {
    val net = MultiTaskNet(20, arch, seed = 1)
    val x = encode(5)
    val logits = net.forwardLogits(x)
    assert(logits.length == 2)
    assert(logits(0).rows == 5 && logits(0).cols == 3)
    assert(logits(1).rows == 5 && logits(1).cols == 2)
  }

  test("predict returns class ids within range") {
    val net = MultiTaskNet(20, arch, seed = 2)
    val preds = net.predict(encode(30))
    assert(preds(0).forall(p => p >= 0 && p < 3))
    assert(preds(1).forall(p => p >= 0 && p < 2))
  }

  test("training memorises a deterministic periodic mapping") {
    val n = 100
    val net = MultiTaskNet(20, arch, seed = 3)
    val x = encode(n)
    val labels = Array(Array.tabulate(n)(_ % 3), Array.tabulate(n)(_ % 2))
    var t = 0
    var lastLoss = Double.MaxValue
    for (_ <- 1 to 300) { t += 1; lastLoss = net.trainBatch(x, labels, 0.01f, t) }
    assert(lastLoss < 0.1, s"loss did not converge: $lastLoss")
    val preds = net.predict(x)
    assert((0 until n).count(r => preds(0)(r) == labels(0)(r) && preds(1)(r) == labels(1)(r)) > 0.95 * n)
  }

  test("trainBatch loss decreases over iterations") {
    val n = 60
    val net = MultiTaskNet(20, arch, seed = 4)
    val x = encode(n)
    val labels = Array(Array.tabulate(n)(_ % 3), Array.tabulate(n)(_ % 2))
    val first = net.trainBatch(x, labels, 0.01f, 1)
    var t = 1
    var last = first
    for (_ <- 1 to 100) { t += 1; last = net.trainBatch(x, labels, 0.01f, t) }
    assert(last < first)
  }

  test("byteSize counts all layer parameters") {
    val net = MultiTaskNet(20, arch, seed = 6)
    val expected = net.shared.map(_.byteSize).sum + net.priv.flatten.map(_.byteSize).sum + 64
    assert(net.byteSize == expected)
    assert(net.byteSize > 0)
  }

  test("net with empty shared trunk still works") {
    val a = NetArch(Seq(), Seq(TaskSpec("t", 4, Seq(8))))
    val net = MultiTaskNet(20, a, seed = 8)
    val preds = net.predict(encode(5))
    assert(preds(0).length == 5)
  }

  test("net with no private hidden layers still works") {
    val a = NetArch(Seq(16), Seq(TaskSpec("t", 4, Seq())))
    val net = MultiTaskNet(20, a, seed = 9)
    assert(net.predict(encode(5))(0).forall(p => p >= 0 && p < 4))
  }

  test("NetArch.describe mentions all tasks") {
    val d = arch.describe
    assert(d.contains("mod3") && d.contains("mod2"))
  }
}
