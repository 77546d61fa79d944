package repro.nn

import org.scalatest.funsuite.AnyFunSuite

import repro.baseline.DeepSqueezeLite
import repro.core.KeyEncoder
import repro.store.KvData

/** Trainer: convergence, determinism, early stopping, batch prediction,
  * the misclassification sweep, and pinned fixed-seed numerics. */
class TrainerSpec extends AnyFunSuite {

  private val enc = KeyEncoder(999)
  // Task a: period 3 (mod-3 residue feature). Task b: period 15 — needs
  // the net to conjoin the mod-3 and mod-5 one-hots (CRT).
  private def labelsFor(keys: Array[Long]): Array[Array[Int]] =
    Array(keys.map(k => (k % 3).toInt), keys.map(k => ((k / 3) % 5).toInt))

  private val arch = NetArch(Seq(48), Seq(TaskSpec("a", 3, Seq(16)), TaskSpec("b", 5, Seq(16))))

  test("fit memorises periodic labels over a key range") {
    val keys = Array.tabulate(600)(i => i.toLong)
    val labels = labelsFor(keys)
    val net = MultiTaskNet(enc.featDim, arch, seed = 1)
    val losses = Trainer.fit(net, keys, labels, enc.encode,
      Trainer.Config(epochs = 30, batchSize = 128, lr = 3e-3f, seed = 5))
    assert(losses.nonEmpty)
    assert(losses.last < losses.head, s"loss went up: $losses")
    val preds = Trainer.predictAll(net, keys, enc.encode)
    val acc = keys.indices.count(i => preds(0)(i) == labels(0)(i) && preds(1)(i) == labels(1)(i)).toDouble / keys.length
    assert(acc > 0.9, s"accuracy only $acc")
  }

  test("fit is deterministic in seed") {
    val keys = Array.tabulate(200)(i => i.toLong)
    val labels = labelsFor(keys)
    def run(): Seq[Double] = {
      val net = MultiTaskNet(enc.featDim, arch, seed = 2)
      Trainer.fit(net, keys, labels, enc.encode, Trainer.Config(epochs = 3, batchSize = 64, seed = 9))
    }
    assert(run() == run())
  }

  test("fit stops early when loss change is below tolerance") {
    val keys = Array.tabulate(100)(i => i.toLong)
    // Constant labels: loss hits ~0 almost immediately.
    val labels = Array(Array.fill(100)(0), Array.fill(100)(1))
    val net = MultiTaskNet(enc.featDim, arch, seed = 3)
    val losses = Trainer.fit(net, keys, labels, enc.encode,
      Trainer.Config(epochs = 100, batchSize = 50, lossTol = 1e-3))
    assert(losses.length < 100, s"did not stop early: ${losses.length} epochs")
  }

  test("fit rejects mismatched label lengths") {
    val net = MultiTaskNet(enc.featDim, arch, seed = 4)
    intercept[IllegalArgumentException] {
      Trainer.fit(net, Array(1L, 2L), Array(Array(0), Array(0, 1)), enc.encode)
    }
  }

  test("predictAll covers every row across batch boundaries") {
    val keys = Array.tabulate(333)(i => i.toLong)
    val net = MultiTaskNet(enc.featDim, arch, seed = 5)
    val all = Trainer.predictAll(net, keys, enc.encode, batchSize = 100)
    assert(all.length == 2)
    assert(all.forall(_.length == 333))
    // Batched == unbatched.
    val one = Trainer.predictAll(net, keys, enc.encode, batchSize = 1000)
    assert(all(0).sameElements(one(0)) && all(1).sameElements(one(1)))
  }

  test("mispredicted requires all tasks correct") {
    val keys = Array.tabulate(10)(i => i.toLong)
    val net = MultiTaskNet(enc.featDim, arch, seed = 6)
    val preds = Trainer.predictAll(net, keys, enc.encode)
    // Labels equal to predictions on task a, never on task b -> every row.
    val flipped = preds(1).map(p => (p + 1) % 5)
    assert(Trainer.mispredicted(net, keys, Array(preds(0), flipped), enc.encode).toSeq == keys.indices)
    // One task wrong on one row -> that row only.
    val oneWrong = preds(1).clone()
    oneWrong(3) = (oneWrong(3) + 1) % 5
    assert(Trainer.mispredicted(net, keys, Array(preds(0), oneWrong), enc.encode).toSeq == Seq(3))
    // Labels equal to predictions on both tasks -> no row.
    assert(Trainer.mispredicted(net, keys, preds, enc.encode).isEmpty)
  }

  test("encodeBatch writes features at the right offsets") {
    val keys = Array(5L, 17L)
    val idx = Array(0, 1)
    val x = Trainer.encodeBatch(keys, idx, 0, 2, enc.featDim, enc.encode)
    assert(x.rows == 2 && x.cols == enc.featDim)
    // key 5: last digit one-hot position 5 set.
    assert(x(0, 5) == 1f)
    // key 17: last digit 7.
    assert(x(1, 7) == 1f)
  }

  // Fixed-seed checksums of trained weights and reconstructions. Any change
  // to the float arithmetic of the forward pass, backward pass or Adam
  // (operation order included) moves them.

  test("fit's trained weights and mispredicted count are bit-for-bit pinned") {
    val keys = Array.tabulate(600)(i => i.toLong)
    val labels = labelsFor(keys)
    val net = MultiTaskNet(enc.featDim, arch, seed = 11)
    Trainer.fit(net, keys, labels, enc.encode, Trainer.Config(epochs = 6, batchSize = 128, lr = 3e-3f, seed = 13))
    var sum = 17L
    (net.shared ++ net.priv.flatten).foreach { l =>
      (l.w.data ++ l.b).foreach(v => sum = sum * 1000003L + java.lang.Float.floatToRawIntBits(v))
    }
    assert(sum == -9149608545997991524L)
    assert(Trainer.mispredicted(net, keys, labels, enc.encode).length == 323)
  }

  test("DeepSqueezeLite's reconstruction is pinned") {
    val keys = Array.tabulate(2000)(i => i.toLong + 1)
    val cols = Array(keys.map(k => ((k - 1) % 3).toInt), keys.map(k => (((k - 1) / 3) % 4).toInt))
    val ds = DeepSqueezeLite.build(KvData(keys, cols), Array(3, 4), poolBudget = 1 << 26)
    var sum = 17L
    ds.lookup(keys).foreach(_.foreach(v => sum = sum * 31 + v))
    assert(sum == 1731877639052037137L)
    assert(ds.storageBytes == 4335)
  }
}
