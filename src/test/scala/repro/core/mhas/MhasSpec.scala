package repro.core.mhas

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{ColumnDict, ValueDicts}
import repro.nn.NetArch
import repro.store.KvData

/** MHAS: search space decoding, controller sampling/learning, Alg. 2. */
class MhasSpec extends AnyFunSuite {

  private val space = SearchSpace(
    taskNames = Seq("a", "b"), taskCardinalities = Seq(3, 5),
    sizes = Seq(8, 16), maxShared = 2, maxPrivate = 2)

  test("slots cover shared + per-task decisions") {
    // 1 + 2 (shared) + per task: 1 + 2 => 3 + 2*3 = 9
    assert(space.slotCount == 9)
    assert(space.slots.head == ("nShared", 3))
  }

  test("decode produces an arch consistent with decisions") {
    val d = Array(2, 0, 1, /*task a*/ 1, 1, 0, /*task b*/ 0, 0, 0)
    val arch = space.decode(d)
    assert(arch.sharedSizes == Seq(8, 16))
    assert(arch.tasks(0).privateSizes == Seq(16))
    assert(arch.tasks(1).privateSizes == Seq())
    assert(arch.tasks(0).nClasses == 3 && arch.tasks(1).nClasses == 5)
  }

  test("decode with zero depth yields empty layer lists") {
    val arch = space.decode(Array(0, 1, 1, 0, 1, 1, 0, 1, 1))
    assert(arch.sharedSizes.isEmpty)
    assert(arch.tasks.forall(_.privateSizes.isEmpty))
  }

  test("decode rejects wrong-length decision vectors") {
    intercept[IllegalArgumentException](space.decode(Array(0, 1)))
  }

  test("sizeUpperBound is the product of slot cardinalities") {
    assert(space.sizeUpperBound == BigInt(3) * 2 * 2 * 3 * 2 * 2 * 3 * 2 * 2)
  }

  test("controller samples valid decisions, deterministically per rng") {
    val c = new Controller(space, seed = 3)
    val s1 = new Controller(space, seed = 3).sample(new java.util.Random(1))
    val s2 = new Controller(space, seed = 3).sample(new java.util.Random(1))
    assert(s1.decisions.sameElements(s2.decisions))
    val s = c.sample(new java.util.Random(2))
    s.decisions.zip(space.slots).foreach { case (d, (_, k)) => assert(d >= 0 && d < k) }
    assert(s.logProb <= 0.0)
  }

  test("greedy sampling picks argmax consistently") {
    val c = new Controller(space, seed = 4)
    val g1 = c.sample(new java.util.Random(1), greedy = true)
    val g2 = c.sample(new java.util.Random(99), greedy = true)
    assert(g1.decisions.sameElements(g2.decisions), "greedy must ignore the rng")
  }

  test("REINFORCE shifts probability toward rewarded decisions") {
    val c = new Controller(space, seed = 5)
    val rng = new java.util.Random(7)
    // Dense reward: fraction of zero decisions (with a moving baseline).
    var baseline = 0.0
    for (_ <- 1 to 600) {
      val s = c.sample(rng)
      val reward = s.decisions.count(_ == 0).toDouble / space.slotCount
      baseline = 0.9 * baseline + 0.1 * reward
      c.reinforce(s, reward - baseline, lr = 0.05f)
    }
    val g = c.sample(rng, greedy = true)
    assert(g.decisions.count(_ == 0) >= space.slotCount - 1,
      s"controller did not learn: ${g.decisions.mkString(",")}")
  }

  private def periodicData(n: Int): (KvData, ValueDicts) = {
    val keys = Array.tabulate(n)(i => i.toLong + 1)
    val c1 = keys.map(k => ((k - 1) % 3).toInt)
    val c2 = keys.map(k => (((k - 1) / 3) % 5).toInt)
    val dicts = ValueDicts(Array(
      ColumnDict("a", Array("x", "y", "z")),
      ColumnDict("b", Array("p", "q", "r", "s", "t"))))
    (KvData(keys, Array(c1, c2)), dicts)
  }

  test("Alg.2 search returns a valid architecture with a sane ratio") {
    val (data, dicts) = periodicData(2000)
    val res = Mhas.search(data, dicts, Mhas.Config(space = space, iterations = 30,
      trainBatchesPerIter = 4, controllerEvery = 3, batchSize = 512, evalRows = 1024, seed = 1))
    assert(res.arch.tasks.length == 2)
    assert(res.bestRatio > 0 && res.bestRatio < 10)
    assert(res.ratioHistory.nonEmpty)
  }

  test("search history tends to improve (Fig. 9 property)") {
    // Narrow space so the shared-weight bank actually converges within a
    // short search (the paper runs 2000 iterations; we run 60).
    val narrow = SearchSpace(Seq("a", "b"), Seq(3, 5), sizes = Seq(16), maxShared = 1, maxPrivate = 1)
    val (data, dicts) = periodicData(3000)
    val res = Mhas.search(data, dicts, Mhas.Config(space = narrow, iterations = 60,
      trainBatchesPerIter = 8, controllerEvery = 3, batchSize = 512, evalRows = 1024, seed = 2))
    assert(res.historyImproved,
      s"ratios did not improve: ${res.ratioHistory.map(r => f"$r%.3f").mkString(",")}")
    assert(res.bestRatio <= res.ratioHistory.head + 1e-9)
  }

  test("searched architecture trains to a working DeepMapping") {
    val (data, dicts) = periodicData(1500)
    val res = Mhas.search(data, dicts, Mhas.Config(space = space, iterations = 20,
      trainBatchesPerIter = 4, controllerEvery = 4, batchSize = 512, evalRows = 512, seed = 3))
    val dm = repro.core.DeepMapping.build(data, dicts,
      repro.core.DmConfig(arch = Some(res.arch),
        train = repro.nn.Trainer.Config(epochs = 6, batchSize = 512)))
    try {
      val out = dm.lookup(data.keys)
      data.keys.indices.foreach { i =>
        assert(out(i) != null)
        assert(out(i)(0) == data.cols(0)(i) && out(i)(1) == data.cols(1)(i))
      }
    } finally dm.close()
  }

  test("Eq. 1 estimate is within 25 % of the ratio of the structure build makes with the same net") {
    // 20K rows x 4 columns: random values, values periodic along the key, and both mixed.
    val n = 20000
    val rng = new java.util.Random(17)
    val keys = Array.tabulate(n)(i => i.toLong + 1)
    val cards = Array(2, 5, 7, 20)
    val periods = Array(1, 2, 10, 70)
    def periodic(c: Int): Array[Int] = keys.map(k => (((k - 1) / periods(c)) % cards(c)).toInt)
    def random(c: Int): Array[Int] = Array.fill(n)(rng.nextInt(cards(c)))
    val dicts = ValueDicts(cards.zipWithIndex.map { case (k, c) => ColumnDict(s"v$c", Array.tabulate(k)(_.toString)) })
    Seq("random" -> Array.tabulate(4)(random), "periodic" -> Array.tabulate(4)(periodic),
        "mixed" -> Array(periodic(0), periodic(1), random(2), random(3))).foreach { case (kind, cols) =>
      val data = KvData(keys, cols)
      val dm = repro.core.DeepMapping.build(data, dicts, repro.core.DmConfig())
      try {
        val built = dm.storage.total.toDouble / data.rawBytes
        val est = Mhas.ratioEstimate(dm.model, data, dm.enc, dicts,
          Mhas.evalSample(data, 4096, new java.util.Random(1)), dm.exist.byteSize)
        assert(math.abs(est - built) <= 0.25 * built, f"$kind: estimate $est%.3f vs built $built%.3f")
      } finally dm.close()
    }
  }

  test("weight sharing: repeated search iterations reuse bank layers") {
    // Two searches with the same seed produce identical best archs —
    // evidence the bank + controller are deterministic.
    val (data, dicts) = periodicData(800)
    def run(): NetArch = Mhas.search(data, dicts, Mhas.Config(space = space, iterations = 10,
      trainBatchesPerIter = 2, controllerEvery = 2, batchSize = 256, evalRows = 256, seed = 9)).arch
    assert(run().describe == run().describe)
  }
}
