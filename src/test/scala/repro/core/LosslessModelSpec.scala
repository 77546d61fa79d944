package repro.core

import scala.collection.mutable

import org.scalatest.funsuite.AnyFunSuite

import repro.compress.BlockCodec
import repro.nn.Trainer
import repro.store.KvData

/** Model-based check of the lossless guarantee (paper §IV): seeded random
  * interleavings of insert, delete, update, T_aux repack, retrain, rejected
  * inputs and lookup run against a reference `Map[Long, Array[Int]]`. After
  * every step one lookup over every live key, every deleted key, keys that
  * were never inserted (neighbours, 32-bit aliases, negatives) must equal
  * the map, NULL for each absent key. Data are tiny and training is one
  * epoch, so T_aux answers much of the table and the model the rest. */
class LosslessModelSpec extends AnyFunSuite {

  private val dicts = ValueDicts(Array(ColumnDict("a", Array("x", "y")), ColumnDict("b", Array("p", "q", "r"))))
  private val sizes = dicts.cols.map(_.size)

  private def cfg(poolBudget: Long): DmConfig =
    DmConfig(codec = BlockCodec.Zstd(1), partitionBytes = 256, poolBudget = poolBudget,
      train = Trainer.Config(epochs = 1, batchSize = 64))

  /** A key layout: the first key of a sequence, then each fresh key from
    * the previous one. */
  private final class Layout(val name: String, val first: java.util.Random => Long, val next: (Long, java.util.Random) => Long)

  private val contiguous = new Layout("contiguous", _ => 0L, (k, _) => k + 1)
  private val gapped = new Layout("gapped", r => r.nextInt(100).toLong, (k, r) => k + 2 + r.nextInt(60))
  /** Keys anywhere below 2^40; every sequence starts with one key >= 2^38. */
  private val sparse = new Layout("sparse", r => (1L << 38) + r.nextInt(1000), (_, r) => r.nextLong() & ((1L << 40) - 1))

  /** Codes that column c = k mod (c + 2) predicts for most keys, random
    * codes for the rest, so both the model and T_aux answer some keys. */
  private def codes(k: Long, r: java.util.Random): Array[Int] =
    Array.tabulate(sizes.length)(c => if (r.nextInt(10) < 6) (k % sizes(c)).toInt else r.nextInt(sizes(c)))

  private def kv(keys: Seq[Long], rows: Seq[Array[Int]]): KvData =
    KvData(keys.toArray, Array.tabulate(sizes.length)(c => rows.map(_(c)).toArray))

  /** Runs one sequence; `tally` counts its steps and lookup answers by kind. */
  private def runSequence(layout: Layout, seed: Long, poolBudget: Long, tally: mutable.Map[String, Int]): Unit = {
    val r = new java.util.Random(seed)
    val ref = mutable.LinkedHashMap.empty[Long, Array[Int]]
    val everUsed = mutable.LinkedHashSet.empty[Long]
    var last = layout.first(r)
    def fresh(): Long = {
      while (ref.contains(last)) last = layout.next(last, r)
      val k = last
      last = layout.next(last, r)
      everUsed += k
      k
    }
    def live(n: Int): Seq[Long] = {
      val ks = ref.keys.toArray
      Seq.fill(math.min(n, ks.length))(ks(r.nextInt(ks.length))).distinct
    }
    def current: KvData = kv(ref.keys.toSeq, ref.values.toSeq)

    val baseKeys = Seq.fill(4 + r.nextInt(40))(fresh())
    val baseRows = baseKeys.map(codes(_, r))
    val dm = DeepMapping.build(kv(baseKeys, baseRows), dicts, cfg(poolBudget))
    baseKeys.zip(baseRows).foreach { case (k, v) => ref(k) = v }
    var step = "build"

    def check(): Unit = {
      val probes = (everUsed.toSeq ++ everUsed.toSeq.flatMap(k => Seq(k + 1, k - 1, k & 0xFFFFFFFFL)) ++
        Seq(-1L, Long.MinValue, last, 1L << 38, (1L << 40) + 1)).distinct.toArray
      val got = dm.lookup(probes)
      val liveKeys = ref.keys.toArray
      val fromAux = dm.aux.get(liveKeys).count(_ != null)
      tally("t_aux answers") += fromAux
      tally("model answers") += liveKeys.length - fromAux
      tally("null answers") += probes.length - liveKeys.length
      probes.indices.foreach { i =>
        val want = ref.get(probes(i))
        assert(Option(got(i)).map(_.toSeq) == want.map(_.toSeq),
          s"${layout.name} seed $seed after $step: key ${probes(i)}")
      }
    }

    try {
      check()
      (0 until 6 + r.nextInt(10)).foreach { _ =>
        r.nextInt(100) match {
          case p if p < 25 =>
            val absent = everUsed.filterNot(ref.contains).toArray // deleted, or rejected before
            val again = if (absent.nonEmpty && r.nextInt(3) == 0) Seq(absent(r.nextInt(absent.length))) else Nil
            val ks = (Seq.fill(1 + r.nextInt(8))(fresh()) ++ again).distinct
            val rows = ks.map(codes(_, r))
            dm.insert(kv(ks, rows))
            ks.zip(rows).foreach { case (k, v) => ref(k) = v }
            step = s"insert of ${ks.length}"
          case p if p < 40 =>
            val ks = live(1 + r.nextInt(8)) ++ Seq.fill(r.nextInt(2))(fresh())
            dm.delete(r.nextInt(2) match { case 0 => ks.toArray case _ => ks.reverse.toArray })
            ref --= ks
            step = s"delete of ${ks.length}"
          case p if p < 60 =>
            val ks = live(1 + r.nextInt(8))
            val rows = ks.map(codes(_, r))
            dm.update(kv(ks, rows))
            ks.zip(rows).foreach { case (k, v) => ref(k) = v }
            step = s"update of ${ks.length}"
          case p if p < 70 =>
            dm.repack()
            step = "repack"
          case p if p < 78 =>
            dm.retrain(current)
            step = "retrain"
          case p if p < 92 =>
            val kinds = if (ref.isEmpty) Seq(0, 2, 4, 5) else 0 to 5
            val kind = kinds(r.nextInt(kinds.length))
            lazy val k = live(1).head
            intercept[IllegalArgumentException] {
              kind match {
                case 0 => dm.insert(kv(Seq(fresh()), Seq(Array(sizes(0), 0))))          // code past the dictionary
                case 1 => dm.update(kv(Seq(k), Seq(Array(0, -1))))                      // negative code
                case 2 => dm.insert(kv(Seq(-1L - r.nextInt(1000)), Seq(Array(0, 0))))   // negative key
                case 3 => dm.insert(kv(Seq(k), Seq(codes(k, r))))                       // existing key
                case 4 => dm.update(kv(Seq(fresh()), Seq(Array(0, 0))))                 // absent key
                case _ => dm.insert(KvData(Array(fresh()), Array(Array(0))))            // missing column
              }
            }
            step = s"rejected input $kind"
          case _ =>
            step = "lookup"
        }
        tally(step.takeWhile(_ != ' ')) += 1
        check()
      }
    } finally dm.close()
  }

  /** Runs one sequence per seed, then checks that every kind of step ran
    * and that T_aux, the model and V_exist each answered lookups. */
  private def runAll(layouts: Seq[Layout], seeds: Range, poolBudget: Long = 1L << 20): Unit = {
    val tally = mutable.Map.empty[String, Int].withDefaultValue(0)
    seeds.foreach(s => runSequence(layouts(s % layouts.length), s.toLong, poolBudget, tally))
    Seq("insert", "delete", "update", "repack", "retrain", "rejected", "lookup",
      "t_aux answers", "model answers", "null answers").foreach(k => assert(tally(k) > 0, s"no $k in $tally"))
  }

  test("random modification sequences stay lossless on contiguous keys") {
    runAll(Seq(contiguous), 0 until 160)
  }

  test("random modification sequences stay lossless on gapped keys") {
    runAll(Seq(gapped), 1000 until 1160)
  }

  test("random modification sequences stay lossless on sparse keys up to 2^40") {
    runAll(Seq(sparse), 2000 until 2160)
  }

  test("random modification sequences stay lossless under a zero-budget pool") {
    runAll(Seq(contiguous, gapped, sparse), 3000 until 3060, poolBudget = 0)
  }
}
