package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.compress.BlockCodec
import repro.core.{ColumnDict, DeepMapping, DmConfig, ValueDicts}
import repro.nn.Trainer
import repro.store.KvData

/** Benchmark harness helpers: data merging, key sampling, rendering. */
class HarnessSpec extends AnyFunSuite {

  private def kv(keys: Long*): KvData =
    KvData(keys.toArray, Array(keys.map(k => (k % 5).toInt).toArray))

  /** Two columns over keys `from until until`: one periodic, one a hash. */
  private val dicts = ValueDicts(Array(ColumnDict("p", Array.tabulate(7)(_.toString)),
    ColumnDict("h", Array.tabulate(11)(_.toString))))
  private def rows(from: Long, until: Long): KvData = {
    val keys = Array.range(from.toInt, until.toInt).map(_.toLong)
    KvData(keys, Array(keys.map(k => (k % 7).toInt), keys.map(k => ((k * 2654435761L >>> 7) % 11).toInt)))
  }

  test("TableMod.concat merges keys and columns") {
    val c = TableMod.concat(kv(1, 2), kv(10, 11, 12))
    assert(c.rows == 5)
    assert(c.keys.toSeq == Seq(1L, 2L, 10L, 11L, 12L))
    assert(c.cols(0).toSeq == Seq(1, 2, 0, 1, 2))
  }

  test("TableMod.remove drops exactly the requested keys") {
    val r = TableMod.remove(kv(1, 2, 3, 4), Set(2L, 4L))
    assert(r.keys.toSeq == Seq(1L, 3L))
    assert(r.cols(0).toSeq == Seq(1, 3))
  }

  test("TableMod.remove with empty set is identity") {
    val d = kv(5, 6)
    val r = TableMod.remove(d, Set.empty[Long])
    assert(r.keys.sameElements(d.keys))
  }

  test("randomKeys samples only existing keys, deterministically") {
    val existing = Array(10L, 20L, 30L)
    val a = TableHarness.randomKeys(existing, 100, seed = 5)
    val b = TableHarness.randomKeys(existing, 100, seed = 5)
    assert(a.sameElements(b))
    assert(a.forall(existing.contains))
    assert(a.length == 100)
  }

  test("fmt formats by magnitude") {
    assert(TableHarness.fmt(123.456) == "123")
    assert(TableHarness.fmt(12.34) == "12.3")
    assert(TableHarness.fmt(1.234) == "1.23")
  }

  test("mb converts bytes") {
    assert(TableHarness.mb(2_000_000L) == 2.0)
  }

  test("renderTable emits a markdown table with all cells") {
    val s = TableHarness.renderTable("T", Seq("A", "B"),
      Seq(("m1", Seq("1", "2")), ("m2", Seq("3", "4"))))
    assert(s.contains("### T"))
    assert(s.contains("| Metric | A | B |"))
    assert(s.contains("| m1 | 1 | 2 |"))
    assert(s.contains("| m2 | 3 | 4 |"))
  }

  test("timeMs measures and returns the value") {
    val (v, ms) = TableHarness.timeMs { Thread.sleep(10); 42 }
    assert(v == 42)
    assert(ms >= 9)
  }

  test("dmTrain scales epochs down as rows grow") {
    assert(TableHarness.dmTrain(10_000).epochs > TableHarness.dmTrain(1_000_000).epochs)
  }

  test("lookupLatencyMs averages over reps and actually runs lookups") {
    var calls = 0
    val store = new repro.store.KeyValueStore {
      val name = "stub"
      val storageBytes = 0L
      val pool = new repro.store.BufferPool(0)
      def lookup(keys: Array[Long]): Array[Array[Int]] = { calls += 1; keys.map(_ => Array(0)) }
    }
    val ms = TableHarness.lookupLatencyMs(store, Array(1L, 2L), b = 5, seed = 1)
    assert(calls == TableHarness.Reps)
    assert(ms >= 0)
  }

  test("deriveDm owns its V_exist: a key deleted from the source still answers in the derived DM") {
    val data = rows(0, 500)
    val dm = DeepMapping.build(data, dicts, DmConfig(partitionBytes = 1024, poolBudget = 1 << 20,
      train = Trainer.Config(epochs = 2, batchSize = 256)))
    val derived = TableHarness.deriveDm(dm, BlockCodec.Lzma(6), 2048, 1 << 20)
    dm.delete(Array(42L))
    assert(dm.lookup(Array(42L))(0) == null)
    val got = derived.lookup(Array(42L))(0)
    assert(got != null && got.toSeq == data.row(42).toSeq, "the derived DM lost key 42")
    dm.close(); derived.close()
  }

  test("TableMod.runWorkload runs every insert step, and DM-Z1 has cells from 20 % on") {
    val chunks = (0 until TableMod.StepCount).map(i => rows(2001 + i * 200, 2201 + i * 200))
    val r = TableMod.runWorkload("insert", rows(1, 2001), dicts, chunks, Nil, seed = 3)
    assert(r.steps.map(_.pct) == (0 to 60 by 10))
    r.steps.foreach { s =>
      assert(s.cells.keySet == Set("DM-Z", "DM-Z1", "AB", "ABC-Z", "HB", "HBC-Z"), s"step ${s.pct}")
      assert(s.cells("DM-Z1").isDefined == (s.pct >= 20), s"step ${s.pct}")
    }
    assert(r.steps.forall(_.cells("DM-Z").isDefined))
    // Storage does not depend on the pool budget, so these cells are fixed
    // by the data, the seeds and the builders alone.
    val storage = Map(
      "DM-Z" -> Seq(0.043178, 0.044143, 0.045061, 0.046088, 0.046933, 0.047941, 0.048771),
      "DM-Z1" -> Seq(0.044783, 0.045918, 0.046918, 0.047727, 0.048785), // from 20 %
      "AB" -> Seq(0.032024, 0.035224, 0.038424, 0.041624, 0.044824, 0.048024, 0.051224),
      "ABC-Z" -> Seq(0.004068, 0.004491, 0.004927, 0.005371, 0.005798, 0.006264, 0.006678),
      "HB" -> Seq(0.064167, 0.070567, 0.076967, 0.083367, 0.089767, 0.096167, 0.102567),
      "HBC-Z" -> Seq(0.004132, 0.004529, 0.004924, 0.0053, 0.005649, 0.006042, 0.006438))
    storage.foreach { case (m, want) =>
      assert(r.steps.flatMap(_.cells(m)).map(_.storageMB) == want, m)
    }
  }

  test("Table I and Tables III–V pools are smaller than their data at BENCH_SCALE=0.25") {
    // Table I's single-column (62,500 × 1) and lineitem (75,000 × 4)
    // shapes, and the 30,000 × 4 base of Tables III–V.
    Seq((62_500, 1), (75_000, 4), (30_000, 4)).foreach { case (n, m) =>
      val d = KvData(Array.tabulate(n)(_.toLong), Array.fill(m)(new Array[Int](n)))
      TableI.conditions(d).foreach(c => assert(c.budget < d.rawBytes, s"Table I, $n × $m"))
      assert(TableMod.budget(d) < d.rawBytes, s"Tables III–V, $n × $m")
    }
  }
}
