package repro.bench

import repro.SparkSpec
import repro.data.SynthCorr

/** The Table I/II driver end to end on a tiny dataset: every method is
  * measured under every condition, and resizing reaches DS's pool. */
class TableDriverSpec extends SparkSpec {

  private lazy val result = TableHarness.runWorkload(
    TableHarness.Dataset("smoke", SynthCorr.multiLow(spark, 3000), "k", Seq("v1", "v2", "v3", "v4")),
    Seq(TableHarness.Condition("tight", 1L, 500), TableHarness.Condition("unbounded", Long.MaxValue, 500)),
    seed = 5)

  test("every method has one cell per condition, in the paper's column order") {
    assert(result.methods.map(_.method) ==
      Seq("AB", "HB", "ABC-D", "ABC-G", "ABC-Z", "ABC-L", "HBC-Z", "HBC-L", "DS", "DM-Z", "DM-L"))
    result.methods.foreach(m => assert(m.latencyMs.keySet == Set("tight", "unbounded"), m.method))
    result.methods.filter(_.method != "DS").foreach { m =>
      assert(m.latencyMs.values.forall(_.toDouble >= 0), m.method)
    }
  }

  test("DS fails under a 1-byte budget and answers once the pool is unbounded") {
    val ds = result.methods.find(_.method == "DS").get
    assert(ds.latencyMs("tight") == "failed")
    assert(ds.latencyMs("unbounded").toDouble >= 0)
    assert(result.dsErrorRate >= 0 && result.dsErrorRate <= 1)
  }

  test("render prints one latency row per condition and the DM/DS notes") {
    val s = TableHarness.render("## Table X", Seq(result), Seq(("Latency-tight (ms)", "tight")))
    assert(s.contains("| Latency-tight (ms) | "))
    assert(s.contains("Model memorised") && s.contains("DS (lossy)"))
  }
}
