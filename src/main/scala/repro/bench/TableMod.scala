package repro.bench

import org.apache.spark.sql.SparkSession

import repro.compress.BlockCodec
import repro.core.{Encoding, ValueDicts}
import repro.data.SynthCorr
import repro.store.{KeyValueStore, KvData}

/** Papers Tables III/IV (insertions following / not following the data
  * distribution) and Table V (deletions) — compressed storage size and
  * query latency after modifying 10 %..60 % of a multi-column synthetic
  * dataset, on the memory-constrained machine of Table I.
  *
  * DM-Z materialises modifications in T_aux without retraining (§IV-D);
  * DM-Z1 additionally retrains once when 20 % of the data has been
  * modified (the paper's 200 MB-of-1 GB trigger, scaled). Baselines are
  * rebuilt from the current logical content at every step, matching the
  * paper's measurement of their storage/query at each insertion size.
  */
object TableMod {

  val StepCount = 6
  val B = 20000
  val BaselineMethods: Seq[String] = Seq("AB", "ABC-Z", "HB", "HBC-Z")
  val Methods: Seq[String] = Seq("DM-Z", "DM-Z1") ++ BaselineMethods

  final case class Cell(storageMB: Double, queryMs: Double)
  final case class Step(pct: Int, cells: Map[String, Option[Cell]])
  final case class Result(workload: String, steps: Seq[Step]) {
    def cell(method: String, pct: Int): Cell = steps.find(_.pct == pct).get.cells(method).get
  }

  /** Concatenate two encoded datasets (keys assumed disjoint). */
  def concat(a: KvData, b: KvData): KvData =
    KvData(a.keys ++ b.keys, Array.tabulate(a.nCols)(c => a.cols(c) ++ b.cols(c)))

  /** Remove the given keys. */
  def remove(a: KvData, drop: scala.collection.Set[Long]): KvData = {
    val keep = a.keys.indices.filter(i => !drop.contains(a.keys(i))).toArray
    KvData(keep.map(a.keys), Array.tabulate(a.nCols)(c => keep.map(a.cols(c))))
  }

  /** Pool budget of the memory-constrained machine, for base data `base`. */
  def budget(base: KvData): Long = TableHarness.poolBudget(base, TableHarness.ConstrainedShare)

  /** One modification experiment over one workload.
    * `chunks(i)` is the i-th 10 % modification batch (insert data or
    * delete keys). */
  def runWorkload(workload: String, base: KvData, dicts: ValueDicts,
                  insertChunks: Seq[KvData], deleteChunks: Seq[Array[Long]],
                  seed: Long): Result = {
    import TableHarness._
    require(insertChunks.isEmpty != deleteChunks.isEmpty, "exactly one modification kind")
    val pool = budget(base)
    val dmZ = buildDmZ(base, dicts, pool)
    val dmZ1 = deriveDm(dmZ, BlockCodec.Zstd(3), 512 * 1024, pool)

    var current = base
    val steps = (0 to StepCount).map { i =>
      if (i > 0) {
        if (insertChunks.nonEmpty) {
          val chunk = insertChunks(i - 1)
          dmZ.insert(chunk); dmZ1.insert(chunk)
          current = concat(current, chunk)
        } else {
          val chunk = deleteChunks(i - 1)
          dmZ.delete(chunk); dmZ1.delete(chunk)
          current = remove(current, chunk.toSet)
        }
        dmZ.repack(); dmZ1.repack()
        if (i == 2) dmZ1.retrain(current) // scaled 200MB-of-1GB trigger
      }
      def cell(s: KeyValueStore): Cell = Cell(mb(s.storageBytes), lookupLatencyMs(s, current.keys, B, seed + i))
      val baselines = Baselines.lossless(s"${workload.replaceAll("\\W", "")}$i", current, pool, BaselineMethods)
      val cells = Map("DM-Z" -> Some(cell(dmZ)), "DM-Z1" -> Option.when(i >= 2)(cell(dmZ1))) ++
        baselines.map(s => s.name -> Some(cell(s)))
      baselines.foreach(_.close())
      Step(i * 10, cells)
    }
    dmZ.close(); dmZ1.close()
    Result(workload, steps)
  }

  /** Tables III / IV: insertions, in- or cross-distribution. */
  def runInsert(spark: SparkSession, crossDist: Boolean, scale: Double = 1.0, seed: Long = 99): Seq[Result] =
    run(spark, Some(crossDist), scale, seed)

  /** Table V: deletions of 10 %..60 % of the base data. */
  def runDelete(spark: SparkSession, scale: Double = 1.0, seed: Long = 111): Seq[Result] =
    run(spark, None, scale, seed)

  /** The low- and high-correlation workloads: 10 % insert chunks, drawn
    * from the other generator when `crossDist` is Some(true), or disjoint
    * random 10 % delete chunks when it is None. */
  private def run(spark: SparkSession, crossDist: Option[Boolean], scale: Double, seed: Long): Seq[Result] = {
    val rows = (120_000 * scale).toLong
    val chunk = rows / 10
    Seq(("Multi-column Low Correlation", true), ("Multi-column High Correlation", false)).map {
      case (name, baseIsLow) =>
        val baseDf = if (baseIsLow) SynthCorr.multiLow(spark, rows) else SynthCorr.multiHigh(spark, rows)
        val insDfs = for (cross <- crossDist.toSeq; i <- 0 until StepCount) yield {
          val gen = if (cross != baseIsLow) SynthCorr.multiLow _ else SynthCorr.multiHigh _
          gen(spark, chunk, rows + 1 + i * chunk, 131 + i)
        }
        // One dictionary across base + all inserts (shared value domains).
        val valueCols = baseDf.columns.filter(_ != "k").toSeq
        val dicts = Encoding.buildDicts(insDfs.foldLeft(baseDf)(_ union _), valueCols)
        val base = Encoding.toKvData(baseDf, "k", valueCols, dicts)
        val ins = insDfs.map(df => Encoding.toKvData(df, "k", valueCols, dicts))
        val dels = if (crossDist.isDefined) Nil else {
          val keys = java.util.Arrays.asList(base.keys.map(Long.box): _*)
          java.util.Collections.shuffle(keys, new java.util.Random(seed))
          keys.toArray(Array.empty[java.lang.Long]).map(_.longValue).grouped(base.rows / 10).take(StepCount).toSeq
        }
        runWorkload(name, base, dicts, ins, dels, seed)
    }
  }

  def render(title: String, results: Seq[Result]): String =
    results.map { r =>
      TableHarness.renderTable(s"${r.workload} (modification size as % of base)", r.steps.map(s => s"${s.pct}%"),
        Methods.flatMap { m =>
          def row(f: Cell => Double) = r.steps.map(_.cells(m).map(c => TableHarness.fmt(f(c))).getOrElse("-"))
          Seq((s"$m-Storage (MB)", row(_.storageMB)), (s"$m-Query (ms)", row(_.queryMs)))
        })
    }.mkString(s"\n## $title\n", "", "")
}
