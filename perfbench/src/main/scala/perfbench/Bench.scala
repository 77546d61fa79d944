package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.Path
import java.util.SplittableRandom

import scala.collection.mutable.{ArrayBuffer, LinkedHashMap}
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StructField, StructType}

import repro.compress.BlockCodec
import repro.core.{DeepMapping, DmConfig, Encoding, SparkLookup, ValueDicts}
import repro.data.SynthCorr
import repro.store.{ArrayStore, BufferPool, KvData}

final case class Options(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
                         stateDir: Path, injectFault: Boolean) {
  /** File name of this run's result, counts and trace. */
  def tag: String = s"${workload.name}-seed$seed-trace${if (trace) 1 else 0}"
}

/** One set-up: generated data and the structures built over it. */
final class Setup(val base: KvData, val inserts: Array[KvData], val dicts: ValueDicts,
                  val dm: DeepMapping, val abcz: ArrayStore, val buildSeconds: Double, val seconds: Double) {
  def maxKey: Long = base.keys.max

  /** Exact counts that must repeat for a fixed seed. */
  def counts: Seq[(String, String)] = {
    val st = dm.storage
    Seq("setup.aux_entries" -> dm.aux.entryCount.toString, "setup.model_bytes" -> st.modelBytes.toString,
      "setup.aux_bytes" -> st.auxBytes.toString, "setup.exist_bytes" -> st.existBytes.toString,
      "setup.decode_bytes" -> st.decodeBytes.toString, "setup.abcz_bytes" -> abcz.storageBytes.toString)
  }

  def close(): Unit = { dm.close(); abcz.close() }
}

/** One benchmark run: three set-ups, then either the timed lookup and
  * modification phases (end-to-end metrics) or the traced passes over
  * build, lookup, T_aux blocks, Spark and modification (per-layer metrics). */
final class Bench(o: Options, spark: SparkSession) {
  import Bench._
  private val w = o.workload
  private val SetupReps = 3
  private val WarmupBatches = 10
  private val WarmupRounds = 2
  private val TracedBatches = 40
  private val TracedSparkQueries = 8
  private val BlockPasses = 5
  private val SparkPartitions = 4
  private val ValueCols = Seq("v1", "v2", "v3", "v4")

  val endToEnd = LinkedHashMap.empty[String, (Double, String)]
  val perLayer = LinkedHashMap.empty[String, (Double, String)]
  /** Exact counts, compared across set-ups and across same-seed runs. */
  val counts = LinkedHashMap.empty[String, String]
  val problems = ArrayBuffer.empty[String]
  /** Human-readable summary lines, printed before the result. */
  val info = ArrayBuffer.empty[String]
  val tracers = LinkedHashMap.empty[String, Tracer]
  var attempted = 0L
  var failed = 0L
  private var firstOpNanos = 0L
  private var faultInjected = false

  /** One seeded RNG per phase, so no phase's draws depend on how many
    * batches an earlier, time-bounded phase ran. */
  private def rng(phase: Int): SplittableRandom = new SplittableRandom(o.seed * 1000003L + phase)

  private def timed[T](f: => T): (T, Long) = { val t0 = System.nanoTime(); val r = f; (r, System.nanoTime() - t0) }

  /** Runs one operation. An exception counts it as failed. */
  private def attempt[T](what: String)(f: => T): Option[(T, Long)] = {
    attempted += 1
    try Some(timed(f))
    catch { case e: Exception => failed += 1; problems += s"$what threw $e"; None }
  }

  private def judge(what: String, wrong: Int): Unit =
    if (wrong > 0) { failed += 1; if (problems.length < 50) problems += s"$what: $wrong wrong answers" }

  private def markFirstOp(): Unit = if (firstOpNanos == 0L) firstOpNanos = System.nanoTime()

  // ---- inputs -------------------------------------------------------------

  /** The base rows, then the insert chunks: in-distribution rows whose
    * keys continue the key range (paper Table III). The dictionaries cover
    * both, as Tables III-V build them. */
  private def generate(): (KvData, Array[KvData], ValueDicts) = {
    val gen = if (w.highCorr) SynthCorr.multiHigh _ else SynthCorr.multiLow _
    val df = gen(spark, w.rows.toLong + w.modChunk.toLong * w.modRounds, 1L, 31L + 16L * o.seed)
    val dicts = Encoding.buildDicts(df, ValueCols)
    val all = Encoding.toKvData(df, "k", ValueCols, dicts).sortedByKey
    def slice(from: Int, until: Int) = KvData(all.keys.slice(from, until), all.cols.map(_.slice(from, until)))
    val chunks = Array.tabulate(w.modRounds)(r => slice(w.rows + r * w.modChunk, w.rows + (r + 1) * w.modChunk))
    (slice(0, w.rows), chunks, dicts)
  }

  private def config(base: KvData): DmConfig =
    DmConfig(codec = BlockCodec.Zstd(3), partitionBytes = w.auxPartitionBytes,
      poolBudget = w.poolBytes(base.rawBytes), train = w.train, seed = 7L)

  private def setUp(): Setup = {
    val t0 = System.nanoTime()
    val (base, inserts, dicts) = generate()
    val cfg = config(base)
    val (dm, buildNs) = timed(DeepMapping.build(base, dicts, cfg))
    val abcz = ArrayStore.build("abcz", base, BlockCodec.Zstd(3), w.abczPartitionBytes, cfg.poolBudget)
    new Setup(base, inserts, dicts, dm, abcz, buildNs / 1e9, (System.nanoTime() - t0) / 1e9)
  }

  private def reference(data: KvData): java.util.HashMap[java.lang.Long, Array[Int]] = {
    val m = new java.util.HashMap[java.lang.Long, Array[Int]](data.rows * 2)
    var i = 0
    while (i < data.rows) { m.put(data.keys(i), Array.tabulate(data.nCols)(c => data.cols(c)(i))); i += 1 }
    m
  }

  /** Existing keys drawn uniformly from `live`; `absentShare` of them
    * replaced by keys in (maxKey, 2 maxKey], which never exist. */
  private def lookupKeys(r: SplittableRandom, n: Int, live: Array[Long], maxKey: Long): Array[Long] =
    Array.fill(n)(
      if (w.absentShare > 0 && r.nextDouble() < w.absentShare) maxKey + 1 + r.nextLong(maxKey)
      else live(r.nextInt(live.length)))

  // ---- correctness gate -----------------------------------------------------

  /** Number of answers that differ from the reference map (absent -> null). */
  private def wrong(keys: Array[Long], got: Array[Array[Int]], ref: java.util.Map[java.lang.Long, Array[Int]]): Int = {
    if (got == null || got.length != keys.length) return keys.length
    var bad = 0
    var i = 0
    while (i < keys.length) {
      val exp = ref.get(keys(i))
      val ok = if (exp == null) got(i) == null else got(i) != null && java.util.Arrays.equals(exp, got(i))
      if (!ok) bad += 1
      i += 1
    }
    bad
  }

  private def wrongRows(keys: Array[Long], rows: Array[Row], ref: java.util.Map[java.lang.Long, Array[Int]],
                        dicts: ValueDicts): Int = {
    if (rows.length != keys.length) return keys.length
    var bad = 0
    var i = 0
    while (i < keys.length) {
      val row = rows(i)
      val exp = ref.get(keys(i))
      val ok = row.getLong(0) == keys(i) && (0 until dicts.nCols).forall { c =>
        val v = if (row.isNullAt(c + 1)) null else row.getString(c + 1)
        if (exp == null) v == null else v == dicts.cols(c).decode(exp(c))
      }
      if (!ok) bad += 1
      i += 1
    }
    bad
  }

  private def wrongStrings(keys: Array[Long], got: Array[Array[String]],
                           ref: java.util.Map[java.lang.Long, Array[Int]], dicts: ValueDicts): Int =
    wrong(keys, got.map(r => if (r == null) null else Array.tabulate(r.length)(c => dicts.cols(c).code(r(c)))), ref)

  /** Self-test hook: corrupt one answer of the first timed DM batch. */
  private def maybeCorrupt(ans: Array[Array[Int]]): Unit =
    if (o.injectFault && !faultInjected) {
      val i = ans.indexWhere(_ != null)
      if (i >= 0) { ans(i) = ans(i).clone(); ans(i)(0) += 1; faultInjected = true }
    }

  // ---- phases ---------------------------------------------------------------

  private val retrainSeconds = ArrayBuffer.empty[Double]

  /** Collects garbage left by earlier phases, outside any timed region, so
    * a timed phase pays only for the garbage it makes itself. */
  private def collectGarbage(): Unit = System.gc()

  private def gcMillis: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  private def poolNow(p: BufferPool) =
    PoolDelta(p.stats.hits, p.stats.misses, p.stats.evictions, p.stats.loadNanos, p.stats.loadedBytes)
  private def poolDelta[T](p: BufferPool)(f: => T): (T, PoolDelta) = {
    val a = poolNow(p); val r = f; val b = poolNow(p)
    (r, PoolDelta(b.hits - a.hits, b.misses - a.misses, b.evictions - a.evictions, b.loadNs - a.loadNs,
      b.loadedBytes - a.loadedBytes))
  }

  /** Fixed warm-up batches through DM and ABC-Z; their pool misses are an
    * exact count. Returns the RNG the timed batches continue with. */
  private def warmUp(s: Setup, ref: java.util.Map[java.lang.Long, Array[Int]]): SplittableRandom = {
    val r = rng(1)
    val (_, d) = poolDelta(s.dm.pool) {
      (0 until WarmupBatches).foreach { _ =>
        val keys = lookupKeys(r, w.batch, s.base.keys, s.maxKey)
        attempt("dm.lookup")(s.dm.lookup(keys)).foreach { case (ans, _) => judge("dm.lookup", wrong(keys, ans, ref)) }
        attempt("abcz.lookup")(s.abcz.lookup(keys)).foreach { case (ans, _) => judge("abcz.lookup", wrong(keys, ans, ref)) }
      }
    }
    counts("warmup.dm_pool_misses") = d.misses.toString
    r
  }

  /** Closed loop of DM batches with an ABC-Z batch on the same keys after
    * each (order alternating), for --seconds. */
  private def lookupPhase(s: Setup, ref: java.util.Map[java.lang.Long, Array[Int]]): Unit = {
    val r = warmUp(s, ref)
    collectGarbage()
    val dmMs = ArrayBuffer.empty[Double]
    val abczMs = ArrayBuffer.empty[Double]
    val gc0 = gcMillis
    markFirstOp()
    val end = System.nanoTime() + (o.seconds * 1e9).toLong
    var i = 0
    while (System.nanoTime() < end) {
      val keys = lookupKeys(r, w.batch, s.base.keys, s.maxKey)
      def runDm(): Unit = attempt("dm.lookup")(s.dm.lookup(keys)).foreach { case (ans, ns) =>
        maybeCorrupt(ans)
        judge("dm.lookup", wrong(keys, ans, ref))
        dmMs += ns / 1e6
      }
      def runAbcz(): Unit = attempt("abcz.lookup")(s.abcz.lookup(keys)).foreach { case (ans, ns) =>
        judge("abcz.lookup", wrong(keys, ans, ref))
        abczMs += ns / 1e6
      }
      if (i % 2 == 0) { runDm(); runAbcz() } else { runAbcz(); runDm() }
      i += 1
    }
    require(dmMs.nonEmpty && abczMs.nonEmpty, "no lookup batch completed")
    endToEnd("lookup_p50_ms") = (Stats.median(dmMs.toSeq), "ms")
    // Keys answered per second of lookup time, at the median batch: the
    // mean would let a few stalled batches set it.
    endToEnd("lookup_keys_per_s") = (w.batch / (Stats.median(dmMs.toSeq) / 1e3), "1/s")
    endToEnd("abcz_lookup_p50_ms") = (Stats.median(abczMs.toSeq), "ms")
    info += s"lookup phase: ${dmMs.length} DM and ${abczMs.length} ABC-Z batches of ${w.batch} keys, " +
      f"DM p90 ${Stats.quantile(dmMs.toSeq, 0.90)}%.3f ms, p95 ${Stats.quantile(dmMs.toSeq, 0.95)}%.3f ms, " +
      f"p99 ${Stats.quantile(dmMs.toSeq, 0.99)}%.3f ms, " +
      s"gc ${gcMillis - gc0} ms"
  }

  private val keySchema = StructType(Seq(StructField("k", LongType, nullable = false)))

  private def keysDf(keys: Array[Long]) =
    spark.createDataFrame(spark.sparkContext.parallelize(keys.toSeq.map(Row(_)), SparkPartitions), keySchema)

  /** Fixed rounds of insert, update, delete, repack and a verified lookup;
    * one retrain after the last round's repack, so every round runs
    * against the model of the set-up. Traced runs make the same calls
    * through the replica. A warm-up pass first runs WarmupRounds rounds on
    * another structure, so the timed rounds do not run interpreted code.
    * Its chunks are not timed, but its retrain is: it is the second
    * sample of retrain_s. */
  private def modifyPhase(s: Setup, replica: Option[(Replica, Tracer)], warm: Boolean = false): Unit = {
    val r = rng(if (warm) 4 else 3)
    collectGarbage()
    val rounds = if (warm) WarmupRounds else w.modRounds
    val dm = s.dm
    val ref = reference(s.base)
    val live = ArrayBuffer.from(s.base.keys)
    val deleted = ArrayBuffer.empty[Long]
    val ms = Seq("insert", "update", "delete", "repack").map(_ -> ArrayBuffer.empty[Double]).toMap
    var overlay = 0L
    val deleteMisses = ArrayBuffer.empty[Long]

    def record(what: String)(f: => Unit): Unit = attempt(what)(f).foreach { case (_, ns) => ms(what) += ns / 1e6 }

    (0 until rounds).foreach { round =>
      val ins = s.inserts(round)
      record("insert")(replica.fold(dm.insert(ins))(_._1.insert(dm, ins)))
      ins.keys.indices.foreach { i => ref.put(ins.keys(i), Array.tabulate(ins.nCols)(c => ins.cols(c)(i))); live += ins.keys(i) }

      // Distinct live keys: a partial Fisher-Yates over `live`.
      var i = 0
      while (i < w.modChunk) { val j = i + r.nextInt(live.length - i); val t = live(i); live(i) = live(j); live(j) = t; i += 1 }
      val upKeys = live.take(w.modChunk).toArray
      val upCols = s.dicts.cols.map(d => Array.fill(upKeys.length)(r.nextInt(d.size)))
      val upd = KvData(upKeys, upCols)
      record("update")(replica.fold(dm.update(upd))(_._1.update(dm, upd)))
      upKeys.indices.foreach(i => ref.put(upKeys(i), Array.tabulate(upCols.length)(c => upCols(c)(i))))

      // Random live keys in shuffled order (Table V).
      i = 0
      while (i < w.modChunk) {
        val j = r.nextInt(live.length - i); val last = live.length - 1 - i
        val t = live(last); live(last) = live(j); live(j) = t; i += 1
      }
      val delKeys = live.takeRight(w.modChunk).toArray
      live.remove(live.length - w.modChunk, w.modChunk)
      val (_, d) = poolDelta(dm.pool)(record("delete")(replica.fold(dm.delete(delKeys))(_._1.delete(dm, delKeys))))
      deleteMisses += d.misses
      delKeys.foreach(k => ref.remove(k))
      deleted ++= delKeys

      replica.foreach { case (_, t) =>
        t.span("core.aux.byte_size")(dm.aux.byteSize)
        t.span("core.aux.entry_count")(dm.aux.entryCount)
        overlay += dm.aux.overlaySize
      }
      record("repack")(replica.fold(dm.aux.repack())(_._2.span("core.aux.repack")(dm.aux.repack())))

      if (round == rounds - 1) {
        val current = KvData(live.toArray, Array.tabulate(s.dicts.nCols)(c => live.toArray.map(k => ref.get(k)(c))))
        collectGarbage()
        attempt("retrain")(replica.fold(dm.retrain(current))(_._2.span("core.retrain")(dm.retrain(current))))
          .foreach { case (_, ns) => retrainSeconds += ns / 1e9 }
      }

      // One verified batch: live keys plus recently deleted (absent) ones.
      val liveArr = live.toArray
      val keys = Array.fill(w.batch)(
        if (deleted.nonEmpty && r.nextDouble() < 0.1) deleted(r.nextInt(deleted.length)) else liveArr(r.nextInt(liveArr.length)))
      attempt("dm.lookup")(dm.lookup(keys)).foreach { case (ans, _) => judge("modify dm.lookup", wrong(keys, ans, ref)) }
    }

    if (warm) return
    val st = dm.storage
    val raw = ref.size.toLong * s.base.rawRowBytes
    counts("modify.delete_pool_misses") = deleteMisses.mkString(",")
    counts("modify.aux_entries") = dm.aux.entryCount.toString
    counts("modify.storage_bytes") = Seq(st.modelBytes, st.auxBytes, st.existBytes, st.decodeBytes).mkString(",")
    counts("modify.live_rows") = ref.size.toString
    if (!o.trace) {
      Seq("insert", "update", "delete", "repack").foreach(k => endToEnd(s"${k}_p50_ms") = (Stats.median(ms(k).toSeq), "ms"))
    }
    perLayer("core.storage.final_ratio") = (st.total.toDouble / raw, "ratio")
    replica.foreach { case (rep, t) =>
      perLayer("core.aux.add.ns") = (t.totalByName("core.aux.add").toDouble / math.max(1, rep.auxAdds), "ns")
      perLayer("core.aux.remove.ns") = (t.totalByName("core.aux.remove").toDouble / math.max(1, rep.auxRemoves), "ns")
      perLayer("core.aux.byte_size.ms") = (t.totalByName("core.aux.byte_size") / 1e6 / w.modRounds, "ms")
      perLayer("core.aux.entry_count.ms") = (t.totalByName("core.aux.entry_count") / 1e6 / w.modRounds, "ms")
      perLayer("core.aux.overlay_entries") = (overlay.toDouble / w.modRounds, "count")
      perLayer("store.pool.delete_misses") = (rep.deleteMisses.toDouble / math.max(1, rep.deleteChunks), "count")
      perLayer("core.retrain.s") = (Stats.median(retrainSeconds.toSeq), "s")
    }
    info += s"modify phase: ${w.modRounds} rounds of ${w.modChunk}-key chunks, retrains " +
      s"(${retrainSeconds.map(x => f"$x%.3f").mkString(", ")} s); ms per chunk: " + ms.map { case (k, v) => v.map(x => f"$x%.2f").mkString(s"$k=", ",", "") }.mkString(" ")
  }

  // ---- traced passes ----------------------------------------------------------

  /** The traced build replica must produce the structure DeepMapping.build did. */
  private def tracedBuild(s: Setup): Unit = {
    val t = new Tracer; tracers("build") = t
    val rep = new Replica(t)
    val (dmR, epochs) = rep.build(s.base, s.dicts, s.dm.cfg)
    val (k1, c1) = s.dm.aux.entries()
    val (k2, c2) = dmR.aux.entries()
    attempted += 1
    if (dmR.storage != s.dm.storage || !java.util.Arrays.equals(k1, k2) || !c1.indices.forall(c => java.util.Arrays.equals(c1(c), c2(c)))) {
      failed += 1; problems += s"traced build differs from DeepMapping.build: ${dmR.storage} vs ${s.dm.storage}"
    }
    dmR.close()
    perLayer("nn.fit.s") = (t.totalByName("nn.fit") / 1e9, "s")
    perLayer("nn.fit.epochs") = (epochs.toDouble, "count")
    perLayer("core.sweep.s") = (t.totalByName("core.sweep") / 1e9, "s")
    perLayer("core.aux.pack.s") = (t.totalByName("core.aux.pack") / 1e9, "s")
    perLayer("core.exist.build.s") = (t.totalByName("core.exist.build") / 1e9, "s")
  }

  /** Fixed traced batches: DM via the replica and via dm.lookup on the same
    * keys (order alternating), then ABC-Z. */
  private def tracedLookups(s: Setup, ref: java.util.Map[java.lang.Long, Array[Int]]): Unit = {
    val r = warmUp(s, ref)
    val t = new Tracer; tracers("lookup") = t
    val rep = new Replica(t)
    var dmPool = NoDelta
    var abczPool = NoDelta
    val tracedMs = ArrayBuffer.empty[Double]
    val plainMs = ArrayBuffer.empty[Double]
    val gc0 = gcMillis
    markFirstOp()
    (0 until TracedBatches).foreach { i =>
      val keys = lookupKeys(r, w.batch, s.base.keys, s.maxKey)
      var traced: Array[Array[Int]] = null
      var plain: Array[Array[Int]] = null
      def runTraced(): Unit = attempt("traced lookup")(poolDelta(s.dm.pool)(rep.lookup(s.dm, keys))).foreach {
        case ((ans, d), ns) => traced = ans; dmPool += d; tracedMs += ns / 1e6
      }
      def runPlain(): Unit = attempt("dm.lookup")(s.dm.lookup(keys)).foreach { case (ans, ns) =>
        maybeCorrupt(ans); plain = ans; plainMs += ns / 1e6
        judge("dm.lookup", wrong(keys, ans, ref))
      }
      if (i % 2 == 0) { runTraced(); runPlain() } else { runPlain(); runTraced() }
      if (traced != null) judge("traced lookup", if (plain == null) wrong(keys, traced, ref)
        else keys.indices.count(j => !java.util.Arrays.equals(traced(j), plain(j))))
      attempt("abcz.lookup")(poolDelta(s.abcz.pool)(s.abcz.lookup(keys))).foreach { case ((ans, d), _) =>
        abczPool += d; judge("abcz.lookup", wrong(keys, ans, ref))
      }
    }
    val gcMs = gcMillis - gc0
    val n = math.max(1L, rep.keys).toDouble
    val self = t.selfByName
    def perKey(name: String): Double = self.getOrElse(name, 0L) / n
    val (sharedNames, headNames) = rep.layerNames(s.dm.model)
    perLayer("core.encode.ns_per_key") = (perKey("core.encode"), "ns")
    (sharedNames ++ headNames.flatten).foreach(nm => perLayer(s"$nm.ns_per_key") = (perKey(nm), "ns"))
    perLayer("nn.argmax.ns_per_key") = (perKey("nn.argmax"), "ns")
    val layers = s.dm.model.shared ++ s.dm.model.priv.flatten
    perLayer("nn.flops_per_key") = (layers.map(l => 2.0 * l.in * l.out).sum, "count")
    val accuracy = s.dm.modelAccuracy(s.base)
    perLayer("nn.model_accuracy") = (accuracy, "ratio")
    perLayer("core.exist.ns_per_key") = (perKey("core.exist"), "ns")
    perLayer("core.exist.rejected") = (rep.rejected.toDouble, "count")
    perLayer("core.aux.get.ns_per_key") = (perKey("core.aux.get"), "ns")
    perLayer("core.aux.overrides") = (rep.overrides.toDouble, "count")
    perLayer("core.aux.blocks") = (s.dm.aux.store.blockCount.toDouble, "count")
    perLayer("core.aux.packed_bytes") = (s.dm.aux.store.fileBytes.toDouble, "bytes")
    Seq("dm" -> dmPool, "abcz" -> abczPool).foreach { case (nm, d) =>
      perLayer(s"store.pool.$nm.hits") = (d.hits.toDouble, "count")
      perLayer(s"store.pool.$nm.misses") = (d.misses.toDouble, "count")
      perLayer(s"store.pool.$nm.evictions") = (d.evictions.toDouble, "count")
      perLayer(s"store.pool.$nm.load_ms") = (d.loadNs / 1e6, "ms")
      perLayer(s"store.pool.$nm.loaded_bytes") = (d.loadedBytes.toDouble, "bytes")
    }
    perLayer("core.lookup.self_ns_per_key") = (perKey("core.lookup"), "ns")
    val roots = t.all.filter(_.parent < 0)
    perLayer("trace.accounted_share") = (self.values.sum.toDouble / math.max(1L, roots.map(_.duration).sum), "ratio")
    perLayer("trace.lookup_p50_ms") = (Stats.median(tracedMs.toSeq), "ms")
    perLayer("trace.overhead_ms") = (Stats.median(tracedMs.toSeq) - Stats.median(plainMs.toSeq), "ms")
    perLayer("jvm.gc_ms") = (gcMs.toDouble, "ms")
    counts("trace.rejected") = rep.rejected.toString
    counts("trace.overrides") = rep.overrides.toString
    counts("trace.dm_pool_misses") = dmPool.misses.toString
    counts("trace.abcz_pool_misses") = abczPool.misses.toString
    counts("trace.model_accuracy") = accuracy.toString
  }

  /** Every T_aux block read from its BlockStore and decompressed directly. */
  private def tracedBlocks(s: Setup): Unit = {
    val t = new Tracer; tracers("blocks") = t
    val store = s.dm.aux.store
    val codec = s.dm.cfg.codec
    (0 until BlockPasses).foreach(_ => (0 until store.blockCount).foreach { id =>
      val bytes = t.span("store.block_read")(store.read(id))
      t.span("compress.decompress")(codec.decompress(bytes))
    })
    val blocks = math.max(1, t.countOf("store.block_read")).toDouble
    perLayer("store.block_read.ns_per_block") = (t.totalByName("store.block_read") / blocks, "ns")
    perLayer("compress.decompress.ns_per_block") = (t.totalByName("compress.decompress") / blocks, "ns")
  }

  /** Snapshot, per-query broadcast size, and lookupDf against the
    * driver-side DmSnapshot.lookupBatch on the same keys. */
  private def tracedSpark(s: Setup, ref: java.util.Map[java.lang.Long, Array[Int]]): Unit = {
    val t = new Tracer; tracers("spark") = t
    val r = rng(2)
    val snap = t.span("core.snapshot")(s.dm.snapshot())
    val bos = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bos)
    oos.writeObject(snap); oos.close()
    (0 until TracedSparkQueries).foreach { _ =>
      val keys = lookupKeys(r, w.batch, s.base.keys, s.maxKey)
      val df = keysDf(keys)
      attempt("spark.lookupDf")(t.span("spark.lookup_df")(SparkLookup.lookupDf(spark, snap, df, "k").collect()))
        .foreach { case (rows, _) => judge("spark.lookupDf", wrongRows(keys, rows, ref, s.dicts)) }
      attempt("DmSnapshot.lookupBatch")(t.span("core.lookup_batch")(snap.lookupBatch(keys)))
        .foreach { case (vals, _) => judge("DmSnapshot.lookupBatch", wrongStrings(keys, vals, ref, s.dicts)) }
    }
    perLayer("core.snapshot.ms") = (t.totalByName("core.snapshot") / 1e6, "ms")
    perLayer("spark.broadcast_bytes") = (bos.size.toDouble, "bytes")
    perLayer("spark.lookup_df.ms") = (t.totalByName("spark.lookup_df") / 1e6 / TracedSparkQueries, "ms")
    perLayer("core.lookup_batch.ms") = (t.totalByName("core.lookup_batch") / 1e6 / TracedSparkQueries, "ms")
  }

  // ---- the run ------------------------------------------------------------------

  def run(): Unit = {
    val setups = (0 until SetupReps).map(_ => setUp())
    setups.tail.foreach { s =>
      if (s.counts != setups.head.counts)
        problems += s"set-ups of one seed differ: ${s.counts} vs ${setups.head.counts}"
    }
    setups.head.counts.foreach { case (k, v) => counts(k) = v }
    val Seq(s1, s2, s3) = setups
    val ref = reference(s1.base)
    // Build and retrain times are per-layer metrics: training's many small
    // parallel steps made them vary by up to 35 % between runs.
    val buildS = Stats.median(setups.map(_.buildSeconds))
    if (o.trace) perLayer("core.build.s") = (buildS, "s")
    endToEnd("setup_s") = (Stats.median(setups.map(_.seconds)), "s")
    endToEnd("storage_ratio") = (s1.dm.storage.total.toDouble / s1.base.rawBytes, "ratio")
    info += f"set-up: ${s1.base.rows} rows, raw ${s1.base.rawBytes} B, pool ${s1.dm.pool.budgetBytes} B, build $buildS%.3f s, " +
      f"T_aux ${s1.dm.aux.entryCount} entries in ${s1.dm.aux.store.blockCount} blocks, " +
      f"set-ups ${setups.map(x => f"${x.seconds}%.2f").mkString("/")} s"

    if (!o.trace) {
      lookupPhase(s1, ref)
      modifyPhase(s3, None, warm = true)
      modifyPhase(s2, None)
    } else {
      tracedBuild(s1)
      tracedLookups(s1, ref)
      tracedBlocks(s1)
      tracedSpark(s1, ref)
      val t = new Tracer; tracers("modify") = t
      val tw = new Tracer
      modifyPhase(s3, Some((new Replica(tw), tw)), warm = true)
      modifyPhase(s2, Some((new Replica(t), t)))
      perLayer("jvm.start_to_first_op_s") = (startToFirstOpSeconds, "s")
      tracers.foreach { case (nm, tr) => tr.faults.take(5).foreach(f => problems += s"trace $nm: $f") }
    }
    setups.foreach(_.close())
  }

  // Wall clock and nanoTime read together, to place the JVM start on the nanoTime axis.
  private val startWallMs = System.currentTimeMillis()
  private val startNanoMs = System.nanoTime() / 1e6

  /** Process start to the first timed operation. */
  def startToFirstOpSeconds: Double =
    (startWallMs + firstOpNanos / 1e6 - startNanoMs - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
}

object Bench {
  /** Buffer-pool counter changes over some calls. */
  final case class PoolDelta(hits: Long, misses: Long, evictions: Long, loadNs: Long, loadedBytes: Long) {
    def +(o: PoolDelta) = PoolDelta(hits + o.hits, misses + o.misses, evictions + o.evictions,
      loadNs + o.loadNs, loadedBytes + o.loadedBytes)
  }
  val NoDelta = PoolDelta(0, 0, 0, 0, 0)
}
