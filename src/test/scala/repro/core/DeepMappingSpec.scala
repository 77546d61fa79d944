package repro.core

import scala.jdk.CollectionConverters._

import repro.SparkSpec
import repro.compress.BlockCodec
import repro.data.SynthCorr
import repro.nn.{NetArch, TaskSpec, Trainer}
import repro.store.KvData

/** End-to-end DeepMapping hybrid structure: losslessness (Alg. 1),
  * hallucination rejection, modifications (Alg. 3–5), retrain trigger. */
class DeepMappingSpec extends SparkSpec {

  private def cfg(extra: DmConfig => DmConfig = identity): DmConfig =
    extra(DmConfig(
      codec = BlockCodec.Zstd(3), partitionBytes = 8 * 1024, poolBudget = 1 << 20,
      train = Trainer.Config(epochs = 8, batchSize = 1024)))

  private val highCols = Seq("v1", "v2", "v3", "v4")

  /** Small dataset + fresh build for mutation tests. */
  private lazy val highDf = SynthCorr.multiHigh(spark, rows = 3000)
  private def buildHigh(): DeepMapping =
    DeepMapping.buildFromDf(highDf, "k", highCols, cfg())

  /** Larger dataset + one shared build for read-only tests. */
  private lazy val bigDf = SynthCorr.multiHigh(spark, rows = 20000)
  private lazy val dmShared: DeepMapping = DeepMapping.buildFromDf(bigDf, "k", highCols,
    cfg(c => c.copy(train = Trainer.Config(epochs = 20, batchSize = 1024, lr = 2e-3f))))

  test("lookup returns the exact stored value for every key (lossless)") {
    val dm = dmShared
    val dicts = Encoding.buildDicts(bigDf, highCols)
    val data = Encoding.toKvData(bigDf, "k", highCols, dicts)
    val res = dm.lookup(data.keys)
    data.keys.indices.foreach { i =>
      assert(res(i) != null, s"key ${data.keys(i)} missing")
      (0 until data.nCols).foreach { c =>
        assert(dm.dicts.cols(c).decode(res(i)(c)) == dicts.cols(c).decode(data.cols(c)(i)),
          s"key ${data.keys(i)} col $c")
      }
    }
  }

  test("non-existing keys return NULL — no hallucination") {
    val absent = Array(0L, 20001L, 50_000L, 999_999L)
    assert(dmShared.lookup(absent).forall(_ == null))
  }

  test("lookupBatch decodes to original strings") {
    // k=1: v1 = pick((1-1)%2) = "M"; k=2 -> "F"
    assert(dmShared.lookupBatch(Array(1L))(0)(0) == "M")
    assert(dmShared.lookupBatch(Array(2L))(0)(0) == "F")
  }

  test("model memorises most of the high-correlation data") {
    // singleHigh (period 70) is fully CRT-decodable from the residue
    // features; at 3000 rows the model should capture almost all of it.
    val df = SynthCorr.singleHigh(spark, rows = 3000)
    val dm = DeepMapping.buildFromDf(df, "k", Seq("v"),
      cfg(c => c.copy(train = repro.nn.Trainer.Config(epochs = 60, batchSize = 256, lr = 2e-3f))))
    try {
      val data = Encoding.toKvData(df, "k", Seq("v"), dm.dicts)
      val acc = dm.modelAccuracy(data)
      assert(acc > 0.7, s"high-correlation accuracy only $acc")
    } finally dm.close()
  }

  test("storage breakdown components are all accounted") {
    val s = dmShared.storage
    assert(s.modelBytes > 0 && s.existBytes > 0 && s.decodeBytes > 0)
    assert(s.total == s.modelBytes + s.auxBytes + s.existBytes + s.decodeBytes)
    assert(dmShared.storageBytes == s.total)
  }

  test("high-correlation DM is much smaller than raw data") {
    val data = Encoding.toKvData(bigDf, "k", highCols, dmShared.dicts)
    assert(dmShared.storageBytes < data.rawBytes,
      s"${dmShared.storageBytes} vs raw ${data.rawBytes}")
  }

  test("Alg.3 insert: new keys become visible with correct values") {
    val dm = buildHigh()
    try {
      val insDf = SynthCorr.multiHigh(spark, rows = 200, startKey = 3001)
      val ins = Encoding.toKvData(insDf, "k", highCols, dm.dicts)
      assert(dm.lookup(Array(3100L))(0) == null)
      dm.insert(ins)
      val res = dm.lookup(ins.keys)
      ins.keys.indices.foreach { i =>
        assert(res(i) != null)
        (0 until ins.nCols).foreach(c => assert(res(i)(c) == ins.cols(c)(i)))
      }
    } finally dm.close()
  }

  test("Alg.3 insert: in-distribution inserts mostly avoid T_aux (model generalises)") {
    val dm = buildHigh()
    try {
      val before = dm.aux.entryCount
      val insDf = SynthCorr.multiHigh(spark, rows = 500, startKey = 3001)
      val ins = Encoding.toKvData(insDf, "k", highCols, dm.dicts)
      dm.insert(ins)
      val added = dm.aux.entryCount - before
      assert(added < 500, s"all $added inserts went to aux — model generalised none")
    } finally dm.close()
  }

  test("Alg.4 delete: removed keys return NULL, others unaffected") {
    val dm = buildHigh()
    try {
      dm.delete(Array(10L, 11L, 12L))
      assert(dm.lookup(Array(10L, 11L, 12L)).forall(_ == null))
      assert(dm.lookup(Array(13L))(0) != null)
    } finally dm.close()
  }

  test("Alg.5 update: new values are returned after substitution") {
    val dm = buildHigh()
    try {
      // Update key 1 to the values key 2 would have (wrong for the model).
      val newVals = Array.tabulate(4)(c => dm.lookup(Array(2L))(0)(c))
      dm.update(KvData(Array(1L), newVals.map(v => Array(v))))
      val got = dm.lookup(Array(1L))(0)
      assert(got.sameElements(newVals))
    } finally dm.close()
  }

  test("Alg.5 update of non-existing key is rejected") {
    val dm = buildHigh()
    try {
      intercept[IllegalArgumentException] {
        dm.update(KvData(Array(999_999L), Array.fill(4)(Array(0))))
      }
    } finally dm.close()
  }

  test("Alg.5 update back to model-predicted value drops the aux entry") {
    val dm = buildHigh()
    try {
      val k = 5L
      val modelPred = Trainer.predictAll(dm.model, Array(k), dm.enc.encode).map(_(0))
      // First force a wrong value into aux, then update back to the model's view.
      dm.update(KvData(Array(k), modelPred.map(p => Array((p + 1) % 2))))
      val auxAfterWrong = dm.aux.contains(k)
      assert(auxAfterWrong)
      dm.update(KvData(Array(k), modelPred.map(p => Array(p))))
      assert(!dm.aux.contains(k), "aux entry should be removed when model agrees")
    } finally dm.close()
  }

  test("maybeRetrain fires only above the threshold") {
    val dm = DeepMapping.buildFromDf(highDf, "k", highCols,
      cfg(c => c.copy(retrainThresholdBytes = Long.MaxValue)))
    try {
      val dicts = dm.dicts
      val data = Encoding.toKvData(highDf, "k", highCols, dicts)
      assert(!dm.maybeRetrain(data))
      val dm2Cfg = cfg(c => c.copy(retrainThresholdBytes = 1L))
      val dm2 = DeepMapping.buildFromDf(highDf, "k", highCols, dm2Cfg)
      try assert(dm2.maybeRetrain(data)) finally dm2.close()
    } finally dm.close()
  }

  test("retrain preserves losslessness on current data") {
    val dmU = buildHigh()
    try {
      // Insert cross-distribution data (encodable: shared value domains).
      val insDf = SynthCorr.multiLow(spark, rows = 300, startKey = 3001)
      val ins = Encoding.toKvData(insDf, "k", highCols, dmU.dicts)
      dmU.insert(ins)
      val current = TableModHelper.concat(
        Encoding.toKvData(highDf, "k", highCols, dmU.dicts), ins)
      dmU.retrain(current)
      val res = dmU.lookup(current.keys)
      current.keys.indices.foreach { i =>
        assert(res(i) != null)
        (0 until current.nCols).foreach(c => assert(res(i)(c) == current.cols(c)(i)))
      }
    } finally dmU.close()
  }

  test("DM on low-correlation data still lossless (aux does the work)") {
    val lowDf = SynthCorr.multiLow(spark, rows = 1500)
    val dm = DeepMapping.buildFromDf(lowDf, "k", highCols,
      cfg(c => c.copy(train = Trainer.Config(epochs = 3, batchSize = 1024))))
    try {
      val data = Encoding.toKvData(lowDf, "k", highCols, dm.dicts)
      val res = dm.lookup(data.keys)
      data.keys.indices.foreach { i =>
        assert(res(i) != null)
        (0 until data.nCols).foreach(c => assert(res(i)(c) == data.cols(c)(i)))
      }
    } finally dm.close()
  }

  test("oracle: DM lookup equals DuckDB point-query semantics") {
    import org.apache.spark.sql.functions.col
    val df = SynthCorr.singleHigh(spark, rows = 800)
    val dm = DeepMapping.buildFromDf(df, "k", Seq("v"), cfg())
    try {
      val keys = Array.tabulate(800)(i => i.toLong + 1)
      val vals = dm.lookupBatch(keys)
      import spark.implicits._
      val lookupDf = keys.indices.map(i => (keys(i), vals(i)(0))).toDF("k", "v")
      repro.Oracle.assertEquivalent(
        lookupDf.select(col("k").cast("string").as("k"), col("v")),
        "SELECT k, v FROM t ORDER BY 1", "t" -> df)
    } finally dm.close()
  }

  // ---- driver-side data sets for the regression tests below ------------

  private val smallDicts = ValueDicts(Array(ColumnDict("a", Array("x", "y")), ColumnDict("b", Array("p", "q", "r"))))
  private val oneEpoch = cfg(c => c.copy(train = Trainer.Config(epochs = 1, batchSize = 256)))
  private def keyRange(from: Int, until: Int): Array[Long] = Array.range(from, until).map(_.toLong)
  /** Learnable codes: column c is k mod (c + 2). */
  private def periodic(keys: Array[Long]): KvData = KvData(keys, Array.tabulate(2)(c => keys.map(k => (k % (c + 2)).toInt)))
  private def random(keys: Array[Long], seed: Long): KvData = {
    val r = new java.util.Random(seed)
    KvData(keys, Array(keys.map(_ => r.nextInt(2)), keys.map(_ => r.nextInt(3))))
  }
  private def shuffled(keys: Array[Long], seed: Long): Array[Long] = {
    val r = new java.util.Random(seed)
    val out = keys.clone()
    (out.length - 1 to 1 by -1).foreach { i => val j = r.nextInt(i + 1); val t = out(i); out(i) = out(j); out(j) = t }
    out
  }
  private def assertLossless(dm: DeepMapping, data: KvData): Unit = {
    val res = dm.lookup(data.keys)
    data.keys.indices.foreach { i =>
      assert(res(i) != null && res(i).sameElements(data.row(i)), s"key ${data.keys(i)}")
    }
  }

  test("retrain after inserts widen the key domain stays lossless (encoder swapped with the model)") {
    val base = periodic(keyRange(0, 1000))
    val ins = periodic(keyRange(1000, 2000))
    val dm = DeepMapping.build(base, smallDicts, oneEpoch)
    try {
      dm.insert(ins)
      val all = TableModHelper.concat(base, ins)
      dm.retrain(all)
      assert(dm.enc.featDim == dm.model.featDim)
      assertLossless(dm, all)
    } finally dm.close()
  }

  test("negative keys are rejected by name before any state changes") {
    val e = intercept[IllegalArgumentException](DeepMapping.build(periodic(Array(3L, -7L, 5L)), smallDicts, oneEpoch))
    assert(e.getMessage.contains("-7"))
    val base = periodic(keyRange(0, 500))
    val dm = DeepMapping.build(base, smallDicts, oneEpoch)
    try {
      val before = dm.lookup(base.keys)
      val ei = intercept[IllegalArgumentException](dm.insert(periodic(Array(900L, -2L))))
      assert(ei.getMessage.contains("-2"))
      val eu = intercept[IllegalArgumentException](dm.update(periodic(Array(1L, -4L))))
      assert(eu.getMessage.contains("-4"))
      val after = dm.lookup(base.keys)
      base.keys.indices.foreach(i => assert(after(i).sameElements(before(i)), s"key ${base.keys(i)}"))
      assert(dm.lookup(Array(900L, -2L)).forall(_ == null))
      assert(dm.aux.overlaySize == 0)
    } finally dm.close()
  }

  test("a batch repeating a key is rejected before any state changes") {
    val e = intercept[IllegalArgumentException](DeepMapping.build(periodic(Array(3L, 5L, 3L)), smallDicts, oneEpoch))
    assert(e.getMessage.contains("duplicate key 3"))
    val base = periodic(keyRange(0, 500))
    val dm = DeepMapping.build(base, smallDicts, oneEpoch)
    try {
      val before = dm.lookup(base.keys)
      val ei = intercept[IllegalArgumentException](dm.insert(periodic(Array(900L, 901L, 900L))))
      assert(ei.getMessage.contains("duplicate key 900"))
      val eu = intercept[IllegalArgumentException](dm.update(KvData(Array(4L, 2L, 4L), Array(Array(1, 0, 0), Array(2, 1, 0)))))
      assert(eu.getMessage.contains("duplicate key 4"))
      val after = dm.lookup(base.keys)
      base.keys.indices.foreach(i => assert(after(i).sameElements(before(i)), s"key ${base.keys(i)}"))
      assert(dm.lookup(Array(900L, 901L)).forall(_ == null))
      assert(dm.aux.overlaySize == 0)
    } finally dm.close()
  }

  test("inserting an existing key is rejected and keeps its value") {
    val dm = DeepMapping.build(periodic(keyRange(0, 500)), smallDicts, oneEpoch)
    try {
      val k = 1L
      val modelCodes = Trainer.predictAll(dm.model, Array(k), dm.enc.encode).map(_(0))
      val stored = modelCodes.zipWithIndex.map { case (p, c) => (p + 1) % (c + 2) }
      dm.update(KvData(Array(k), stored.map(Array(_)))) // T_aux now overrides the model for k
      val e = intercept[IllegalArgumentException](dm.insert(KvData(Array(k), modelCodes.map(Array(_)))))
      assert(e.getMessage.contains(s"existing key $k"))
      assert(dm.lookup(Array(k))(0).sameElements(stored))
    } finally dm.close()
  }

  test("a key above 2^38 does not make a never-inserted small key exist") {
    val big = (1L << 38) + 100
    val data = periodic(Array(5L, big))
    val dm = DeepMapping.build(data, smallDicts, oneEpoch)
    try {
      assertLossless(dm, data)
      assert(dm.lookup(Array(100L, 4L, 6L, big - 1, big + 1, 1L << 38)).forall(_ == null))
    } finally dm.close()
  }

  test("a build with a key near 10^12 succeeds and is lossless") {
    val data = random(keyRange(0, 200) :+ 999_999_999_989L, seed = 9)
    val dm = DeepMapping.build(data, smallDicts, oneEpoch)
    try {
      assertLossless(dm, data)
      assert(dm.lookup(Array(200L, 999_999_999_988L, 999_999_999_990L)).forall(_ == null))
      assert(dm.storage.existBytes < 1000, s"V_exist charged ${dm.storage.existBytes} B")
    } finally dm.close()
  }

  test("codes outside a column's dictionary, wrong column counts and too-narrow heads are rejected before any state changes") {
    def rejects(body: => Unit, words: String*): Unit = {
      val e = intercept[IllegalArgumentException](body)
      words.foreach(w => assert(e.getMessage.contains(w), s"'${e.getMessage}' does not name $w"))
    }
    rejects(DeepMapping.build(KvData(Array(1L, 2L), Array(Array(0, 1), Array(2, 3))), smallDicts, oneEpoch),
      "code 3", "key 2", "column b")
    rejects(DeepMapping.build(KvData(Array(1L, 2L), Array(Array(0, 1))), smallDicts, oneEpoch), "1 value columns", "a, b")
    val narrowHeads = NetArch(Seq(8), IndexedSeq(TaskSpec("a", 2, Nil), TaskSpec("b", 2, Nil)))
    rejects(DeepMapping.build(periodic(keyRange(0, 50)), smallDicts, oneEpoch.copy(arch = Some(narrowHeads))), "b: 3")
    val base = periodic(keyRange(0, 500))
    val dm = DeepMapping.build(base, smallDicts, oneEpoch)
    try {
      val before = dm.lookup(base.keys)
      rejects(dm.insert(KvData(Array(900L, 901L), Array(Array(0, 7), Array(0, 0)))), "code 7", "key 901", "column a")
      rejects(dm.insert(KvData(Array(902L), Array(Array(1), Array(-1)))), "code -1", "key 902", "column b")
      rejects(dm.insert(KvData(Array(903L), Array(Array(1), Array(1), Array(1)))), "3 value columns")
      rejects(dm.update(KvData(Array(3L), Array(Array(2), Array(0)))), "code 2", "key 3", "column a")
      rejects(dm.update(KvData(Array(4L), Array(Array(-5), Array(0)))), "code -5", "key 4", "column a")
      rejects(dm.update(KvData(Array(4L), Array(Array(1)))), "1 value columns")
      val after = dm.lookup(base.keys)
      base.keys.indices.foreach(i => assert(after(i).sameElements(before(i)), s"key ${base.keys(i)}"))
      assert(dm.lookup(Array(900L, 901L, 902L, 903L)).forall(_ == null))
      assert(dm.aux.overlaySize == 0)
      dm.lookupBatch(base.keys) // every stored code decodes
    } finally dm.close()
  }

  test("shuffled lookup and delete batches decompress each T_aux block at most once") {
    val data = random(keyRange(0, 1500).map(_ * 2), seed = 3) // odd keys are absent
    val dm = DeepMapping.build(data, smallDicts, oneEpoch.copy(partitionBytes = 512, poolBudget = 0))
    try {
      val blocks = dm.aux.store.blockCount
      assert(blocks > 5, s"only $blocks T_aux blocks")
      val queries = shuffled(data.keys ++ data.keys.map(_ + 1), seed = 4)
      dm.pool.stats.reset()
      val res = dm.lookup(queries)
      assert(dm.pool.stats.misses <= blocks, s"${dm.pool.stats.misses} misses for $blocks blocks")
      queries.indices.foreach { i =>
        if (queries(i) % 2 == 1) assert(res(i) == null)
        else assert(res(i).sameElements(data.row((queries(i) / 2).toInt)), s"key ${queries(i)}")
      }
      val del = shuffled(data.keys, seed = 5).take(700)
      dm.pool.stats.reset()
      dm.delete(del)
      assert(dm.pool.stats.misses <= blocks, s"${dm.pool.stats.misses} misses for $blocks blocks")
      val gone = del.toSet
      val kept = data.keys.indices.filterNot(i => gone(data.keys(i)))
      assert(dm.lookup(del).forall(_ == null))
      assertLossless(dm, KvData(kept.map(data.keys(_)).toArray, data.cols.map(col => kept.map(col(_)).toArray)))
      // Half the updates agree with the model (their T_aux entries go), half
      // do not (T_aux overrides them).
      val upKeys = shuffled(kept.map(data.keys(_)).toArray, seed = 6).take(600)
      val pred = Trainer.predictAll(dm.model, upKeys, dm.enc.encode)
      val upd = KvData(upKeys, Array.tabulate(2)(c =>
        Array.tabulate(upKeys.length)(i => if (i % 2 == 0) pred(c)(i) else (pred(c)(i) + 1) % (c + 2))))
      dm.pool.stats.reset()
      dm.update(upd)
      assert(dm.pool.stats.misses <= blocks, s"${dm.pool.stats.misses} misses for $blocks blocks")
      assertLossless(dm, upd)
    } finally dm.close()
  }

  private def javaRoundTrip[A](a: A): A = {
    val bos = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bos)
    oos.writeObject(a); oos.close()
    val ois = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bos.toByteArray))
    try ois.readObject().asInstanceOf[A] finally ois.close()
  }

  test("a snapshot answers like the driver after Java serialization") {
    val data = random(keyRange(0, 600), seed = 7)
    val dm = DeepMapping.build(data, smallDicts, oneEpoch)
    try {
      val inserted = random(keyRange(600, 700), seed = 8)
      dm.insert(inserted)                             // overlay adds
      dm.delete(keyRange(0, 60))                      // tombstones over base entries
      assert(dm.aux.overlaySize > 0)
      val queries = keyRange(0, 800)
      def check(): Unit = {
        val snap = dm.snapshot()
        snap.lookupBatch(queries) // decodes T_aux on this side first
        val got = javaRoundTrip(snap).lookupBatch(queries)
        val want = dm.lookupBatch(queries)
        queries.indices.foreach(i => assert(Option(got(i)).map(_.toSeq) == Option(want(i)).map(_.toSeq), s"key ${queries(i)}"))
      }
      assert(queries.exists(k => dm.aux.get(k) != null && dm.exist.get(k)), "no T_aux-overridden key")
      assert(queries.exists(k => !dm.exist.get(k)), "no absent key")
      check()
      // The live structure ships only through snapshot().
      val e = intercept[java.io.NotSerializableException](javaRoundTrip(dm))
      assert(e.getMessage.contains("snapshot()"), e.getMessage)
      // A snapshot reads no file: it still answers once repack and retrain
      // have deleted the T_aux file it was taken from.
      val snap = dm.snapshot()
      val want = dm.lookupBatch(queries)
      val file = dm.aux.store.path
      dm.repack()
      dm.retrain(TableModHelper.concat(KvData(data.keys.drop(60), data.cols.map(_.drop(60))), inserted))
      assert(!java.nio.file.Files.exists(file) && dm.aux.store.path != file)
      Seq(snap.lookupBatch(queries), javaRoundTrip(snap).lookupBatch(queries)).foreach { got =>
        queries.indices.foreach(i => assert(Option(got(i)).map(_.toSeq) == Option(want(i)).map(_.toSeq), s"key ${queries(i)}"))
      }
      check()
      dm.delete(dm.aux.entries()._1) // now T_aux is empty
      assert(dm.aux.entryCount == 0 && queries.exists(dm.exist.get))
      check()
    } finally dm.close()
  }

  test("a snapshot taken before a delete still answers the deleted key") {
    val data = periodic(keyRange(0, 300))
    val dm = DeepMapping.build(data, smallDicts, oneEpoch)
    try {
      val snap = dm.snapshot()
      dm.delete(Array(7L))
      assert(dm.lookup(Array(7L))(0) == null)
      assert(snap.lookupBatch(Array(7L))(0).toSeq == smallDicts.decode(data.row(7)).toSeq)
      import spark.implicits._
      val row = SparkLookup.lookupDf(spark, snap, Seq(7L).toDF("k"), "k").collect()(0)
      assert(row.getString(1) == smallDicts.decode(data.row(7))(0))
    } finally dm.close()
  }

  test("retrain and maybeRetrain reject data whose key set is not V_exist's, before any state changes") {
    val base = random(keyRange(0, 400), seed = 12)
    val dm = DeepMapping.build(base, smallDicts, oneEpoch.copy(retrainThresholdBytes = 1L))
    try {
      val model = dm.model
      val missing = KvData(base.keys.drop(1), base.cols.map(_.drop(1)))     // live key 0 left out
      val extra = TableModHelper.concat(base, random(Array(400L), seed = 1)) // key 400 does not exist
      Seq(missing -> "399 keys", extra -> "key 400").foreach { case (d, words) =>
        assert(intercept[IllegalArgumentException](dm.retrain(d)).getMessage.contains(words))
        assert(intercept[IllegalArgumentException](dm.maybeRetrain(d)).getMessage.contains(words))
      }
      assert(dm.model eq model)
      assertLossless(dm, base)
    } finally dm.close()
  }

  test("readers see each key's before or after value while a writer modifies, repacks and retrains") {
    val base = random(keyRange(0, 3000), seed = 21)
    val dm = DeepMapping.build(base, smallDicts, oneEpoch.copy(partitionBytes = 512, poolBudget = 4096))
    try {
      assert(dm.aux.entryCount * 16 > dm.pool.budgetBytes, "T_aux fits the pool")
      val r = new java.util.Random(22)
      def codes(): Array[Int] = Array(r.nextInt(2), r.nextInt(3))
      // Round i updates keys [100i, 100i + 50), deletes [100i + 50, 100i + 100)
      // and inserts [10000 + 50i, 10000 + 50i + 50); each key changes once.
      val rounds = 6
      val after = scala.collection.mutable.LinkedHashMap.empty[Long, Option[Seq[Int]]]
      (0 until rounds).foreach { i =>
        (100 * i until 100 * i + 50).foreach(k => after(k.toLong) = Some(codes().toSeq))
        (100 * i + 50 until 100 * i + 100).foreach(k => after(k.toLong) = None)
        (10000 + 50 * i until 10000 + 50 * i + 50).foreach(k => after(k.toLong) = Some(codes().toSeq))
      }
      val before: Long => Option[Seq[Int]] = k => if (k < base.rows) Some(base.row(k.toInt).toSeq) else None
      val absent = keyRange(20000, 20100)
      val queryKeys = base.keys ++ after.keys.filter(_ >= base.rows) ++ absent
      def allowed(k: Long): Set[Option[Seq[Int]]] = Set(before(k)) ++ after.get(k)

      val failures = new java.util.concurrent.ConcurrentLinkedQueue[String]()
      val writing = new java.util.concurrent.atomic.AtomicBoolean(true)
      val readers = (0 until 3).map { t =>
        new Thread(() => {
          val rr = new java.util.Random(100 + t)
          var batches = 0
          try while (writing.get || batches < 20) {
            val keys = Array.fill(400)(queryKeys(rr.nextInt(queryKeys.length)))
            val got = dm.lookup(keys)
            keys.indices.foreach { i =>
              val g = Option(got(i)).map(_.toSeq)
              if (!allowed(keys(i))(g)) failures.add(s"key ${keys(i)} answered $g, allowed ${allowed(keys(i))}")
            }
            if (dm.pool.usedBytes > dm.pool.budgetBytes) failures.add(s"pool holds ${dm.pool.usedBytes} B > ${dm.pool.budgetBytes} B")
            batches += 1
          } catch { case e: Throwable => failures.add(s"reader $t threw $e") }
        })
      }
      readers.foreach(_.start())
      try {
        val live = scala.collection.mutable.TreeMap.from(base.keys.indices.map(i => base.keys(i) -> base.row(i).toSeq))
        def kv(ks: Seq[Long]): KvData = KvData(ks.toArray, Array.tabulate(2)(c => ks.map(k => after(k).get(c)).toArray))
        (0 until rounds).foreach { i =>
          val ins = (10000L + 50 * i until 10000L + 50 * i + 50)
          dm.insert(kv(ins))
          val up = (100L * i until 100L * i + 50)
          dm.update(kv(up))
          val del = (100L * i + 50 until 100L * i + 100)
          dm.delete(del.toArray)
          dm.repack()
          (ins ++ up).foreach(k => live(k) = after(k).get)
          live --= del
          dm.retrain(KvData(live.keys.toArray, Array.tabulate(2)(c => live.values.map(_(c)).toArray)))
        }
      } catch { case e: Throwable => failures.add(s"writer threw $e") }
      finally writing.set(false)
      readers.foreach(_.join(120000))
      assert(readers.forall(!_.isAlive), "a reader did not finish")
      assert(failures.isEmpty, failures.asScala.take(5).mkString("; "))
      val got = dm.lookup(queryKeys)
      queryKeys.indices.foreach { i =>
        val k = queryKeys(i)
        assert(Option(got(i)).map(_.toSeq) == after.getOrElse(k, before(k)), s"key $k")
      }
    } finally dm.close()
  }

  test("a null value cell is returned as null, and an absent key still returns a NULL row") {
    import spark.implicits._
    val rows = (1 to 400).map(k => (k.toLong, if (k % 5 == 0) None else Some(s"v${k % 3}"), s"w${k % 2}"))
    val df = rows.toDF("k", "v", "w")
    val dm = DeepMapping.buildFromDf(df, "k", Seq("v", "w"), oneEpoch)
    try {
      assert(dm.dicts.cols(0).values.contains(null) && dm.dicts.byteSize > 0)
      val keys = rows.map(_._1).toArray :+ 401L
      val got = dm.lookupBatch(keys)
      rows.indices.foreach { i =>
        assert(got(i) != null && got(i).toSeq == Seq(rows(i)._2.orNull, rows(i)._3), s"key ${keys(i)}")
      }
      assert(got.last == null)
      val out = SparkLookup.lookupDf(spark, dm.snapshot(), Seq(5L, 6L, 401L).toDF("k"), "k")
        .collect().map(r => r.getLong(0) -> (Option(r.getString(1)), Option(r.getString(2)))).toMap
      assert(out(5L) == ((None, Some("w1"))))
      assert(out(6L) == ((Some("v0"), Some("w0"))))
      assert(out(401L) == ((None, None)))
    } finally dm.close()
  }
}

/** Tiny local helper mirroring bench.TableMod.concat for tests. */
object TableModHelper {
  def concat(a: KvData, b: KvData): KvData =
    KvData(a.keys ++ b.keys, Array.tabulate(a.nCols)(c => a.cols(c) ++ b.cols(c)))
}
