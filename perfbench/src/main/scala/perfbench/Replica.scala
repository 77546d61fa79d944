package perfbench

import repro.core.{AuxTable, DeepMapping, DmConfig, ExistenceBitmap, KeyEncoder, ValueDicts}
import repro.nn.{Mat, MultiTaskNet, Trainer}
import repro.store.{BufferPool, KvData}

/** Traced replicas of DeepMapping's build, Alg. 1 lookup and Alg. 3-5
  * modifications. Each makes the same public calls as the library method
  * it mirrors, with a span around each call into a layer. Where the
  * library interleaves two independent calls per key (V_exist and T_aux),
  * the replica runs them as two loops in the same key order, so each
  * gets one span per batch. The caller checks that a replica's result
  * equals the library's.
  */
final class Replica(t: Tracer) {

  /** Counts taken at the layer boundaries of the traced lookups. */
  var keys = 0L
  var rejected = 0L
  var overrides = 0L

  /** Counts taken at the layer boundaries of the traced modifications. */
  var auxAdds = 0L
  var auxRemoves = 0L
  var deleteChunks = 0L
  var deleteMisses = 0L

  private var names: (Array[String], Array[Array[String]]) = _

  /** Span names of the model's layers: shared<i>, head_<task>_<layer>. */
  def layerNames(m: MultiTaskNet): (Array[String], Array[Array[String]]) = {
    if (names == null || names._1.length != m.shared.length || names._2.length != m.priv.length)
      names = (m.shared.indices.map(i => s"nn.dense.shared$i").toArray,
        m.priv.indices.map(ti => m.priv(ti).indices.map(li => s"nn.dense.head_${ti}_$li").toArray).toArray)
    names
  }

  /** `Trainer.predictAll` with a span per encode, layer and argmax. */
  private def predict(m: MultiTaskNet, enc: KeyEncoder, ks: Array[Long]): Array[Array[Int]] = {
    val (sharedNames, headNames) = layerNames(m)
    val n = ks.length
    val out = Array.fill(m.arch.tasks.length)(new Array[Int](n))
    val chunk = 8192 // Trainer.predictAll's default batch
    val idx = t.span("core.encode")(Array.tabulate(n)(identity))
    var from = 0
    while (from < n) {
      val until = math.min(n, from + chunk)
      val x = t.span("core.encode")(Trainer.encodeBatch(ks, idx, from, until, m.featDim, enc.encode))
      var h = x
      var i = 0
      while (i < m.shared.length) { val l = m.shared(i); h = t.span(sharedNames(i))(l.forward(h)); i += 1 }
      val logits = m.priv.indices.map { ti =>
        var a = h
        var li = 0
        while (li < m.priv(ti).length) { val l = m.priv(ti)(li); a = t.span(headNames(ti)(li))(l.forward(a)); li += 1 }
        a
      }
      val preds = logits.map(l => t.span("nn.argmax")(Mat.argmaxRows(l)))
      var tk = 0
      while (tk < preds.length) { System.arraycopy(preds(tk), 0, out(tk), from, until - from); tk += 1 }
      from = until
    }
    out
  }

  /** Algorithm 1, as `DeepMapping.lookup`. */
  def lookup(dm: DeepMapping, ks: Array[Long]): Array[Array[Int]] = t.span("core.lookup") {
    val n = ks.length
    val preds = predict(dm.model, dm.enc, ks)
    val order = Array.tabulate(n)(Integer.valueOf)
    java.util.Arrays.sort(order, (a: Integer, b: Integer) => java.lang.Long.compare(ks(a), ks(b)))
    val exists = new Array[Boolean](n)
    t.span("core.exist") {
      var oi = 0
      while (oi < n) { val i = order(oi).intValue; exists(i) = dm.exist.get(ks(i)); oi += 1 }
    }
    val corrected = new Array[Array[Int]](n)
    t.span("core.aux.get") {
      var oi = 0
      while (oi < n) { val i = order(oi).intValue; if (exists(i)) corrected(i) = dm.aux.get(ks(i)); oi += 1 }
    }
    val out = new Array[Array[Int]](n)
    var i = 0
    while (i < n) {
      if (!exists(i)) rejected += 1
      else if (corrected(i) != null) { overrides += 1; out(i) = corrected(i) }
      else out(i) = Array.tabulate(preds.length)(tk => preds(tk)(i))
      i += 1
    }
    keys += n
    out
  }

  /** `DeepMapping.build`, with spans around training, the sweep, packing
    * T_aux and building V_exist. Returns the structure and the number of
    * epochs training ran. */
  def build(data: KvData, dicts: ValueDicts, cfg: DmConfig): (DeepMapping, Int) = t.span("core.build") {
    val maxKey = if (data.rows == 0) 0L else data.keys.max
    val enc = KeyEncoder(maxKey)
    val arch = cfg.arch.getOrElse {
      val d = DeepMapping.defaultArch(enc, dicts)
      d.copy(tasks = d.tasks.zipWithIndex.map { case (tk, i) => tk.copy(nClasses = math.max(2, dicts.cols(i).size)) })
    }
    val model = MultiTaskNet(enc.featDim, arch, cfg.seed)
    val losses = t.span("nn.fit")(Trainer.fit(model, data.keys, data.cols, enc.encode, cfg.train))
    val (missKeys, missCols) = t.span("core.sweep") {
      val preds = Trainer.predictAll(model, data.keys, enc.encode)
      val mk = scala.collection.mutable.ArrayBuffer.empty[Long]
      val mc = Array.fill(data.nCols)(scala.collection.mutable.ArrayBuffer.empty[Int])
      var i = 0
      while (i < data.rows) {
        if (!rowMatches(preds, data, i)) {
          mk += data.keys(i)
          var c = 0
          while (c < data.nCols) { mc(c) += data.cols(c)(i); c += 1 }
        }
        i += 1
      }
      (mk.toArray, mc.map(_.toArray))
    }
    val aux = t.span("core.aux.pack")(AuxTable.build(missKeys, missCols, cfg.codec, cfg.partitionBytes,
      new BufferPool(cfg.poolBudget)))
    val exist = t.span("core.exist.build")(ExistenceBitmap.fromKeys(data.keys))
    (new DeepMapping(model, enc, dicts, aux, exist, cfg), losses.length)
  }

  private def rowMatches(preds: Array[Array[Int]], data: KvData, i: Int): Boolean = {
    var c = 0
    while (c < data.nCols) { if (preds(c)(i) != data.cols(c)(i)) return false; c += 1 }
    true
  }

  private def codesOf(data: KvData, i: Int): Array[Int] = Array.tabulate(data.nCols)(c => data.cols(c)(i))

  /** Algorithm 3, as `DeepMapping.insert`. */
  def insert(dm: DeepMapping, data: KvData): Unit = t.span("core.insert") {
    val preds = t.span("nn.predict")(Trainer.predictAll(dm.model, data.keys, dm.enc.encode))
    t.span("core.exist.set") { data.keys.foreach(dm.exist.set) }
    val misses = (0 until data.rows).filterNot(i => rowMatches(preds, data, i))
    t.span("core.aux.add") { misses.foreach(i => dm.aux.add(data.keys(i), codesOf(data, i))) }
    auxAdds += misses.length
  }

  /** Algorithm 5, as `DeepMapping.update`. */
  def update(dm: DeepMapping, data: KvData): Unit = t.span("core.update") {
    val preds = t.span("nn.predict")(Trainer.predictAll(dm.model, data.keys, dm.enc.encode))
    t.span("core.exist.check") { data.keys.foreach(k => require(dm.exist.get(k), s"update of non-existing key $k")) }
    val (agree, disagree) = (0 until data.rows).partition(i => rowMatches(preds, data, i))
    t.span("core.aux.remove") { agree.foreach(i => dm.aux.remove(data.keys(i))) }
    t.span("core.aux.add") { disagree.foreach(i => dm.aux.add(data.keys(i), codesOf(data, i))) }
    auxRemoves += agree.length
    auxAdds += disagree.length
  }

  /** Algorithm 4, as `DeepMapping.delete`. */
  def delete(dm: DeepMapping, ks: Array[Long]): Unit = t.span("core.delete") {
    t.span("core.exist.clear") { ks.foreach(dm.exist.clear) }
    val before = dm.pool.stats.misses
    t.span("core.aux.remove") { ks.foreach(dm.aux.remove) }
    deleteMisses += dm.pool.stats.misses - before
    deleteChunks += 1
    auxRemoves += ks.length
  }
}
