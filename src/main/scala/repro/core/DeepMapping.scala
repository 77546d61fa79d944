package repro.core

import org.apache.spark.sql.DataFrame

import repro.compress.BlockCodec
import repro.nn.{MultiTaskNet, NetArch, TaskSpec, Trainer}
import repro.store.{BufferPool, KeyValueStore, KvData, SortedBlocks}

/** Build/runtime configuration for a DeepMapping hybrid structure. */
final case class DmConfig(
    codec: BlockCodec = BlockCodec.Zstd(3),
    /** Uncompressed partition size for T_aux (paper tunes 128 KB–8 MB). */
    partitionBytes: Int = 512 * 1024,
    /** Buffer-pool budget for T_aux partitions. */
    poolBudget: Long = 64L * 1024 * 1024,
    train: Trainer.Config = Trainer.Config(),
    /** None -> default heuristic architecture; Some -> e.g. MHAS result. */
    arch: Option[NetArch] = None,
    /** Retrain once T_aux exceeds this many bytes (§IV-D's threshold). */
    retrainThresholdBytes: Long = Long.MaxValue,
    seed: Long = 7L,
)

/** Storage breakdown of the hybrid structure — the Eq. 1 numerator and
  * Fig. 6's bars. */
final case class DmStorage(modelBytes: Long, auxBytes: Long, existBytes: Long, decodeBytes: Long) {
  def total: Long = modelBytes + auxBytes + existBytes + decodeBytes
}

/** The DeepMapping hybrid data representation
  * `M̂ = ⟨M, T_aux, V_exist, f_decode⟩` (paper §IV).
  *
  * Implements Algorithm 1 (batch lookup), Algorithm 3 (insert),
  * Algorithm 4 (delete), Algorithm 5 (update), and the §IV-D lazy
  * retrain trigger. Also a [[KeyValueStore]], so benchmarks drive it
  * through the same interface as the baselines.
  */
final class DeepMapping(
    @volatile var model: MultiTaskNet,
    @volatile var enc: KeyEncoder,
    val dicts: ValueDicts,
    @volatile var aux: AuxTable,
    val exist: ExistenceBitmap,
    val cfg: DmConfig,
) extends KeyValueStore {
  import DeepMapping.requireRows

  override def name: String = s"DM-${cfg.codec.name.head.toUpper}"
  override def pool: BufferPool = aux.pool

  def storage: DmStorage =
    DmStorage(model.byteSize, aux.byteSize, exist.byteSize, dicts.byteSize)

  override def storageBytes: Long = storage.total

  /** Algorithm 1 — (parallel) batch key lookup. Returns per query key the
    * value codes, or null when V_exist says the key does not exist. */
  override def lookup(keys: Array[Long]): Array[Array[Int]] =
    DeepMapping.lookup(model, enc, exist, keys, aux.get)

  /** Lookup with f_decode applied — original value strings. */
  def lookupValues(keys: Array[Long]): Array[Array[String]] =
    lookup(keys).map(codes => if (codes == null) null else dicts.decode(codes))

  /** Algorithm 3 — insert. The model is evaluated on the new tuples; only
    * pairs it cannot generalise to are materialised in T_aux. */
  def insert(data: KvData): Unit = {
    requireRows(data, dicts)
    data.keys.foreach(k => require(!exist.get(k), s"insert of existing key $k: use update"))
    data.keys.foreach(exist.set)
    Trainer.mispredicted(model, data.keys, data.cols, enc.encode).foreach(i => aux.add(data.keys(i), data.row(i)))
  }

  /** Algorithm 4 — delete: clear the existence bits, drop any aux entries. */
  def delete(keys: Array[Long]): Unit = {
    keys.foreach(exist.clear)
    aux.remove(keys)
  }

  /** Algorithm 5 — update (substitution) of existing keys. */
  def update(data: KvData): Unit = {
    requireRows(data, dicts)
    data.keys.foreach(k => require(exist.get(k), s"update of non-existing key $k"))
    val miss = new java.util.BitSet(data.rows)
    Trainer.mispredicted(model, data.keys, data.cols, enc.encode).foreach(miss.set)
    aux.remove(data.keys.indices.filterNot(miss.get).map(data.keys(_)).toArray) // the model now agrees
    miss.stream.forEach(i => aux.add(data.keys(i), data.row(i)))
  }

  /** §IV-D trigger: retrain + reconstruct when T_aux outgrew the
    * threshold. `currentData` is the live logical content of the mapping.
    * Returns true if a retrain happened. */
  def maybeRetrain(currentData: => KvData): Boolean = {
    if (aux.byteSize <= cfg.retrainThresholdBytes) false
    else { retrain(currentData); true }
  }

  /** Unconditional retrain/reconstruct on the given logical content. The
    * key encoder is rebuilt with the model: inserts may have widened the
    * key domain. */
  def retrain(currentData: KvData): Unit = {
    val rebuilt = DeepMapping.build(currentData, dicts, cfg)
    val oldAux = aux
    model = rebuilt.model
    enc = rebuilt.enc
    aux = rebuilt.aux
    oldAux.close()
  }

  /** Fraction of live rows the model alone predicts correctly (Fig. 6's
    * "model memorised X% of tuples"). */
  def modelAccuracy(data: KvData): Double =
    (data.rows - Trainer.mispredicted(model, data.keys, data.cols, enc.encode).length).toDouble / math.max(1, data.rows)

  /** Immutable, serializable snapshot for executor-side lookup
    * (see [[SparkLookup]]). */
  def snapshot(): DmSnapshot = {
    val (ks, cs) = aux.entries()
    DmSnapshot(model, enc, dicts, cfg.codec.compress(SortedBlocks.encodeBlock(ks, cs, 0, ks.length, bitPacked = false)),
      cfg.codec, exist.copy)
  }

  override def close(): Unit = aux.close()
}

object DeepMapping {

  /** Default architecture when MHAS is not run: one shared trunk layer
    * scaled to the total output cardinality, one private layer per task
    * scaled to its head cardinality. Kept deliberately compact — the
    * hybrid design (§IV-B) prefers a small imperfect model plus T_aux
    * over a large model chasing the last-mile accuracy. */
  def defaultArch(enc: KeyEncoder, dicts: ValueDicts): NetArch = {
    val sumCards = dicts.cols.map(_.size).sum
    val shared = math.min(160, math.max(64, 3 * sumCards))
    val tasks = dicts.cols.map { c =>
      TaskSpec(c.name, math.max(2, c.size), Seq(math.min(64, math.max(12, 2 * c.size))))
    }
    NetArch(Seq(shared), tasks.toIndexedSeq)
  }

  /** Build the hybrid structure from encoded data (§IV-B):
    * 1. train M on all key→codes pairs;
    * 2. run every key through M; mispredicted pairs go to T_aux;
    * 3. V_exist holds every existing key. */
  def build(data: KvData, dicts: ValueDicts, cfg: DmConfig): DeepMapping = {
    requireRows(data, dicts)
    val maxKey = if (data.rows == 0) 0L else data.keys.max
    val enc = KeyEncoder(maxKey)
    val arch = cfg.arch.getOrElse(defaultArch(enc, dicts))
    require(arch.tasks.length == dicts.nCols && arch.tasks.zip(dicts.cols).forall { case (t, c) => t.nClasses >= c.size },
      s"heads ${arch.describe} do not cover the dictionaries ${dicts.cols.map(c => s"${c.name}: ${c.size}").mkString(", ")}")
    val model = MultiTaskNet(enc.featDim, arch, cfg.seed)
    Trainer.fit(model, data.keys, data.cols, enc.encode, cfg.train)
    val miss = Trainer.mispredicted(model, data.keys, data.cols, enc.encode)
    val aux = AuxTable.build(miss.map(data.keys(_)), data.cols.map(col => miss.map(col(_))),
      cfg.codec, cfg.partitionBytes, new BufferPool(cfg.poolBudget))
    val exist = ExistenceBitmap.fromKeys(data.keys)
    new DeepMapping(model, enc, dicts, aux, exist, cfg)
  }

  /** Reject, before any state changes, a batch whose column count differs
    * from the dictionaries', the first negative key (the key encoder covers
    * keys 0..maxKey only), any key a batch repeats (one key has one value),
    * and the first code outside its column's dictionary (f_decode could
    * not decode it, and training would read past the head's logits). */
  private def requireRows(data: KvData, dicts: ValueDicts): Unit = {
    require(data.nCols == dicts.nCols,
      s"${data.nCols} value columns, expected ${dicts.nCols} (${dicts.cols.map(_.name).mkString(", ")})")
    data.keys.find(_ < 0).foreach(k => throw new IllegalArgumentException(s"negative key $k: keys must be >= 0"))
    val sorted = data.keys.clone()
    java.util.Arrays.sort(sorted)
    (1 until sorted.length).find(i => sorted(i) == sorted(i - 1))
      .foreach(i => throw new IllegalArgumentException(s"duplicate key ${sorted(i)}: a batch holds each key once"))
    for (c <- 0 until data.nCols; i <- data.keys.indices if data.cols(c)(i) < 0 || data.cols(c)(i) >= dicts.cols(c).size)
      throw new IllegalArgumentException(
        s"code ${data.cols(c)(i)} of key ${data.keys(i)} outside column ${dicts.cols(c).name}'s dictionary [0, ${dicts.cols(c).size})")
  }

  /** Algorithm 1 over any T_aux: V_exist admits the existing keys (the
    * rest stay NULL and are never encoded), M predicts the admitted keys in
    * one batch, and `auxGet` overrides the rows T_aux holds. */
  private[core] def lookup(model: MultiTaskNet, enc: KeyEncoder, exist: ExistenceBitmap, keys: Array[Long],
                           auxGet: Array[Long] => Array[Array[Int]]): Array[Array[Int]] = {
    val live = Array.range(0, keys.length).filter(i => exist.get(keys(i)))
    val liveKeys = live.map(keys(_))
    val preds = Trainer.predictAll(model, liveKeys, enc.encode)
    val corrected = auxGet(liveKeys)
    val out = new Array[Array[Int]](keys.length)
    var j = 0
    while (j < live.length) {
      out(live(j)) = if (corrected(j) != null) corrected(j) else preds.map(_(j))
      j += 1
    }
    out
  }

  /** DataFrame-first build: dictionaries via Spark aggregations, then the
    * driver-side build above. */
  def buildFromDf(df: DataFrame, keyCol: String, valueCols: Seq[String], cfg: DmConfig): DeepMapping = {
    val dicts = Encoding.buildDicts(df, valueCols)
    val data = Encoding.toKvData(df, keyCol, valueCols, dicts)
    build(data, dicts, cfg)
  }
}

/** Serializable snapshot of a DeepMapping for distributed lookup: the
  * model, T_aux as one compressed block in the [[SortedBlocks]] format,
  * and a copy of V_exist. The model is never trained after its build
  * (retrain swaps in a new one), so sharing it keeps the snapshot fixed.
  * Each JVM decodes the block once, on first lookup. */
final case class DmSnapshot(
    model: MultiTaskNet,
    enc: KeyEncoder,
    dicts: ValueDicts,
    auxBlock: Array[Byte],
    codec: BlockCodec,
    exist: ExistenceBitmap,
) extends Serializable {

  @transient private lazy val aux: SortedBlocks.Block = SortedBlocks.decode(codec.decompress(auxBlock), bitPacked = false)

  /** Algorithm 1 against the snapshot (columnar, batched), f_decode applied. */
  def lookupBatch(keys: Array[Long]): Array[Array[String]] =
    DeepMapping.lookup(model, enc, exist, keys, _.map(aux.row))
      .map(codes => if (codes == null) null else dicts.decode(codes))
}
