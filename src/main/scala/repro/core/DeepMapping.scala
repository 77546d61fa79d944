package repro.core

import org.apache.spark.sql.DataFrame

import repro.compress.BlockCodec
import repro.nn.{MultiTaskNet, NetArch, TaskSpec, Trainer}
import repro.store.{BufferPool, KeyValueStore, KvData}

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
  *
  * Threads: M, its key encoder and T_aux are one value that `retrain`
  * replaces whole. Lookups, `storage` and `snapshot` hold a read lock;
  * the modifications, `repack` and `close` the write lock. `retrain`
  * trains unlocked, swaps under the write lock (failing if a modification
  * landed meanwhile), then deletes the old T_aux file. `model`, `enc`,
  * `aux` and `pool` are unlocked views for single-threaded callers.
  */
final class DeepMapping(
    model0: MultiTaskNet,
    enc0: KeyEncoder,
    val dicts: ValueDicts,
    aux0: AuxTable,
    val exist: ExistenceBitmap,
    val cfg: DmConfig,
) extends KeyValueStore with Serializable {
  import DeepMapping.{State, requireRows}

  @volatile private var state = State(model0, enc0, aux0)
  private val lock = new java.util.concurrent.locks.ReentrantReadWriteLock()
  private var version = 0L // bumped by each modification, checked by retrain's swap

  private def reading[A](f: => A): A = { lock.readLock.lock(); try f finally lock.readLock.unlock() }
  private def writing[A](f: => A): A = { lock.writeLock.lock(); try f finally lock.writeLock.unlock() }

  def model: MultiTaskNet = state.model
  def enc: KeyEncoder = state.enc
  def aux: AuxTable = state.aux

  override def name: String = s"DM-${cfg.codec.name.head.toUpper}"
  override def pool: BufferPool = state.aux.pool

  def storage: DmStorage = reading(DmStorage(model.byteSize, aux.byteSize, exist.byteSize, dicts.byteSize))

  override def storageBytes: Long = storage.total

  /** Algorithm 1 — (parallel) batch key lookup. Returns per query key the
    * value codes, or null when V_exist says the key does not exist: V_exist
    * admits the existing keys (the rest are never encoded), M predicts the
    * admitted keys in one batch, and T_aux overrides the rows it holds. */
  override def lookup(keys: Array[Long]): Array[Array[Int]] = reading {
    val s = state
    val live = Array.range(0, keys.length).filter(i => exist.get(keys(i)))
    val liveKeys = live.map(keys(_))
    val preds = Trainer.predictAll(s.model, liveKeys, s.enc.encode)
    val corrected = s.aux.get(liveKeys)
    val out = new Array[Array[Int]](keys.length)
    var j = 0
    while (j < live.length) {
      out(live(j)) = if (corrected(j) != null) corrected(j) else preds.map(_(j))
      j += 1
    }
    out
  }

  /** Lookup with f_decode applied — original value strings. */
  def lookupBatch(keys: Array[Long]): Array[Array[String]] =
    lookup(keys).map(codes => if (codes == null) null else dicts.decode(codes))

  /** Algorithm 3 — insert. The model is evaluated on the new tuples; only
    * pairs it cannot generalise to are materialised in T_aux. */
  def insert(data: KvData): Unit = writing {
    requireRows(data, dicts)
    data.keys.foreach(k => require(!exist.get(k), s"insert of existing key $k: use update"))
    version += 1
    data.keys.foreach(exist.set)
    Trainer.mispredicted(model, data.keys, data.cols, enc.encode).foreach(i => aux.add(data.keys(i), data.row(i)))
  }

  /** Algorithm 4 — delete: clear the existence bits, drop any aux entries. */
  def delete(keys: Array[Long]): Unit = writing {
    version += 1
    keys.foreach(exist.clear)
    aux.remove(keys)
  }

  /** Algorithm 5 — update (substitution) of existing keys. */
  def update(data: KvData): Unit = writing {
    requireRows(data, dicts)
    data.keys.foreach(k => require(exist.get(k), s"update of non-existing key $k"))
    version += 1
    val miss = new java.util.BitSet(data.rows)
    Trainer.mispredicted(model, data.keys, data.cols, enc.encode).foreach(miss.set)
    aux.remove(data.keys.indices.filterNot(miss.get).map(data.keys(_)).toArray) // the model now agrees
    miss.stream.forEach(i => aux.add(data.keys(i), data.row(i)))
  }

  /** Fold T_aux's overlay into fresh compressed partitions. */
  def repack(): Unit = writing(aux.repack())

  /** §IV-D trigger: retrain + reconstruct when T_aux outgrew the
    * threshold. `currentData` is the live logical content of the mapping.
    * Returns true if a retrain happened. */
  def maybeRetrain(currentData: => KvData): Boolean =
    reading(aux.byteSize) > cfg.retrainThresholdBytes && { retrain(currentData); true }

  /** Unconditional retrain/reconstruct on the given logical content, whose
    * key set must be V_exist's. The key encoder is rebuilt with the model:
    * inserts may have widened the key domain. */
  def retrain(currentData: KvData): Unit = {
    val seen = reading {
      requireRows(currentData, dicts)
      currentData.keys.find(k => !exist.get(k))
        .foreach(k => throw new IllegalArgumentException(s"retrain data holds key $k, which does not exist"))
      require(currentData.rows == exist.cardinality,
        s"retrain data holds ${currentData.rows} keys, but ${exist.cardinality} exist: pass every live row")
      version
    }
    val rebuilt = DeepMapping.build(currentData, dicts, cfg)
    val old = writing {
      if (version != seen) { rebuilt.close(); throw new java.util.ConcurrentModificationException("modified during retrain") }
      val o = state; state = State(rebuilt.model, rebuilt.enc, rebuilt.aux); o
    }
    old.aux.close()
  }

  /** Fraction of live rows the model alone predicts correctly (Fig. 6's
    * "model memorised X% of tuples"). */
  def modelAccuracy(data: KvData): Double = reading {
    (data.rows - Trainer.mispredicted(model, data.keys, data.cols, enc.encode).length).toDouble / math.max(1, data.rows)
  }

  /** A serializable copy for executor-side lookup (see [[SparkLookup]]):
    * it shares M, the encoder and f_decode, which nothing mutates, and
    * takes a copy of V_exist and T_aux's held copy, so later changes here
    * do not reach it and it reads no file. */
  def snapshot(): DeepMapping = reading(new DeepMapping(model, enc, dicts, aux.held, exist.copy, cfg))

  override def close(): Unit = writing(aux.close())
}

object DeepMapping {

  /** What one lookup reads: M, its key encoder and T_aux, replaced together. */
  private final case class State(model: MultiTaskNet, enc: KeyEncoder, aux: AuxTable)

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

  /** DataFrame-first build: dictionaries via Spark aggregations, then the
    * driver-side build above. */
  def buildFromDf(df: DataFrame, keyCol: String, valueCols: Seq[String], cfg: DmConfig): DeepMapping = {
    val dicts = Encoding.buildDicts(df, valueCols)
    val data = Encoding.toKvData(df, keyCol, valueCols, dicts)
    build(data, dicts, cfg)
  }
}
