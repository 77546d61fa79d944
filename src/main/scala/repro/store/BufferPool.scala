package repro.store

/** LRU buffer pool with a byte budget — the reproduction's stand-in for a
  * memory-constrained edge device (paper §V-A.2's 4 GB t2-medium with a
  * 3 GB pool). Partitions are loaded from disk, decoded (decompressed /
  * deserialized) by the caller-supplied loader, and cached at their
  * *decoded* size; once the budget is exceeded the least recently used
  * entry is evicted, so a working set larger than the budget pays
  * repeated I/O + decompression exactly as the paper describes.
  *
  * Thread-safe: `get` (load included), `resize` and `clear` hold the
  * pool's monitor, so a missed block is loaded once and the budget holds.
  * A serialized pool carries its budget and stats, not its blocks.
  */
final class BufferPool(private var budget: Long) extends Serializable {
  import BufferPool.Entry

  def budgetBytes: Long = budget

  /** Set the budget. A new budget empties the pool, so the next access
    * starts cold, as on a machine with that much memory; the same budget
    * keeps what the pool holds. */
  def resize(bytes: Long): Unit = synchronized { if (bytes != budget) { budget = bytes; clear() } }

  final class Stats extends Serializable {
    var hits: Long = 0
    var misses: Long = 0
    var evictions: Long = 0
    var loadedBytes: Long = 0
    var loadNanos: Long = 0
    def reset(): Unit = { hits = 0; misses = 0; evictions = 0; loadedBytes = 0; loadNanos = 0 }
  }
  val stats = new Stats

  @transient private lazy val map = new java.util.LinkedHashMap[AnyRef, Entry](64, 0.75f, /*accessOrder=*/ true)
  @transient private var used: Long = 0

  /** Fetch `key`, loading and caching on miss. `charge` is the decoded
    * in-memory footprint used for budget accounting. */
  def get[T <: AnyRef](key: AnyRef)(load: => (T, Long)): T = synchronized {
    val e = map.get(key)
    if (e != null) { stats.hits += 1; return e.value.asInstanceOf[T] }
    stats.misses += 1
    val t0 = System.nanoTime()
    val (v, charge) = load
    stats.loadNanos += System.nanoTime() - t0
    stats.loadedBytes += charge
    // Evict LRU entries until the new value fits.
    while (used + charge > budgetBytes && !map.isEmpty) {
      val it = map.entrySet().iterator()
      val eldest = it.next()
      used -= eldest.getValue.charge
      it.remove()
      stats.evictions += 1
    }
    if (charge <= budgetBytes) { map.put(key, Entry(v, charge)); used += charge }
    v
  }

  def usedBytes: Long = synchronized(used)
  def clear(): Unit = synchronized { map.clear(); used = 0 }
}

object BufferPool {
  private final case class Entry(value: AnyRef, charge: Long)
}
