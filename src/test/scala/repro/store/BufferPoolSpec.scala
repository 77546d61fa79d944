package repro.store

import org.scalatest.funsuite.AnyFunSuite

/** LRU pool: caching, eviction order, byte-budget accounting, stats. */
class BufferPoolSpec extends AnyFunSuite {

  test("get caches: second access does not reload") {
    val pool = new BufferPool(1000)
    var loads = 0
    def load(): (String, Long) = { loads += 1; ("v", 10L) }
    assert(pool.get("a")(load()) == "v")
    assert(pool.get("a")(load()) == "v")
    assert(loads == 1)
    assert(pool.stats.hits == 1 && pool.stats.misses == 1)
  }

  test("eviction happens when budget exceeded, LRU first") {
    val pool = new BufferPool(100)
    var reloadsA = 0
    pool.get("a") { reloadsA += 1; ("a", 60L) }
    pool.get("b")(("b", 60L)) // evicts a (60+60 > 100)
    assert(pool.stats.evictions == 1)
    pool.get("a") { reloadsA += 1; ("a", 60L) } // a was evicted -> reload
    assert(reloadsA == 2)
  }

  test("recently used entry survives eviction") {
    val pool = new BufferPool(100)
    var reloadsA = 0
    pool.get("a") { reloadsA += 1; ("a", 40L) }
    pool.get("b")(("b", 40L))
    pool.get("a") { reloadsA += 1; ("a", 40L) } // touch a -> b becomes LRU
    pool.get("c")(("c", 40L)) // evicts b, not a
    pool.get("a") { reloadsA += 1; ("a", 40L) }
    assert(reloadsA == 1, "a should never have been reloaded")
  }

  test("oversized value is returned but not cached") {
    val pool = new BufferPool(50)
    var loads = 0
    def load(): (String, Long) = { loads += 1; ("big", 200L) }
    assert(pool.get("x")(load()) == "big")
    assert(pool.get("x")(load()) == "big")
    assert(loads == 2)
    assert(pool.usedBytes == 0)
  }

  test("usedBytes tracks charges") {
    val pool = new BufferPool(1000)
    pool.get("a")(("a", 100L))
    pool.get("b")(("b", 200L))
    assert(pool.usedBytes == 300)
    pool.clear()
    assert(pool.usedBytes == 0)
  }

  test("stats loadedBytes and loadNanos accumulate") {
    val pool = new BufferPool(1000)
    pool.get("a")(("a", 100L))
    pool.get("b")(("b", 50L))
    assert(pool.stats.loadedBytes == 150)
    pool.stats.reset()
    assert(pool.stats.loadedBytes == 0 && pool.stats.hits == 0)
  }

  test("budget zero caches nothing but still serves") {
    val pool = new BufferPool(0)
    var loads = 0
    (1 to 3).foreach(_ => pool.get("k") { loads += 1; ("v", 10L) })
    assert(loads == 3)
  }

  test("resize to a new budget empties the pool and enforces that budget") {
    val pool = new BufferPool(1000)
    pool.get("a")(("a", 100L))
    pool.resize(150)
    assert(pool.budgetBytes == 150 && pool.usedBytes == 0)
    var loads = 0
    pool.get("a") { loads += 1; ("a", 100L) }
    assert(loads == 1, "a new budget starts cold")
    pool.get("b")(("b", 100L)) // 200 > 150: evicts a
    assert(pool.usedBytes == 100 && pool.stats.evictions == 1)
  }

  test("resize to the same budget keeps the entries") {
    val pool = new BufferPool(1000)
    pool.get("a")(("a", 100L))
    pool.resize(1000)
    var loads = 0
    pool.get("a") { loads += 1; ("a", 100L) }
    assert(loads == 0 && pool.usedBytes == 100)
  }
}
