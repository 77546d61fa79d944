package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.PropHelpers

/** V_exist: set/clear/get semantics over the whole non-negative key
  * domain, copies, serialization, compression accounting. */
class ExistenceBitmapSpec extends AnyFunSuite with PropHelpers {

  test("empty bitmap has no keys") {
    val bm = ExistenceBitmap.fromKeys(Array.empty)
    (0L until 100L).foreach(k => assert(!bm.get(k)))
    assert(bm.cardinality == 0)
  }

  test("set then get then clear") {
    val bm = ExistenceBitmap.fromKeys(Array.empty)
    bm.set(42)
    assert(bm.get(42))
    assert(!bm.get(41) && !bm.get(43))
    bm.clear(42)
    assert(!bm.get(42))
  }

  test("fromKeys marks exactly the given keys") {
    val keys = Array(1L, 5L, 63L, 64L, 65L, 1000L)
    val bm = ExistenceBitmap.fromKeys(keys)
    keys.foreach(k => assert(bm.get(k)))
    assert(!bm.get(0) && !bm.get(2) && !bm.get(999))
    assert(bm.cardinality == keys.length)
  }

  test("out-of-range get is false, negative keys safe") {
    val bm = ExistenceBitmap.fromKeys(Array(3L, 9L))
    assert(!bm.get(-1))
    assert(!bm.get(Long.MinValue))
    assert(!bm.get(1_000_000))
    bm.clear(-1) // must not throw
    assert(bm.cardinality == 2)
  }

  test("cardinality counts across words") {
    forAllN(Gen.containerOf[Set, Long](Gen.choose(0L, 5000L)), n = 20) { keySet =>
      val keys = keySet.toArray
      if (keys.nonEmpty) {
        val bm = ExistenceBitmap.fromKeys(keys)
        assert(bm.cardinality == keys.length)
      }
    }
  }

  test("byteSize is positive and smaller for sparse bitmaps") {
    val dense = ExistenceBitmap.fromKeys(Array.tabulate(100_000)(i => i.toLong))
    val sparse = ExistenceBitmap.fromKeys(Array(1L))
    assert(dense.byteSize > 0 && sparse.byteSize > 0)
    assert(sparse.byteSize <= ExistenceBitmap.fromKeys(
      Array.tabulate(100_000)(i => i.toLong * 64)).byteSize)
  }

  test("set is idempotent") {
    val bm = ExistenceBitmap.fromKeys(Array.empty)
    bm.set(5); bm.set(5)
    assert(bm.cardinality == 1)
  }

  test("negative set rejected") {
    intercept[IllegalArgumentException](ExistenceBitmap.fromKeys(Array.empty).set(-1))
    intercept[IllegalArgumentException](ExistenceBitmap.fromKeys(Array(4L, -1L)))
  }

  test("a key above 2^38 does not alias a small key") {
    val big = (1L << 38) + 100
    val bm = ExistenceBitmap.fromKeys(Array(5L, big))
    assert(bm.get(5) && bm.get(big))
    assert(!bm.get(100) && !bm.get(big - 1) && !bm.get(big + 1) && !bm.get(1L << 38))
    assert(bm.cardinality == 2)
  }

  test("a key near 10^12 is held in a small bitmap") {
    val k = 1_000_000_000_000L
    val bm = ExistenceBitmap.fromKeys(Array(0L, k))
    assert(bm.get(k) && bm.get(0) && !bm.get(k - 1) && !bm.get(k % (1L << 32)))
    assert(bm.byteSize < 100, s"${bm.byteSize} B for two keys")
    bm.clear(k)
    assert(!bm.get(k) && bm.cardinality == 1)
  }

  test("clearing an absent huge key changes nothing") {
    val bm = ExistenceBitmap.fromKeys(Array(7L, 70L))
    bm.clear(Long.MaxValue)
    bm.clear((1L << 40) + 7)
    assert(bm.get(7) && bm.get(70) && bm.cardinality == 2)
    assert(!bm.get(Long.MaxValue))
  }

  test("copy is independent of the original") {
    val big = (1L << 40) + 3
    val bm = ExistenceBitmap.fromKeys(Array(1L, 2L, big))
    val cp = bm.copy
    bm.clear(1); bm.set(9); bm.clear(big)
    cp.set(11)
    assert(cp.get(1) && cp.get(2) && cp.get(big) && !cp.get(9) && cp.get(11))
    assert(!bm.get(1) && bm.get(2) && !bm.get(big) && bm.get(9) && !bm.get(11))
  }

  test("Java serialization round trip keeps every key") {
    val keys = Array(0L, 63L, 64L, 70_000L, (1L << 38) + 100, 1_000_000_000_000L)
    val bm = ExistenceBitmap.fromKeys(keys)
    val bos = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bos)
    oos.writeObject(bm); oos.close()
    val ois = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bos.toByteArray))
    val back = try ois.readObject().asInstanceOf[ExistenceBitmap] finally ois.close()
    keys.foreach(k => assert(back.get(k), s"key $k"))
    assert(!back.get(100) && !back.get(65) && back.cardinality == keys.length)
    back.set(5)
    assert(back.get(5) && !bm.get(5))
  }
}
