package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.compress.BlockCodec
import repro.store.{ArrayStore, BufferPool, KvData}

/** T_aux: packed lookup, overlay modifications, repack, size accounting. */
class AuxTableSpec extends AnyFunSuite {

  private def mk(n: Int, partitionBytes: Int = 256, codec: BlockCodec = BlockCodec.Zstd()): AuxTable = {
    val keys = Array.tabulate(n)(i => i.toLong * 2) // even keys
    val cols = Array(Array.tabulate(n)(i => i % 5), Array.tabulate(n)(i => i % 3))
    AuxTable.build(keys, cols, codec, partitionBytes, new BufferPool(1 << 20))
  }

  test("build + get returns stored pairs") {
    val t = mk(100)
    try {
      (0 until 100).foreach { i =>
        val v = t.get(i.toLong * 2)
        assert(v != null && v.sameElements(Array(i % 5, i % 3)))
      }
    } finally t.close()
  }

  test("get on absent key returns null; contains agrees") {
    val t = mk(50)
    try {
      assert(t.get(1L) == null) // odd key
      assert(!t.contains(1L))
      assert(t.contains(0L))
    } finally t.close()
  }

  test("build sorts unsorted input") {
    val keys = Array(30L, 10L, 20L)
    val cols = Array(Array(3, 1, 2))
    val t = AuxTable.build(keys, cols, BlockCodec.Zstd(), 1024, new BufferPool(1 << 20))
    try {
      assert(t.get(10L)(0) == 1)
      assert(t.get(20L)(0) == 2)
      assert(t.get(30L)(0) == 3)
    } finally t.close()
  }

  test("works across many small partitions") {
    val t = mk(500, partitionBytes = 64)
    try {
      assert(t.get(998L) != null)
      assert(t.get(0L) != null)
      assert(t.get(997L) == null)
    } finally t.close()
  }

  test("empty table behaves") {
    val t = AuxTable.build(Array.empty[Long], Array(Array.empty[Int]), BlockCodec.Zstd(), 1024, new BufferPool(1024))
    try {
      assert(t.get(5L) == null)
      assert(t.entryCount == 0)
      assert(t.byteSize >= 0)
    } finally t.close()
  }

  test("add overlays a new entry") {
    val t = mk(10)
    try {
      t.add(101L, Array(4, 2))
      assert(t.get(101L).sameElements(Array(4, 2)))
      assert(t.overlaySize == 1)
    } finally t.close()
  }

  test("add overwrites an existing base entry") {
    val t = mk(10)
    try {
      t.add(0L, Array(9, 9))
      assert(t.get(0L).sameElements(Array(9, 9)))
    } finally t.close()
  }

  test("remove of a base entry tombstones it") {
    val t = mk(10)
    try {
      t.remove(4L)
      assert(t.get(4L) == null)
      assert(!t.contains(4L))
      assert(t.entryCount == 9)
    } finally t.close()
  }

  test("remove of an overlay-only entry deletes the overlay") {
    val t = mk(10)
    try {
      t.add(99L, Array(1, 1))
      t.remove(99L)
      assert(t.get(99L) == null)
      assert(t.overlaySize == 0)
    } finally t.close()
  }

  test("remove of an absent key is a no-op") {
    val t = mk(10)
    try {
      t.remove(777L)
      assert(t.entryCount == 10)
    } finally t.close()
  }

  test("entries returns live sorted pairs including overlay") {
    val t = mk(5) // keys 0,2,4,6,8
    try {
      t.remove(2L)
      t.add(3L, Array(7, 7))
      val (ks, cs) = t.entries()
      assert(ks.toSeq == Seq(0L, 3L, 4L, 6L, 8L))
      val i3 = ks.indexOf(3L)
      assert(cs(0)(i3) == 7 && cs(1)(i3) == 7)
    } finally t.close()
  }

  test("repack folds overlay into base and clears it") {
    val t = mk(100)
    try {
      t.add(1001L, Array(1, 2))
      t.remove(0L)
      val before = t.entryCount
      t.repack()
      assert(t.overlaySize == 0)
      assert(t.entryCount == before)
      assert(t.get(1001L).sameElements(Array(1, 2)))
      assert(t.get(0L) == null)
    } finally t.close()
  }

  test("byteSize grows with overlay and shrinks after repack of deletions") {
    val t = mk(200)
    try {
      val base = t.byteSize
      t.add(9999L, Array(1, 1))
      assert(t.byteSize > base, "overlay must be charged")
      (0 until 200).foreach(i => t.remove(i.toLong * 2))
      t.repack()
      assert(t.byteSize < base, s"after deleting everything: ${t.byteSize} vs $base")
    } finally t.close()
  }

  test("lzma-coded table round-trips") {
    val t = mk(100, codec = BlockCodec.Lzma(3))
    try {
      assert(t.get(100L) != null)
    } finally t.close()
  }

  test("entryCount counts base minus tombstones plus overlay adds") {
    val t = mk(10)
    try {
      assert(t.entryCount == 10)
      t.add(100L, Array(0, 0)) // new
      t.add(0L, Array(1, 1)) // overwrite, not a count change
      t.remove(2L) // tombstone
      assert(t.entryCount == 10)
    } finally t.close()
  }

  test("ArrayStore (AB, ABC-D) and AuxTable answer like one reference map, block edges included") {
    val rng = new scala.util.Random(5)
    val n = 400
    val keys = Array.tabulate(n)(i => i.toLong * 3 + 1) // gaps: absent keys inside the range
    val cols = Array.fill(2)(Array.fill(n)(rng.nextInt(50)))
    val ref = keys.indices.map(i => keys(i) -> cols.map(_(i)).toSeq).toMap
    val perm = rng.shuffle(keys.indices.toVector).toArray // built from unsorted input
    val data = KvData(perm.map(keys(_)), cols.map(col => perm.map(col(_))))
    val partitionBytes = 160 // 10 rows of 8 + 2 * 4 bytes per block
    val edges = (0 until n by 10).flatMap(i => Seq(keys(i), keys(i + 9)))
    val probes = rng.shuffle(edges.flatMap(k => Seq(k - 1, k, k + 1)) ++ Seq(-5L, 0L, keys.last + 3, Long.MaxValue)).toArray
    val ab = ArrayStore.build("t", data, BlockCodec.Zstd(), partitionBytes, 0)
    val abd = ArrayStore.build("t", data, BlockCodec.Noop, partitionBytes, 0, bitPacked = true)
    val aux = AuxTable.build(data.keys, data.cols, BlockCodec.Zstd(), partitionBytes, new BufferPool(0))
    try {
      assert(ab.blocks.blockCount == n / 10 && aux.store.blockCount == n / 10)
      (0 until n / 10).foreach(b => assert(ab.blocks.store.read(b).sameElements(aux.store.read(b)), s"block $b bytes"))
      Seq("AB" -> ab.lookup(probes), "ABC-D" -> abd.lookup(probes), "T_aux" -> aux.get(probes),
        "T_aux single-key" -> probes.map(aux.get)).foreach { case (name, res) =>
        probes.indices.foreach(i => assert(Option(res(i)).map(_.toSeq) == ref.get(probes(i)), s"$name: key ${probes(i)}"))
      }
    } finally { ab.close(); abd.close(); aux.close() }
  }
}
