package repro.store

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.PropHelpers
import repro.compress.BlockCodec

/** Array/hash representations: lookup correctness across codecs,
  * partitioning, pool behaviour under tight budgets. */
class StoreSpec extends AnyFunSuite with PropHelpers {

  private def mkData(n: Int, nCols: Int, seed: Long = 1, keyStride: Int = 3): KvData = {
    val rng = new java.util.Random(seed)
    // Non-contiguous keys so absent keys exist inside the range.
    val keys = Array.tabulate(n)(i => i.toLong * keyStride + 1)
    val cols = Array.fill(nCols)(Array.fill(n)(rng.nextInt(50)))
    KvData(keys, cols)
  }

  private def expectRow(d: KvData, k: Long): Array[Int] = {
    val i = d.keys.indexOf(k)
    if (i < 0) null else d.cols.map(_(i))
  }

  private val allCodecVariants: Seq[(String, KvData => KeyValueStore)] = Seq(
    ("AB", (d: KvData) => ArrayStore.build("t", d, BlockCodec.Noop, 1 << 12, 1 << 20)),
    ("ABC-D", (d: KvData) => ArrayStore.build("t", d, BlockCodec.Noop, 1 << 12, 1 << 20, bitPacked = true)),
    ("ABC-G", (d: KvData) => ArrayStore.build("t", d, BlockCodec.Gzip(), 1 << 12, 1 << 20)),
    ("ABC-Z", (d: KvData) => ArrayStore.build("t", d, BlockCodec.Zstd(), 1 << 12, 1 << 20)),
    ("ABC-L", (d: KvData) => ArrayStore.build("t", d, BlockCodec.Lzma(), 1 << 12, 1 << 20)),
    ("HB", (d: KvData) => HashStore.build("t", d, BlockCodec.Noop, 1 << 12, 1 << 20)),
    ("HBC-Z", (d: KvData) => HashStore.build("t", d, BlockCodec.Zstd(), 1 << 12, 1 << 20)),
    ("HBC-L", (d: KvData) => HashStore.build("t", d, BlockCodec.Lzma(), 1 << 12, 1 << 20)),
  )

  allCodecVariants.foreach { case (name, mk) =>
    test(s"$name: looks up every present key correctly") {
      val d = mkData(500, 3)
      val s = mk(d)
      try {
        val res = s.lookup(d.keys)
        d.keys.indices.foreach { i =>
          assert(res(i) != null, s"key ${d.keys(i)} missing")
          assert(res(i).sameElements(d.cols.map(_(i))))
        }
      } finally s.close()
    }

    test(s"$name: absent keys return null") {
      val d = mkData(200, 2)
      val s = mk(d)
      try {
        val absent = Array(0L, 2L, 599L, 1_000_000L)
        assert(s.lookup(absent).forall(_ == null))
      } finally s.close()
    }

    test(s"$name: mixed present/absent batch preserves positions") {
      val d = mkData(100, 2)
      val s = mk(d)
      try {
        val q = Array(d.keys(5), 2L, d.keys(99), 0L, d.keys(0))
        val r = s.lookup(q)
        assert(r(0).sameElements(expectRow(d, q(0))))
        assert(r(1) == null && r(3) == null)
        assert(r(2).sameElements(expectRow(d, q(2))))
        assert(r(4).sameElements(expectRow(d, q(4))))
      } finally s.close()
    }
  }

  test("ArrayStore: correct across partition boundaries (tiny partitions)") {
    val d = mkData(300, 2)
    val s = ArrayStore.build("t", d, BlockCodec.Zstd(), partitionBytes = 64, poolBudget = 1 << 20)
    try {
      val res = s.lookup(d.keys)
      d.keys.indices.foreach(i => assert(res(i).sameElements(d.cols.map(_(i)))))
    } finally s.close()
  }

  test("ArrayStore: unsorted input is sorted at build") {
    val keys = Array(50L, 10L, 30L, 20L, 40L)
    val cols = Array(Array(5, 1, 3, 2, 4))
    val s = ArrayStore.build("t", KvData(keys, cols), BlockCodec.Noop, 1 << 12, 1 << 20)
    try {
      val r = s.lookup(Array(10L, 20L, 30L, 40L, 50L))
      assert(r.map(_(0)).sameElements(Array(1, 2, 3, 4, 5)))
    } finally s.close()
  }

  test("ArrayStore: works under a zero-cache pool budget") {
    val d = mkData(200, 2)
    val s = ArrayStore.build("t", d, BlockCodec.Zstd(), 1 << 10, poolBudget = 0)
    try {
      val res = s.lookup(d.keys)
      d.keys.indices.foreach(i => assert(res(i).sameElements(d.cols.map(_(i)))))
      assert(s.pool.stats.misses > 0 && s.pool.stats.hits == 0)
    } finally s.close()
  }

  Seq(false -> "AB", true -> "ABC-D").foreach { case (bitPacked, name) =>
    test(s"$name: a shuffled batch decodes each block at most once under a zero-cache pool") {
      val d = mkData(600, 2)
      val s = ArrayStore.build("t", d, BlockCodec.Zstd(), 256, poolBudget = 0, bitPacked = bitPacked)
      try {
        val order = scala.util.Random.javaRandomToRandom(new java.util.Random(9)).shuffle(d.keys.indices.toVector)
        val res = s.lookup(order.map(d.keys(_)).toArray)
        order.indices.foreach(i => assert(res(i).sameElements(d.row(order(i)))))
        val blocks = s.blocks.blockCount
        assert(blocks > 5 && s.pool.stats.misses <= blocks, s"${s.pool.stats.misses} misses for $blocks blocks")
      } finally s.close()
    }
  }

  test("HashStore: works under a tight pool budget with many partitions") {
    val d = mkData(1000, 2)
    val s = HashStore.build("t", d, BlockCodec.Zstd(), partitionBytes = 2048, poolBudget = 32 * 1024)
    try {
      val res = s.lookup(d.keys)
      d.keys.indices.foreach(i => assert(res(i).sameElements(d.cols.map(_(i)))))
      assert(s.pool.stats.evictions > 0, "expected evictions under tight budget")
    } finally s.close()
  }

  test("compressed array stores are smaller than AB on repetitive data") {
    val n = 20000
    val keys = Array.tabulate(n)(_.toLong + 1)
    val cols = Array(Array.tabulate(n)(i => i % 3), Array.tabulate(n)(i => i % 2))
    val d = KvData(keys, cols)
    val ab = ArrayStore.build("t", d, BlockCodec.Noop, 1 << 16, 1 << 20)
    val abz = ArrayStore.build("t", d, BlockCodec.Zstd(), 1 << 16, 1 << 20)
    val abl = ArrayStore.build("t", d, BlockCodec.Lzma(), 1 << 16, 1 << 20)
    val abd = ArrayStore.build("t", d, BlockCodec.Noop, 1 << 16, 1 << 20, bitPacked = true)
    try {
      assert(abz.storageBytes < ab.storageBytes / 2)
      assert(abl.storageBytes < ab.storageBytes / 2)
      assert(abd.storageBytes < ab.storageBytes, "bitpacking should shrink values")
    } finally { ab.close(); abz.close(); abl.close(); abd.close() }
  }

  test("HB storage exceeds AB storage (hash representation overhead)") {
    val d = mkData(5000, 2)
    val ab = ArrayStore.build("t", d, BlockCodec.Noop, 1 << 16, 1 << 20)
    val hb = HashStore.build("t", d, BlockCodec.Noop, 1 << 16, 1 << 20)
    try assert(hb.storageBytes > ab.storageBytes)
    finally { ab.close(); hb.close() }
  }

  test("store names follow the paper's naming") {
    val d = mkData(10, 1)
    val pairs = Seq(
      ArrayStore.build("t", d, BlockCodec.Noop, 1 << 12, 1 << 20) -> "AB",
      ArrayStore.build("t", d, BlockCodec.Noop, 1 << 12, 1 << 20, bitPacked = true) -> "ABC-D",
      ArrayStore.build("t", d, BlockCodec.Gzip(), 1 << 12, 1 << 20) -> "ABC-G",
      ArrayStore.build("t", d, BlockCodec.Zstd(), 1 << 12, 1 << 20) -> "ABC-Z",
      ArrayStore.build("t", d, BlockCodec.Lzma(), 1 << 12, 1 << 20) -> "ABC-L",
      HashStore.build("t", d, BlockCodec.Noop, 1 << 12, 1 << 20) -> "HB",
      HashStore.build("t", d, BlockCodec.Zstd(), 1 << 12, 1 << 20) -> "HBC-Z",
      HashStore.build("t", d, BlockCodec.Lzma(), 1 << 12, 1 << 20) -> "HBC-L",
    )
    pairs.foreach { case (s, n) => assert(s.name == n); s.close() }
  }

  test("KvData.sortedByKey keeps key/column pairing") {
    forAllN(Gen.choose(1, 200), n = 10) { n =>
      val rng = new java.util.Random(n)
      val keys = Array.fill(n)(rng.nextLong().abs % 10000)
      val distinct = keys.distinct
      val d = KvData(distinct, Array(distinct.map(k => (k % 97).toInt)))
      val s = d.sortedByKey
      assert(s.keys.sameElements(distinct.sorted))
      s.keys.indices.foreach(i => assert(s.cols(0)(i) == (s.keys(i) % 97).toInt))
    }
  }

  test("KvData raw size math") {
    val d = mkData(100, 3)
    assert(d.rawRowBytes == 8 + 12)
    assert(d.rawBytes == 100L * 20)
  }

  test("BlockStore write/read round-trips blocks") {
    val blocks = Seq(Array[Byte](1, 2, 3), Array[Byte](), Array[Byte](9))
    val bs = BlockStore.write("test", blocks)
    try {
      assert(bs.blockCount == 3)
      assert(bs.read(0).sameElements(Array[Byte](1, 2, 3)))
      assert(bs.read(1).isEmpty)
      assert(bs.read(2).sameElements(Array[Byte](9)))
      assert(bs.fileBytes == 4)
    } finally bs.delete()
  }
}
