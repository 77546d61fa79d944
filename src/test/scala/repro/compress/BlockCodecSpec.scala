package repro.compress

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.PropHelpers

/** Codec substrate: round-trips, compression effectiveness, edge cases. */
class BlockCodecSpec extends AnyFunSuite with PropHelpers {

  private val codecs = Seq(BlockCodec.Noop, BlockCodec.Gzip(), BlockCodec.Zstd(), BlockCodec.Lzma())

  private val byteArrays: Gen[Array[Byte]] =
    Gen.chooseNum(0, 5000).flatMap(n => Gen.containerOfN[Array, Byte](n, Gen.choose(Byte.MinValue, Byte.MaxValue)))

  codecs.foreach { c =>
    test(s"${c.name}: roundtrip on random byte arrays") {
      forAllN(byteArrays, n = 15) { bytes =>
        assert(c.decompress(c.compress(bytes)).sameElements(bytes))
      }
    }

    test(s"${c.name}: roundtrip on empty input") {
      assert(c.decompress(c.compress(Array.emptyByteArray)).isEmpty)
    }

    test(s"${c.name}: roundtrip on single byte") {
      assert(c.decompress(c.compress(Array[Byte](42))).sameElements(Array[Byte](42)))
    }
  }

  Seq(BlockCodec.Gzip(), BlockCodec.Zstd(), BlockCodec.Lzma()).foreach { c =>
    test(s"${c.name}: compresses repetitive data well") {
      val data = Array.fill[Byte](100_000)(7)
      val out = c.compress(data)
      assert(out.length < data.length / 50, s"${c.name} ratio ${out.length.toDouble / data.length}")
    }

    test(s"${c.name}: roundtrip on large pseudo-random data") {
      val rng = new java.util.Random(3)
      val data = new Array[Byte](200_000)
      rng.nextBytes(data)
      assert(c.decompress(c.compress(data)).sameElements(data))
    }
  }

  test("noop leaves bytes untouched") {
    val b = Array[Byte](1, 2, 3)
    assert(BlockCodec.Noop.compress(b) eq b)
  }

  test("zstd level affects output determinism but not correctness") {
    val data = ("abcdef" * 5000).getBytes
    Seq(1, 3, 9).foreach { lvl =>
      val c = BlockCodec.Zstd(lvl)
      assert(c.decompress(c.compress(data)).sameElements(data))
    }
  }

  test("gzip level range works") {
    val data = ("xyz" * 4000).getBytes
    Seq(1, 6, 9).foreach { lvl =>
      val c = BlockCodec.Gzip(lvl)
      assert(c.decompress(c.compress(data)).sameElements(data))
    }
  }

  test("lzma typically beats zstd on sorted structured data") {
    // Sorted deltas — the aux-table-like payload where LZMA shines.
    val bb = java.nio.ByteBuffer.allocate(50_000 * 8)
    (0 until 50_000).foreach(i => bb.putLong(i.toLong * 3))
    val data = bb.array()
    val z = BlockCodec.Zstd(3).compress(data).length
    val l = BlockCodec.Lzma(6).compress(data).length
    assert(l <= z, s"lzma=$l zstd=$z")
  }
}
