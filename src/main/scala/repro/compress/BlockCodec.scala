package repro.compress

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import java.util.zip.{Deflater, DeflaterOutputStream, Inflater, InflaterInputStream}

/** Block compressor abstraction shared by the auxiliary table and the
  * ABC/HBC baselines. All codecs here are the paper's (§V-A.3): Gzip,
  * Z-Standard (zstd-jni, shipped with Spark), LZMA (org.tukaani xz,
  * shipped with Spark), plus a Noop for the uncompressed AB/HB variants.
  */
sealed trait BlockCodec extends Serializable {
  def name: String
  def compress(bytes: Array[Byte]): Array[Byte]
  def decompress(bytes: Array[Byte]): Array[Byte]
}

object BlockCodec {
  /** Identity codec — AB / HB (no compression). */
  case object Noop extends BlockCodec {
    val name = "noop"
    def compress(b: Array[Byte]): Array[Byte] = b
    def decompress(b: Array[Byte]): Array[Byte] = b
  }

  /** DEFLATE via java.util.zip — the paper's Gzip baseline.
    * `level` follows the paper's §V-A.4 tuning knob. */
  final case class Gzip(level: Int = 6) extends BlockCodec {
    val name = "gzip"
    def compress(b: Array[Byte]): Array[Byte] = {
      val bos = new ByteArrayOutputStream(math.max(64, b.length / 4))
      val d = new Deflater(level)
      val out = new DeflaterOutputStream(bos, d, 1 << 16)
      out.write(b); out.close(); d.end()
      bos.toByteArray
    }
    def decompress(b: Array[Byte]): Array[Byte] = {
      val inf = new Inflater()
      val in = new InflaterInputStream(new ByteArrayInputStream(b), inf, 1 << 16)
      val out = in.readAllBytes()
      in.close(); inf.end()
      out
    }
  }

  /** Z-Standard via zstd-jni. Uncompressed length is carried in a 4-byte
    * big-endian prefix (zstd frames may omit the content size). */
  final case class Zstd(level: Int = 3) extends BlockCodec {
    val name = "zstd"
    def compress(b: Array[Byte]): Array[Byte] = {
      val c = com.github.luben.zstd.Zstd.compress(b, level)
      val out = new Array[Byte](c.length + 4)
      out(0) = (b.length >>> 24).toByte; out(1) = (b.length >>> 16).toByte
      out(2) = (b.length >>> 8).toByte; out(3) = b.length.toByte
      System.arraycopy(c, 0, out, 4, c.length)
      out
    }
    def decompress(b: Array[Byte]): Array[Byte] = {
      val n = ((b(0) & 0xff) << 24) | ((b(1) & 0xff) << 16) | ((b(2) & 0xff) << 8) | (b(3) & 0xff)
      val src = java.util.Arrays.copyOfRange(b, 4, b.length)
      com.github.luben.zstd.Zstd.decompress(src, n)
    }
  }

  /** LZMA2 via the xz library (the paper's LZMA). Preset 6 by default. */
  final case class Lzma(preset: Int = 6) extends BlockCodec {
    val name = "lzma"
    def compress(b: Array[Byte]): Array[Byte] = {
      val bos = new ByteArrayOutputStream(math.max(64, b.length / 4))
      val opts = new org.tukaani.xz.LZMA2Options(preset)
      val out = new org.tukaani.xz.XZOutputStream(bos, opts)
      out.write(b); out.close()
      bos.toByteArray
    }
    def decompress(b: Array[Byte]): Array[Byte] = {
      val in = new org.tukaani.xz.XZInputStream(new ByteArrayInputStream(b))
      val out = in.readAllBytes()
      in.close()
      out
    }
  }
}
