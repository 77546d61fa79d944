package repro.store

import java.io.RandomAccessFile
import java.nio.file.{Files, Path, Paths}

/** One immutable on-disk file of variable-length blocks with an in-memory
  * offset index — the substrate both baselines and the DeepMapping
  * auxiliary table use for "partitions stored on disk, loaded on demand".
  * A [[held]] copy keeps the same block bytes in memory instead of a file;
  * only a held store can be serialized.
  */
final class BlockStore private (val path: Path, val offsets: Array[Long], val lengths: Array[Int],
                                blocks: Array[Array[Byte]]) extends Serializable {
  def blockCount: Int = offsets.length
  def fileBytes: Long = lengths.foldLeft(0L)(_ + _)

  /** Raw bytes of block `id` (real disk read; the pool caches decoded forms). */
  def read(id: Int): Array[Byte] = if (blocks != null) blocks(id) else {
    val raf = new RandomAccessFile(path.toFile, "r")
    try {
      raf.seek(offsets(id))
      val out = new Array[Byte](lengths(id))
      raf.readFully(out)
      out
    } finally raf.close()
  }

  /** The same blocks, read once from the file and held in memory. */
  def held: BlockStore = new BlockStore(null, offsets, lengths, Array.tabulate(blockCount)(read))

  def delete(): Unit = if (blocks == null) Files.deleteIfExists(path)

  private def writeObject(out: java.io.ObjectOutputStream): Unit =
    if (blocks == null) throw new java.io.NotSerializableException(
      s"$path is a local file: serialize DeepMapping.snapshot(), which holds T_aux's blocks in memory")
    else out.defaultWriteObject()
}

object BlockStore {
  private val counter = new java.util.concurrent.atomic.AtomicLong(0)

  def workDir: Path = {
    val p = Paths.get(sys.props.getOrElse("repro.blockdir", sys.props("java.io.tmpdir")), "repro-blocks")
    Files.createDirectories(p)
    p
  }

  /** Write `blocks` sequentially into a fresh file. */
  def write(tag: String, blocks: Seq[Array[Byte]]): BlockStore = {
    val path = workDir.resolve(s"$tag-${counter.incrementAndGet()}.blk")
    val out = Files.newOutputStream(path)
    val offsets = new Array[Long](blocks.size)
    val lengths = new Array[Int](blocks.size)
    var off = 0L
    var i = 0
    blocks.foreach { b =>
      offsets(i) = off; lengths(i) = b.length
      out.write(b)
      off += b.length
      i += 1
    }
    out.close()
    new BlockStore(path, offsets, lengths, null)
  }
}
