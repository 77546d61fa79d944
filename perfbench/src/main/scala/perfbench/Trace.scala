package perfbench

import scala.collection.mutable.ArrayBuffer

/** In-memory span recorder for the traced pass.
  *
  * A span has a name, a start and end (System.nanoTime), the span that was
  * open when it started (its parent), and the id of its root span, which
  * groups the spans of one request. Spans are recorded by the benchmark
  * around its calls into each layer and written out when the run ends.
  * Single-threaded: the benchmark has one closed-loop client.
  */
final class Tracer {
  import Tracer.Span

  private val spans = ArrayBuffer.empty[Span]
  private var open = List.empty[Span]

  def span[T](name: String)(f: => T): T = {
    val parent = open.headOption
    val s = new Span(spans.length, parent.map(_.id).getOrElse(-1),
      parent.map(_.root).getOrElse(spans.length), name, System.nanoTime())
    spans += s
    open = s :: open
    try f
    finally {
      s.end = System.nanoTime()
      open = open.tail
    }
  }

  def all: Seq[Span] = spans.toSeq

  /** Duration minus the part of [start, end) its children cover. */
  def selfNanos: Array[Long] = {
    val children = Array.fill(spans.length)(ArrayBuffer.empty[Span])
    spans.foreach(s => if (s.parent >= 0) children(s.parent) += s)
    spans.map { s =>
      var covered = 0L
      var reach = s.start
      children(s.id).sortBy(_.start).foreach { c =>
        val from = math.max(c.start, reach)
        val to = math.min(c.end, s.end)
        if (to > from) { covered += to - from; reach = to }
      }
      s.duration - covered
    }.toArray
  }

  /** Total self time per span name. */
  def selfByName: Map[String, Long] = {
    val self = selfNanos
    spans.indices.groupMapReduce(i => spans(i).name)(i => self(i))(_ + _)
  }

  def totalByName(name: String): Long = spans.iterator.filter(_.name == name).map(_.duration).sum

  def countOf(name: String): Int = spans.count(_.name == name)

  /** Structural faults: a negative self time, or a child outside its parent. */
  def faults: Seq[String] = {
    val self = selfNanos
    val out = ArrayBuffer.empty[String]
    spans.foreach { s =>
      if (s.end < s.start) out += s"span ${s.id} ${s.name} ends before it starts"
      if (self(s.id) < 0) out += s"span ${s.id} ${s.name} has negative self time ${self(s.id)}"
      if (s.parent >= 0) {
        val p = spans(s.parent)
        if (s.start < p.start || s.end > p.end) out += s"span ${s.id} ${s.name} lies outside parent ${p.name}"
      }
    }
    out.toSeq
  }

  def toJson: String =
    spans.map(s => s"""{"id":${s.id},"parent":${s.parent},"root":${s.root},"name":${Json.str(s.name)},""" +
      s""""start_ns":${s.start},"end_ns":${s.end}}""").mkString("[", ",\n", "]")
}

object Tracer {
  final class Span(val id: Int, val parent: Int, val root: Int, val name: String, val start: Long) {
    var end: Long = start
    def duration: Long = end - start
  }
}

/** Tiny JSON writer: the benchmark only emits flat objects. */
object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c    => sb.append(c)
    }
    sb.append('"').toString
  }

  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null"
    else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else java.lang.Double.toString(d)

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}

/** Order statistics over a sample of timings. */
object Stats {
  /** Linear-interpolated quantile, q in [0, 1]. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(s.length - 1, lo + 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)
}
