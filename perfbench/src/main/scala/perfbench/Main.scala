package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

/** Entry point: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * [--state-dir <dir>] [--tiny] [--inject-fault]`.
  *
  * Prints a machine line and a summary, then, as the last line of stdout,
  * one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
  * end-to-end metrics untraced, the per-layer metrics traced). Writes the
  * result, the exact counts and (traced) the spans under the state dir.
  */
object Main {

  /** Threads for Spark's local master; run.py sizes the nn matmuls' pool to match. */
  val Threads: Int = sys.props.get("perfbench.threads").flatMap(_.toIntOption).getOrElse(1)

  private def usage(msg: String): Nothing = {
    System.err.println(s"perfbench: $msg")
    System.err.println("usage: Main --workload <" + Workloads.all.map(_.name).mkString("|") +
      "> --seed <n> --seconds <s> --trace <0|1> [--state-dir <dir>] [--tiny] [--inject-fault]")
    sys.exit(2)
  }

  def parse(args: Array[String]): Options = {
    val flags = Set("--tiny", "--inject-fault")
    var kv = Map.empty[String, String]
    var set = Set.empty[String]
    var i = 0
    while (i < args.length) {
      val a = args(i)
      if (flags(a)) { set += a; i += 1 }
      else if (a.startsWith("--") && i + 1 < args.length) { kv += a -> args(i + 1); i += 2 }
      else usage(s"unexpected argument '$a'")
    }
    def need(k: String) = kv.getOrElse(k, usage(s"missing $k"))
    val w0 = Workloads.byName(need("--workload")).getOrElse(usage(s"unknown workload '${kv("--workload")}'"))
    val seed = need("--seed").toLongOption.getOrElse(usage("--seed must be an integer"))
    val seconds = need("--seconds").toDoubleOption.filter(_ > 0).getOrElse(usage("--seconds must be positive"))
    val trace = need("--trace") match {
      case "0" => false
      case "1" => true
      case v   => usage(s"--trace must be 0 or 1, not '$v'")
    }
    Options(if (set("--tiny")) w0.tiny else w0, seed, seconds, trace,
      Paths.get(kv.getOrElse("--state-dir", ".bench_build")).toAbsolutePath, set("--inject-fault"))
  }

  def machineLine(spark: SparkSession): String = {
    val rt = ManagementFactory.getRuntimeMXBean
    val xmx = rt.getInputArguments.asScala.find(_.startsWith("-Xmx")).getOrElse(s"maxMemory=${Runtime.getRuntime.maxMemory}")
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString("+")
    s"machine: nproc=${Runtime.getRuntime.availableProcessors} java=${System.getProperty("java.version")} " +
      s"vm=${System.getProperty("java.vm.name").replace(' ', '_')} heap=$xmx gc=$gcs " +
      s"fj_parallelism=${java.util.concurrent.ForkJoinPool.getCommonPoolParallelism} " +
      s"spark=${spark.version} master=${spark.sparkContext.master} " +
      s"default_parallelism=${spark.sparkContext.defaultParallelism} " +
      s"os=${System.getProperty("os.name")}_${System.getProperty("os.arch")}"
  }

  def session(o: Options): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$Threads]")
      .appName("perfbench")
      // Pinned so SynthCorr's rand(seed) sees the same partitions on any
      // machine: the data, T_aux and pool counts then do not depend on nproc.
      .config("spark.default.parallelism", "4")
      .config("spark.sql.shuffle.partitions", "4")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", o.stateDir.resolve("spark").toString)
      .config("spark.sql.warehouse.dir", o.stateDir.resolve("warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  private def write(p: Path, text: String): Unit = {
    Files.createDirectories(p.getParent)
    Files.write(p, text.getBytes(StandardCharsets.UTF_8))
  }

  /** Compares this run's exact counts with an earlier run of the same
    * sources, workload, seed and mode in this state dir; records them if
    * new. */
  def checkCounts(o: Options, counts: Seq[(String, String)]): Seq[String] = {
    val p = o.stateDir.resolve("counts").resolve(sys.props.getOrElse("perfbench.build", "unversioned"))
      .resolve(s"${o.tag}.txt")
    val now = counts.map { case (k, v) => s"$k=$v" }
    if (Files.exists(p)) {
      val before = Files.readAllLines(p).asScala.toSeq
      val diff = (before.toSet diff now.toSet).toSeq.sorted
      if (diff.isEmpty) Nil
      else Seq(s"exact counts differ from an earlier run of ${o.tag}: was ${diff.mkString(" ")}; now " +
        (now.toSet diff before.toSet).toSeq.sorted.mkString(" "))
    } else { write(p, now.mkString("\n")); Nil }
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    System.setProperty("repro.blockdir", o.stateDir.resolve("blocks").toString)
    val spark = session(o)
    val code =
      try {
        println(machineLine(spark))
        val b = new Bench(o, spark)
        b.run()
        val countProblems = checkCounts(o, b.counts.toSeq)
        val problems = b.problems.toSeq ++ countProblems
        b.info.foreach(println)
        println(s"exact counts: ${b.counts.map { case (k, v) => s"$k=$v" }.mkString(" ")}")
        println(f"failed_share: ${b.failed}/${b.attempted} = ${b.failed.toDouble / math.max(1, b.attempted)}%.6f")
        println(f"start_to_first_op_s: ${b.startToFirstOpSeconds}%.3f")
        problems.foreach(p => println(s"PROBLEM: $p"))
        val metrics = if (o.trace) b.perLayer else b.endToEnd
        val json = Json.obj(Seq(
          "correct" -> (problems.isEmpty && b.failed == 0).toString,
          "attempted" -> b.attempted.toString,
          "failed" -> b.failed.toString,
          "metrics" -> Json.obj(metrics.toSeq.map { case (k, (v, u)) =>
            k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
          }),
        ))
        write(o.stateDir.resolve("results").resolve(s"${o.tag}.json"), json + "\n")
        if (o.trace) write(o.stateDir.resolve("traces").resolve(s"${o.tag}.json"),
          Json.obj(b.tracers.toSeq.map { case (k, t) => k -> t.toJson }) + "\n")
        println(json)
        0
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          1
      } finally spark.stop()
    System.out.flush()
    sys.exit(code)
  }
}
