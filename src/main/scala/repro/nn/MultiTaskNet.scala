package repro.nn

/** Per-task head description: output cardinality + private hidden sizes. */
final case class TaskSpec(name: String, nClasses: Int, privateSizes: Seq[Int]) extends Serializable

/** Architecture of a multi-task net: shared trunk sizes + task heads.
  * This is the unit MHAS searches over (paper Fig. 3a: one tree node of
  * shared layers, one leaf of private layers per target column). */
final case class NetArch(sharedSizes: Seq[Int], tasks: Seq[TaskSpec]) extends Serializable {
  def describe: String =
    s"shared=${sharedSizes.mkString("[", ",", "]")} " +
      tasks.map(t => s"${t.name}:${t.privateSizes.mkString("[", ",", "]")}->${t.nClasses}").mkString(" ")
}

/** Multi-task MLP: shared ReLU trunk, then per task a private ReLU stack
  * and a linear softmax head (paper §IV-A). Trained with summed
  * cross-entropy across tasks; inference returns per-task argmax codes.
  *
  * Layers are injected so MHAS's weight-sharing bank can hand the same
  * `Dense` instances to many sampled child architectures (ENAS-style
  * parameter sharing); use [[MultiTaskNet.apply]] for a fresh net.
  */
final class MultiTaskNet(val featDim: Int, val arch: NetArch,
                         val shared: Array[Dense], val priv: Array[Array[Dense]]) extends Serializable {

  def byteSize: Long = (shared.map(_.byteSize).sum + priv.flatten.map(_.byteSize).sum) + 64

  /** Forward pass producing per-task logits. */
  def forwardLogits(x: Mat): Array[Mat] = {
    val trunk = Dense.forwardAll(shared, x).last
    priv.map(Dense.forwardAll(_, trunk).last)
  }

  /** Per-task argmax class ids: result(task)(row). */
  def predict(x: Mat): Array[Array[Int]] = forwardLogits(x).map(Mat.argmaxRows)

  /** One SGD step on a mini-batch. `labels(task)(row)` are class ids.
    * Returns mean cross-entropy over tasks. `t` is the Adam timestep. */
  def trainBatch(x: Mat, labels: Array[Array[Int]], lr: Float, t: Int): Double = {
    val n = x.rows
    val sharedActs = Dense.forwardAll(shared, x)
    val trunk = sharedActs.last

    var loss = 0.0
    var dTrunk: Mat = null
    var ti = 0
    while (ti < priv.length) {
      val acts = Dense.forwardAll(priv(ti), trunk)
      val logits = acts.last
      val probs = Mat.softmaxRows(logits)
      // CE loss + gradient (softmax - onehot)/n
      val lab = labels(ti)
      val dLogits = probs // reuse buffer
      var r = 0
      while (r < n) {
        val o = r * logits.cols
        val y = lab(r)
        loss += -math.log(math.max(probs.data(o + y).toDouble, 1e-12))
        var c = 0
        while (c < logits.cols) { dLogits.data(o + c) /= n; c += 1 }
        dLogits.data(o + y) -= 1.0f / n
        r += 1
      }
      val grad = Dense.backwardAll(priv(ti), acts, dLogits)
      dTrunk = if (dTrunk == null) grad else {
        var k = 0
        while (k < grad.data.length) { dTrunk.data(k) += grad.data(k); k += 1 }
        dTrunk
      }
      ti += 1
    }
    Dense.backwardAll(shared, sharedActs, dTrunk)
    // Apply updates.
    shared.foreach(_.step(lr, t))
    priv.foreach(_.foreach(_.step(lr, t)))
    loss / (n.toDouble * priv.length)
  }
}

object MultiTaskNet {
  /** Fresh net with newly initialised layers for `arch`. */
  def apply(featDim: Int, arch: NetArch, seed: Long): MultiTaskNet =
    wire(featDim, arch) { (task, depth, in, out) =>
      val offset = if (task < 0) depth else if (depth < 0) 900 + task else 100 + task * 10 + depth
      new Dense(in, out, relu = depth >= 0, seed + offset)
    }

  /** The net of `arch` with its layers taken from `layer(task, depth, in, out)`,
    * asked in order: the shared trunk (`task` = -1), then per task its
    * private ReLU stack and its linear head (`depth` = -1). */
  def wire(featDim: Int, arch: NetArch)(layer: (Int, Int, Int, Int) => Dense): MultiTaskNet = {
    def stack(task: Int, in: Int, sizes: Seq[Int]): Array[Dense] =
      (in +: sizes).zip(sizes).zipWithIndex.map { case ((i, o), depth) => layer(task, depth, i, o) }.toArray
    val shared = stack(-1, featDim, arch.sharedSizes)
    val trunkOut = arch.sharedSizes.lastOption.getOrElse(featDim)
    val priv = arch.tasks.zipWithIndex.map { case (t, ti) =>
      stack(ti, trunkOut, t.privateSizes) :+ layer(ti, -1, t.privateSizes.lastOption.getOrElse(trunkOut), t.nClasses)
    }.toArray
    new MultiTaskNet(featDim, arch, shared, priv)
  }
}
