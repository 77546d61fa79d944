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
    var h = x
    shared.foreach(l => h = l.forward(h))
    priv.map { layers =>
      var t = h
      layers.foreach(l => t = l.forward(t))
      t
    }
  }

  /** Per-task argmax class ids: result(task)(row). */
  def predict(x: Mat): Array[Array[Int]] = forwardLogits(x).map(Mat.argmaxRows)

  /** One SGD step on a mini-batch. `labels(task)(row)` are class ids.
    * Returns mean cross-entropy over tasks. `t` is the Adam timestep. */
  def trainBatch(x: Mat, labels: Array[Array[Int]], lr: Float, t: Int): Double = {
    val n = x.rows
    // Forward, keeping activations for backprop.
    val sharedActs = new Array[Mat](shared.length + 1)
    sharedActs(0) = x
    var i = 0
    while (i < shared.length) { sharedActs(i + 1) = shared(i).forward(sharedActs(i)); i += 1 }
    val trunk = sharedActs(shared.length)

    var loss = 0.0
    var dTrunk: Mat = null
    var ti = 0
    while (ti < priv.length) {
      val layers = priv(ti)
      val acts = new Array[Mat](layers.length + 1)
      acts(0) = trunk
      var li = 0
      while (li < layers.length) { acts(li + 1) = layers(li).forward(acts(li)); li += 1 }
      val logits = acts(layers.length)
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
      // Backward through the private stack.
      var grad: Mat = dLogits
      li = layers.length - 1
      while (li >= 0) { grad = layers(li).backward(acts(li), acts(li + 1), grad); li -= 1 }
      dTrunk = if (dTrunk == null) grad else {
        var k = 0
        while (k < grad.data.length) { dTrunk.data(k) += grad.data(k); k += 1 }
        dTrunk
      }
      ti += 1
    }
    // Backward through the shared trunk.
    var grad = dTrunk
    i = shared.length - 1
    while (i >= 0) { grad = shared(i).backward(sharedActs(i), sharedActs(i + 1), grad); i -= 1 }
    // Apply updates.
    shared.foreach(_.step(lr, t))
    priv.foreach(_.foreach(_.step(lr, t)))
    loss / (n.toDouble * priv.length)
  }
}

object MultiTaskNet {
  /** Fresh net with newly initialised layers for `arch`. */
  def apply(featDim: Int, arch: NetArch, seed: Long): MultiTaskNet = {
    var prev = featDim
    val shared = arch.sharedSizes.zipWithIndex.map { case (sz, i) =>
      val l = new Dense(prev, sz, relu = true, seed + i); prev = sz; l
    }.toArray
    val sharedOut = prev
    val priv = arch.tasks.zipWithIndex.map { case (t, ti) =>
      var p = sharedOut
      val hidden = t.privateSizes.zipWithIndex.map { case (sz, i) =>
        val l = new Dense(p, sz, relu = true, seed + 100 + ti * 10 + i); p = sz; l
      }
      (hidden :+ new Dense(p, t.nClasses, relu = false, seed + 900 + ti)).toArray
    }.toArray
    new MultiTaskNet(featDim, arch, shared, priv)
  }
}
