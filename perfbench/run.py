#!/usr/bin/env python3
"""DeepMapping benchmark driver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the repository and the benchmark with sbt on first use (the
classpath is cached under .bench_build/ and rebuilt when a source file
changes), then runs the benchmark JVM with pinned heap, GC and thread
counts. The last line of stdout is the run's JSON result. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

STATE = ".bench_build"
HEAP = "1g"
# Two threads leave the other cores of a shared 4-core machine free, so a
# neighbour's burst does not stall a parallel matmul step.
MAX_THREADS = 2
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
SOURCE_ROOTS = ["build.sbt", "project/build.properties", "src/main", "jobs",
                "perfbench/build.sbt", "perfbench/project/build.properties", "perfbench/src"]
# Spark's own launcher opens these packages on Java 17+.
ADD_OPENS = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
             "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
             "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
             "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
             "java.base/sun.util.calendar"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def check_checkout():
    missing = [p for p in ("build.sbt", "src/main/scala", "perfbench/build.sbt") if not os.path.exists(p)]
    if missing:
        fail("run from the root of a repository checkout; missing " + ", ".join(missing))


def fingerprint():
    h = hashlib.sha256()
    for root in SOURCE_ROOTS:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def classpath():
    """Compiles with sbt when the sources changed; returns the classpath and
    the source fingerprint it was built from."""
    os.makedirs(STATE, exist_ok=True)
    cp_file = os.path.join(STATE, "classpath.txt")
    with open(os.path.join(STATE, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        fp = fingerprint()
        if os.path.exists(cp_file):
            with open(cp_file) as f:
                stored_fp, cp = f.read().split("\n", 1)
            if stored_fp == fp:
                return cp.strip(), fp
        t0 = time.time()
        try:
            out = subprocess.run(
                ["sbt", "--batch", "-Dsbt.log.noformat=true", "export perfbench/Runtime/fullClasspath"],
                cwd="perfbench", stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                timeout=BUILD_TIMEOUT_S, start_new_session=True)
        except subprocess.TimeoutExpired:
            fail("sbt build timed out", 1)
        lines = [l.strip() for l in out.stdout.splitlines() if l.strip()]
        if out.returncode != 0 or not lines or "perfbench" not in lines[-1]:
            sys.stderr.write(out.stdout[-5000:])
            fail("sbt build failed", 1)
        cp = lines[-1]
        with open(cp_file, "w") as f:
            f.write(fp + "\n" + cp + "\n")
        print(f"perfbench: built in {time.time() - t0:.1f} s", file=sys.stderr)
        return cp, fp


def java_command(build, args):
    cp, fp = build
    threads = max(1, min(MAX_THREADS, os.cpu_count() or 1))
    tmp = os.path.join(STATE, "tmp")
    os.makedirs(tmp, exist_ok=True)
    argfile = os.path.join(STATE, "java.args")
    with open(argfile, "w") as f:
        f.write("-cp\n" + cp + "\n")
    return (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+AlwaysPreTouch", "-XX:+UseG1GC", "-XX:MaxGCPauseMillis=5", f"-XX:ParallelGCThreads={threads}",
             f"-Djava.util.concurrent.ForkJoinPool.common.parallelism={max(1, threads - 1)}",
             f"-Dperfbench.threads={threads}",
             # Exact counts are compared only between runs of the same sources.
             f"-Dperfbench.build={fp[:16]}",
             f"-Djava.io.tmpdir={os.path.abspath(tmp)}",
             "-Dlog4j2.configurationFile=" + os.path.abspath("perfbench/log4j2.properties"),
             "-XX:+IgnoreUnrecognizedVMOptions"]
            + [f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS]
            + ["@" + argfile, "perfbench.Main"] + args)


def run_jvm(build, args):
    """Runs the benchmark JVM; returns (exit code, stdout lines)."""
    # Spark's scratch space stays in the checkout, whatever the environment says.
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.abspath(os.path.join(STATE, "spark")))
    proc = subprocess.Popen(java_command(build, args), stdout=subprocess.PIPE, text=True,
                            start_new_session=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 1)
    return proc.returncode, out.splitlines()


def result_of(lines):
    for line in reversed(lines):
        try:
            r = json.loads(line)
        except ValueError:
            continue
        if isinstance(r, dict) and set(r) == {"correct", "attempted", "failed", "metrics"}:
            return r
    return None


def bench(a):
    build = classpath()
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--state-dir", os.path.abspath(STATE)]
    code, lines = run_jvm(build, args)
    r = result_of(lines)
    if code != 0 or r is None:
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        fail(f"benchmark exited with code {code}" + ("" if r else " and no result"), 1)
    for line in lines:
        if line.strip() and result_of([line]) is None:
            print(line)
    print(json.dumps(r))


def selftest():
    """Tiny-size runs: metric names match BENCHMARK.json, every run is
    correct (a traced run is not if a span's self time is negative or a
    child span lies outside its parent), and an injected wrong answer shows
    up as a failed operation."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build = classpath()
    state = os.path.abspath(os.path.join(STATE, "selftest"))
    errors = []

    def run(workload, trace, extra=()):
        args = ["--workload", workload, "--seed", "1", "--seconds", "2", "--trace", str(trace),
                "--state-dir", state, "--tiny", *extra]
        code, lines = run_jvm(build, args)
        r = result_of(lines)
        if code != 0 or r is None:
            errors.append(f"{workload} trace={trace} {' '.join(extra)}: exit {code}, no result")
            sys.stderr.write("\n".join(lines[-20:]) + "\n")
        return r

    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run(w["name"], trace)
            if r is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != want:
                errors.append(f"{w['name']} trace={trace}: metrics differ from BENCHMARK.json {key}: "
                              f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                              f"units {sorted(k for k in set(want) & set(got) if want[k] != got[k])}")
            if not r["correct"] or r["failed"] != 0:
                errors.append(f"{w['name']} trace={trace}: not correct ({r['failed']}/{r['attempted']} failed)")
    w0 = spec["workloads"][0]["name"]
    r = run(w0, 0, ["--inject-fault"])
    if r is not None and (r["failed"] == 0 or r["correct"]):
        errors.append(f"{w0}: an injected wrong answer was not counted as failed")
    for e in errors:
        print("SELFTEST FAIL: " + e)
    print("selftest: " + ("FAILED" if errors else "passed"))
    sys.exit(1 if errors else 0)


def main():
    p = argparse.ArgumentParser(description="DeepMapping benchmark")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    check_checkout()
    if a.selftest:
        selftest()
    if None in (a.workload, a.seed, a.seconds, a.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    bench(a)


if __name__ == "__main__":
    main()
