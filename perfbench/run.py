#!/usr/bin/env python3
"""Repository benchmark: heterogeneous training on threads, sockets and the
simulator.

Run from the repository root:

    python3 perfbench/run.py --workload con-compute --seed 1 --seconds 25 --trace 0

The script builds perfbench_driver (and the library it links) from source
into .bench_build/, then runs one training job at a time, each in its own
driver process, until --seconds have passed. It checks every job's output,
counts failed jobs, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the jobs, tracing
off). --trace 1 runs the layer pass plus one traced job, writes the spans to
.bench_build/perfbench/traces/ as Chrome trace-event JSON (Perfetto loads
it), and reports the per-layer metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Relative to the repository root, which is the working directory. Keeping
# paths relative keeps Unix-domain socket paths short.
BUILD_DIR = os.path.join(".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

# Per-job fields of the driver's output reported as medians.
JOB_MEDIANS = ("samples_per_s", "run_s", "final_loss", "setup_s", "peak_rss_mb")
MIN_JOBS = 3
# Leave room under the 180 s limit for the job that is running when the
# measuring window closes.
HARD_STOP_S = 120.0
JOB_TIMEOUT_S = 50.0


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; exits non-zero on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")) and \
            shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    with open(log_path, "w") as out:
        for cmd in (configure,
                    ["cmake", "--build", BUILD_DIR, "-j", "4",
                     "--target", "perfbench_driver"]):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.close()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                log("build failed (%s)" % " ".join(cmd[:2]))
                sys.exit(2)


def run_driver(mode, workload, seed, index, extra=()):
    """Runs one driver process; returns (parsed last JSON line or None,
    error text)."""
    workdir = os.path.join(BUILD_DIR, "r", "%d-%d" % (os.getpid(), index))
    cmd = [DRIVER, mode, "--workload", workload, "--seed", str(seed),
           "--workdir", workdir] + list(extra)
    # A session of its own, so a timeout also stops launched processes.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
        return None, "timed out after %.0f s" % JOB_TIMEOUT_S
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode, err.strip()[-300:])
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "unparseable output: %r" % out[-300:]
    if not result.get("ok"):
        return result, result.get("reason", "failed")
    return result, ""


def job_seed(seed, k):
    """Each job of a run trains on its own dataset and initialization,
    derived from the workload seed."""
    return (seed * 1000003 + k) % (1 << 62)


def run_jobs(workload, seed, seconds, start, min_jobs):
    """Untraced jobs until `seconds` have passed; returns (ok results,
    attempted, failed)."""
    ok, attempted, failed = [], 0, 0
    while attempted < min_jobs or time.monotonic() - start < seconds:
        if time.monotonic() - start > HARD_STOP_S:
            break
        k = attempted
        result, err = run_driver("job", workload, job_seed(seed, k), k)
        attempted += 1
        if err:
            failed += 1
            log("job %d failed: %s" % (k, err))
        else:
            ok.append(result)
            log("job %d: %s" % (k, " ".join(
                "%s=%.4g" % (key, result[key]) for key in JOB_MEDIANS)))
    return ok, attempted, failed


def median_of(results, key):
    return statistics.median(r[key] for r in results) if results else 0.0


def end_to_end(workload, seed, seconds):
    start = time.monotonic()
    ok, attempted, failed = run_jobs(workload, seed, seconds, start, MIN_JOBS)
    values = {k: median_of(ok, k) for k in JOB_MEDIANS}
    values["ok_share"] = (attempted - failed) / attempted
    return attempted, failed, values


def per_layer(workload, seed, seconds):
    start = time.monotonic()
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, "%s-seed%d.json" % (workload, seed))
    layers, err = run_driver("layers", workload, job_seed(seed, 0), 0,
                             ["--trace-out", trace_path])
    attempted, failed = 1, 0
    if err:
        failed += 1
        log("layer pass failed: %s" % err)
    if layers is None:
        layers = {"metrics": {}, "baseline_samples_per_s": 0.0,
                  "traced_samples_per_s": 0.0}
    else:
        log("trace written to %s" % trace_path)
    # Untraced jobs on the same seed for the tracing overhead and the
    # parallel efficiency against the single-worker baseline.
    ok, n, f = run_jobs(workload, seed, seconds, start, 1)
    attempted += n
    failed += f
    untraced = median_of(ok, "samples_per_s")
    metrics = dict(layers["metrics"])
    baseline = layers["baseline_samples_per_s"]
    metrics["runtime.parallel_efficiency"] = untraced / baseline if baseline else 0.0
    metrics["trace.overhead_share"] = (
        1.0 - layers["traced_samples_per_s"] / untraced if untraced else 0.0)
    return attempted, failed, metrics


def main():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    build()
    if args.trace:
        attempted, failed, values = per_layer(args.workload, args.seed, args.seconds)
    else:
        attempted, failed, values = end_to_end(args.workload, args.seed, args.seconds)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        log("metrics not produced: %s" % ", ".join(missing))
        failed += 1
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
