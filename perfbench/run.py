#!/usr/bin/env python3
"""Repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload paper_sync|async_faults|svc_fleet \\
        --seed N --seconds S --trace 0|1

Builds perfbench_driver from the checkout's own sources (CMake, into
.bench_build/), runs one workload for S seconds on inputs drawn from seed
N, checks the program's outputs and prints every metric by name with its
unit.  The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the metrics
are BENCHMARK.json's end_to_end list, measured untraced; with --trace 1
its per_layer list, from a separate traced pass.  The line before it,
"RESULT {...}", is the full record (host block, sample counts, output
digest) that compare.py reads from captured stdout.

An operation is one server aggregation step for the FL workloads and one
decision for svc_fleet.  error_rate = failed / attempted; the end-to-end
list carries it as success_ratio = 1 - error_rate so no metric is 0.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("paper_sync", "async_faults", "svc_fleet")
BUILD_TIMEOUT_S = 840
# The driver's limit grows with the window: a traced FL run adds a
# traced, an N-thread and a replay pass on top of it.  170 s at 20 s.
DRIVER_BASE_TIMEOUT_S = 110
DRIVER_TIMEOUT_PER_WINDOW_S = 3
MAX_THREADS = 4


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def run_group(command, timeout, **kwargs):
    """subprocess.run in a session of its own, so a timeout stops the whole
    process tree (make and compilers under cmake), not just its root."""
    with subprocess.Popen(command, start_new_session=True, **kwargs) as process:
        try:
            out, _ = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, 9)
            process.wait()
            raise
        return process.returncode, out


# ---------------------------------------------------------------------------
# Build and run the driver.

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources in %s (expected src/CMakeLists.txt)" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_driver",
                  "-j", str(min(nproc(), MAX_THREADS))])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            code, _ = run_group(step, max(1.0, deadline - time.monotonic()),
                                stdout=sys.stderr, stderr=sys.stderr)
        except subprocess.TimeoutExpired:
            fail("build did not finish within %d s" % BUILD_TIMEOUT_S)
        if code != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, "perfbench_driver")


def run_driver(driver, args, threads):
    # Relative to the checkout root, which is the driver's working
    # directory: keeps the Unix socket path short.
    workdir = os.path.join(os.path.relpath(os.path.dirname(build_dir()), ROOT),
                           "run-%d" % os.getpid())
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--threads", str(threads), "--workdir", workdir]
    timeout = DRIVER_BASE_TIMEOUT_S + DRIVER_TIMEOUT_PER_WINDOW_S * args.seconds
    try:
        code, out = run_group(command, timeout, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %g s" % timeout)
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    if code != 0:
        fail("driver exited with code %d" % code)
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Metrics from the driver's raw figures.

def end_to_end(raw):
    """BENCHMARK.json's end_to_end metrics, the notes that say how each was
    taken, and the tail latency: p99, or the highest percentile below it
    with MIN_BEYOND samples beyond it.  The tail is printed and recorded
    but not gated: on a shared host its run-to-run spread is far wider
    than any bound BENCHMARK.json may set."""
    samples = raw["samples"]
    op_ms = samples["op_ms"]
    if "op_done_s" in samples:  # svc: one closed loop, rate per segment
        ops_per_s = stats.segmented_rate(samples["op_done_s"])
        rate_note = "median over %d segments of %d decisions" % (
            len(stats.segments(samples["op_done_s"])), stats.SEGMENT_OPS)
    else:  # FL: rate per repetition of the 300-step run
        ops_per_s = stats.median(samples["ops_per_s"])
        rate_note = "median of %d passes" % len(samples["ops_per_s"])
    attempted, failed = raw["attempted"], raw["failed"]
    metrics = {
        "setup_s": stats.median(samples["setup_s"]),
        "ops_per_s": ops_per_s,
        "op_p50_ms": stats.percentile(op_ms, 50.0),
        "peak_rss_mb": raw["values"]["peak_rss_mb"],
        "success_ratio": (attempted - failed) / attempted if attempted else 0.0,
    }
    notes = {
        "setup_s": "median of %d set-ups" % len(samples["setup_s"]),
        "ops_per_s": rate_note,
        "op_p50_ms": "%d operations" % len(op_ms),
        "success_ratio": "1 - error_rate; error_rate %.6g = %d failed of %d"
                         % (failed / attempted if attempted else 1.0, failed, attempted),
    }
    pct = stats.tail_percentile(len(op_ms)) or 50.0
    tail = {"percentile": pct, "op_ms": stats.percentile(op_ms, pct),
            "samples": len(op_ms), "beyond": stats.samples_beyond(len(op_ms), pct)}
    return metrics, notes, tail


def per_layer(raw, names):
    """BENCHMARK.json's per_layer metrics.  Figures the driver reports per
    traced pass are medians over passes; a layer the workload does not
    exercise reads 0."""
    samples, layers = raw["samples"], raw["layers"]
    threads = raw["values"].get("threads", 1)
    derived = {}
    if "fl.client_ms" in samples:
        client = samples["fl.client_ms"]
        derived["fl.client_p50_ms"] = stats.percentile(client, 50.0)
        if stats.samples_beyond(len(client), 99.0) >= stats.MIN_BEYOND:
            derived["fl.client_p99_ms"] = stats.percentile(client, 99.0)
    if "parallel_run_s" in samples:
        derived["fl.scaling_efficiency"] = (
            stats.median(samples["run_s"]) / stats.median(samples["parallel_run_s"]) / threads)
    if "traced_run_s" in samples:
        derived["obs.overhead_ratio"] = (
            stats.median(samples["traced_run_s"]) / stats.median(samples["run_s"]))
    if "traced_op_ms" in samples:
        derived["obs.overhead_ratio"] = (
            stats.median(samples["traced_op_ms"]) / stats.median(samples["op_ms"]))
    if "replay_poll_us" in samples:
        ingest, poll = samples["replay_ingest_us"], samples["replay_poll_us"]
        derived["svc.ingest_us"] = stats.median(ingest)
        derived["svc.poll_us"] = stats.median(poll)
        in_process = stats.median([i + p for i, p in zip(ingest, poll)])
        derived["svc.transport_us"] = stats.median(samples["op_ms"]) * 1000.0 - in_process
    metrics = {}
    for name in names:
        if name in derived:
            metrics[name] = derived[name]
        elif layers.get(name):
            metrics[name] = stats.median(layers[name])
        else:
            metrics[name] = 0.0
    return metrics


# ---------------------------------------------------------------------------
# Host block.

def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_describe():
    """`git describe` of the checkout, only when the checkout root is
    itself a work tree (not a directory nested in some other repo)."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            described = subprocess.run(
                ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
                capture_output=True, text=True, timeout=10)
            if described.returncode == 0:
                return described.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def host_block(driver_host, threads):
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "kernel_isa": driver_host["kernel_isa"],
        "compiler": driver_host["compiler"],
        "build_type": driver_host["build_type"],
        "git_describe": git_describe(),
        "fl_parallel_threads": threads,
    }


# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    driver = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    threads = min(nproc(), MAX_THREADS)
    raw = run_driver(driver, args, threads)
    e2e, notes, tail = end_to_end(raw)
    if args.trace:
        metrics = per_layer(raw, [m["name"] for m in spec["per_layer"]])
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    correct = bool(raw["checks"]) and all(raw["checks"].values())

    host = host_block(raw["host"], threads)
    print("perfbench %s seed=%d seconds=%g trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("host " + json.dumps(host, sort_keys=True))
    for name, ok in sorted(raw["checks"].items()):
        print("check %-40s %s" % (name, "ok" if ok else "FAILED"))
    for note in raw["notes"]:
        print("  " + note)
    for name, value in metrics.items():
        extra = notes.get(name, "") if not args.trace else ""
        print("metric %-36s %14.6g %-8s %s" % (name, value, units[name], extra))
    print("tail   %-36s %14.6g %-8s %d operations, %d beyond (not gated)"
          % ("op_p%g_ms" % tail["percentile"], tail["op_ms"], "ms", tail["samples"],
             tail["beyond"]))

    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=host,
                  digest=raw["digest"], tail=tail,
                  samples={name: len(values) for name, values in raw["samples"].items()})
    print("RESULT " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
