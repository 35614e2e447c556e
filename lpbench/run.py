#!/usr/bin/env python3
"""End-to-end LoopPoint benchmark.

Builds the lpbench driver and the library it measures from this
checkout's sources, runs one workload, checks its outputs and prints
one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the
run's passes); with --trace 1 they are the per-layer ones, from a run
that records spans (written to .bench_out/) and times each layer from
outside. Build logs and progress go to stderr.

    python3 lpbench/run.py --workload train-e2e --seed 42 --seconds 25 --trace 0

Seeds: 42 is the default seed; 1234 is held out for confirming claims
made while tuning on other seeds. Workloads and the metric map are
described in lpbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "lpbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 42
HELDOUT_SEED = 1234
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("train-e2e", "ref-analysis", "uarch-sweep")

# One run must end within 180 s; leave room for start-up and checks.
RUN_TIMEOUT_S = 170


def log(msg):
    print("lpbench: " + msg, file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Run a command with its output on stderr; False on failure."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as err:
        log("%s: %s" % (cmd[0], err))
        return False


def build():
    """Configure once, then build the two targets incrementally."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources at src/: run from the root of a checkout")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], 300):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_logged(["cmake", "--build", BUILD_DIR, "--target", "lpbench",
                       "lp_report", "-j", jobs], 840)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-1 over every file the benchmark builds from (no git needed)."""
    h = hashlib.sha1()
    for top in ("src", "tools", "lpbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def metric_table():
    """Names and units of the metrics, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_driver(args, trace_path, store_dir, timeout):
    """Run lpbench; returns (its JSON result or None, exit code)."""
    cmd = [os.path.join(BUILD_DIR, "lpbench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--store=" + store_dir,
           "--trace-out=" + trace_path]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("driver timed out after %d s" % timeout)
        return None, -1
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, ValueError):
        log("driver printed no result (exit %d)" % proc.returncode)
        return None, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        log("build failed")
        return 1
    end_to_end, per_layer = metric_table()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    trace_path = os.path.join(OUT_DIR, "spans-%s.json" % tag)
    store_dir = os.path.join(OUT_DIR, "store-" + args.workload)

    started = time.monotonic()
    result, code = run_driver(args, trace_path, store_dir, RUN_TIMEOUT_S)
    if result is None or code != 0:
        return 1

    attempted = result["attempted"]
    failed = result["failed"]
    failures = list(result["failures"])

    def expect(ok, what):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            failures.append(what)

    report = None
    if args.trace:
        # The span document must be readable by the repo's trace tool.
        proc = subprocess.run(
            [os.path.join(BUILD_DIR, "lp_report"), "--trace=" + trace_path],
            capture_output=True, text=True, timeout=60)
        report = proc.stdout
        expect(proc.returncode == 0, "lp_report rejected the trace")

    wanted = per_layer if args.trace else end_to_end
    got = result["metrics"]
    metrics = {}
    for name, unit in wanted.items():
        m = got.get(name)
        ok = (m is not None and m["unit"] == unit and m["value"] is not None
              and math.isfinite(m["value"]))
        expect(ok, "metric %s missing, not finite or not in %s"
               % (name, unit))
        if ok:
            metrics[name] = {"value": m["value"], "unit": unit}
    if not args.trace:
        for name, m in metrics.items():
            expect(m["value"] > 0, "end-to-end metric %s is not positive"
                   % name)
    if "fail_ratio" in metrics:
        metrics["fail_ratio"]["value"] = failed / attempted

    record = {
        "workload": args.workload, "seed": args.seed,
        "default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "source_sha1": source_digest(),
        "nproc": os.cpu_count(), "build_type": BUILD_TYPE,
        "run_s": time.monotonic() - started,
        "attempted": attempted, "failed": failed, "failures": failures,
        "driver": result, "lp_report": report,
    }
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    for what in failures:
        log("check failed: " + what)
    log("%s seed %d: %d checks, %d failed, digest %s, k=%d, %d passes"
        % (args.workload, args.seed, attempted, failed, result["digest"],
           result["chosen_k"], result["passes"]))

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
