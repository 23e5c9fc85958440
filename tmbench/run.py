#!/usr/bin/env python3
"""The T-Mark benchmark: one command per workload run.

    python3 tmbench/run.py --workload classify_100k --seed 1 --seconds 20 --trace 0

Run from the repository root. It builds the library and the `tmbench`
binary from source (CMake, Release) into $CARGO_TARGET_DIR or .bench_build,
writes the workload's seeded inputs, measures for --seconds, checks the
outputs, and prints a table followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end set of BENCHMARK.json, with
--trace 1 the per-layer set (spans are kept under <build>/traces/); a result
that does not hold exactly that set, in its units, is not printed. The
exit code is 0 for a correct run, 1 when a correctness check failed or the
run did not finish or report, and 2 when the sources or arguments are
unusable.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("classify_100k", "serve_dblp", "update_100k")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Input generation plus the measured run must end within this many seconds
# of the build finishing.
RUN_TIMEOUT_S = 165


def fail(message, code):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def manifest_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json promises for this mode."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e, 2)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in manifest[key]}


def l3_size():
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def build(build_dir, jobs):
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 2)
    result = subprocess.run(["cmake", "--build", build_dir, "-j", str(jobs),
                             "--target", "tmbench"], stdout=sys.stderr)
    if result.returncode != 0:
        fail("build failed", 2)
    return os.path.join(build_dir, "tmbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(ROOT, "src"), 2)
    expected = manifest_metrics(args.trace)

    # N: the fit pool width and the load generator's connection count.
    nproc = len(os.sched_getaffinity(0))
    threads = min(4, nproc)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir, threads)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    # Inputs live only for this run; tmbench reads them by relative
    # path so the daemon's socket path stays short.
    inputs = os.path.join(build_dir, "inputs",
                          "%s-s%d-p%d" % (args.workload, args.seed, os.getpid()))
    rel_inputs = os.path.relpath(inputs, ROOT)
    try:
        try:
            gen = subprocess.run(
                [binary, "gen", "--workload", args.workload, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--dir",
                 rel_inputs], cwd=ROOT, stdout=sys.stderr,
                timeout=deadline - time.monotonic())
            if gen.returncode != 0:
                fail("input generation failed", 2)
            run = subprocess.run(
                [binary, "run", "--workload", args.workload, "--seconds",
                 str(args.seconds), "--trace", str(args.trace), "--threads",
                 str(threads), "--dir", rel_inputs],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=deadline - time.monotonic())
        except subprocess.TimeoutExpired:
            fail("inputs and run did not finish within %d s" % RUN_TIMEOUT_S, 1)
        spans = os.path.join(inputs, "spans-%s.json" % args.workload)
        if os.path.isfile(spans):
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(spans, os.path.join(
                traces, "%s-s%d.json" % (args.workload, args.seed)))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    print("host: nproc=%d N=%d l3=%s" % (nproc, threads, l3_size()))
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write(run.stdout)
        fail("tmbench printed no result (exit code %d)" % run.returncode, 1)
    # Every run reports exactly the manifest's metrics of its mode, in the
    # manifest's units; anything else is a defect of the benchmark.
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        fail("result metrics differ from BENCHMARK.json: missing %s, "
             "unexpected %s, wrong unit %s" % (missing, extra, wrong), 1)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
