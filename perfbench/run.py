#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload study|chaos|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --steady K [--seed N] [--seconds S]
    python3 perfbench/run.py --test

Run from the repository root. The first form configures and builds the
harness and the wsx libraries into .bench_build/ (incrementally after the
first time) and runs one measurement; the last line of its standard output
is the JSON result. --steady runs the workload K times with seeds N..N+K-1
and prints, per metric, the median, quartiles, (q3-q1)/median and
(max-min)/median: the evidence the bounds in BENCHMARK.json rest on.
--test builds and runs the harness's own unit tests.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds `targets`; build output goes to stderr."""
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", here, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)  # retry from scratch next time
            return False
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", *targets]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def source_identity():
    """The git commit when run from a git checkout, else a digest of the
    sources the benchmark builds from."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for root in ("src", "perfbench"):
        for directory, subdirs, files in os.walk(root):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(path.encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sources-sha1:" + digest.hexdigest()


def measure(workload, seed, seconds, trace, commit):
    """Runs the harness once; returns (exit code, stdout lines)."""
    binary = os.path.join(BUILD_DIR, "perfbench")
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--commit", commit]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, []
    return done.returncode, done.stdout.splitlines()


def steady(args, commit):
    """Runs one workload `args.steady` times and prints each metric's spread."""
    values = {}
    units = {}
    failures = 0
    for k in range(args.steady):
        seed = args.seed + k
        code, lines = measure(args.workload, seed, args.seconds, args.trace, commit)
        if code != 0 or not lines:
            log(f"run {k} (seed {seed}) failed")
            return 1
        result = json.loads(lines[-1])
        failures += 0 if result["correct"] and result["failed"] == 0 else 1
        series = dict(result["metrics"])
        if len(lines) >= 2 and lines[-2].startswith('{"raw"'):
            extra = json.loads(lines[-2])
            for group in ("raw", "host"):
                series.update({f"{group}:{name}": m for name, m in extra[group].items()})
        for name, metric in series.items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"run {k} seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()),
            flush=True)
    print(f"{args.workload}: {args.steady} runs, {failures} incorrect")
    print(f"{'metric':34} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
          f"{'range/med':>9}")
    for name, series in values.items():
        if len(series) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        spread = (q3 - q1) / median if median else float("nan")
        width = (max(series) - min(series)) / median if median else float("nan")
        print(f"{name:34} {units[name]:6} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{width:9.4f}")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["study", "chaos", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K")
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not args.test and args.workload is None:
        parser.error("--workload is required")

    if args.test:
        if not build(["perfbench_tests"]):
            log("build failed")
            return 1
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_tests")]).returncode

    if not build(["perfbench"]):
        log("build failed")
        return 1
    commit = source_identity()
    if args.steady > 0:
        return steady(args, commit)
    code, lines = measure(args.workload, args.seed, args.seconds, args.trace, commit)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
