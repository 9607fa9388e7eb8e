#!/usr/bin/env python3
"""Benchmark of record for the ISOBAR library.

Builds the perfbench binary (Release) from this checkout's sources and runs
one workload:

  python3 perfbench/run.py --workload checkpoint --seed 1 --seconds 35 --trace 0

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: every end-to-end metric of BENCHMARK.json when
--trace 0, every per-layer metric when --trace 1. Claims are re-checked on
RECHECK_SEED, a seed not used while tuning.

  python3 perfbench/run.py --self-test
      tiny-scale run of every workload in both modes: checks metric names,
      units and the output schema, and that a corrupted container is
      counted as a failed operation instead of crashing the run.
  python3 perfbench/run.py --compare BASE.result.json NEW.result.json
      side-by-side metrics of two full result files (written under
      .bench_build/perfbench/out); refuses files from different host shapes.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("checkpoint", "service", "analysis")
PRIMARY_SEED = 1
RECHECK_SEED = 97
HOST_SHAPE = ("nproc", "build_type", "simd", "compiler")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(bdir, ignore_errors=True)
            raise SystemExit("perfbench: cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise SystemExit("perfbench: build failed")
    return os.path.join(bdir, "perfbench")


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def drive(binary, workload, seed, seconds, trace, extra=()):
    """Runs the binary from the checkout root; returns (code, stdout lines)."""
    out_dir = os.path.relpath(os.path.join(build_dir(), "out"), ROOT)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir, "--commit", commit(), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=175)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    """The final JSON line, or None when it is missing or malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def schema_problems(result, expected):
    """Differences between a result's metrics and BENCHMARK.json's list."""
    problems = []
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        problems.append("failed must be a whole number")
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        problems.append("metric names %s != %s" % (sorted(metrics), sorted(names)))
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            problems.append("%s: unit %r, want %r" % (m["name"], got.get("unit"), m["unit"]))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: value %r is not a finite number" % (m["name"], value))
    return problems


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    failures = []
    for workload in WORKLOADS:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines = drive(binary, workload, PRIMARY_SEED, 1, trace, ["--tiny"])
            result = parse_result(lines)
            label = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None:
                failures.append("%s: exit %d, result %r" % (label, code, result))
                continue
            problems = schema_problems(result, expected)
            if not result["correct"] or result["failed"]:
                problems.append("a clean run reported failures")
            if trace == 0:
                zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
                if zero:
                    problems.append("end-to-end metrics read 0: %s" % zero)
            failures += ["%s: %s" % (label, p) for p in problems]
            log("self-test %-22s %s" % (label, "ok" if not problems else "FAILED"))
        # The oracle must count damage as failed operations, not crash.
        code, lines = drive(binary, workload, PRIMARY_SEED, 1, 0, ["--tiny", "--corrupt"])
        result = parse_result(lines)
        ok = code == 1 and result is not None and not result["correct"] \
            and result["failed"] > 0
        log("self-test %-22s %s" % (workload + " corrupt", "ok" if ok else "FAILED"))
        if not ok:
            failures.append("%s corrupt: exit %d, result %r" % (workload, code, result))
    for failure in failures:
        log("FAILED", failure)
    return 1 if failures else 0


def compare(base_path, new_path):
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    shape = {k: (base["host"].get(k), new["host"].get(k)) for k in HOST_SHAPE}
    differing = {k: v for k, v in shape.items() if v[0] != v[1]}
    if differing:
        log("perfbench: refusing to compare results from different host "
            "shapes: %s" % differing)
        return 2
    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        log("perfbench: results are of different workloads or modes")
        return 2
    print("%-40s %16s %16s %9s" % ("metric", "base", "new", "change"))
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            continue
        change = (n["value"] - b["value"]) / b["value"] if b["value"] else 0.0
        print("%-40s %16.6g %16.6g %+8.1f%% %s" % (
            name, b["value"], n["value"], 100 * change, b["unit"]))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PRIMARY_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    binary = build()
    code, lines = drive(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    result = parse_result(lines)
    if result is None:
        for line in lines:
            log(line)
        log("perfbench: the binary produced no result (exit %d)" % code)
        return code or 1
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
