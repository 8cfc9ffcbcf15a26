#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py                                  # every workload
  python3 perfbench/run.py --workload plan-100x             # one workload
  python3 perfbench/run.py --workload serve-drift-1m --seed 5 --seconds 30
  python3 perfbench/run.py --workload montecarlo-10x --trace 1

The library under src/ and the program perfbench/bench.cc are built with CMake
(Release) into .bench_build/perfbench. Each workload runs in its own process.
The script prints every metric by name with its unit and sample count, the
operations attempted and failed, and the output checks. Per workload, the
last line is one JSON object with the keys correct, attempted, failed and
metrics. The end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) it prints must be exactly those BENCHMARK.json lists.

Exit status: 0 when every output check passed, 1 when a check failed or the
printed metrics do not match BENCHMARK.json, 2 when the benchmark could not
build or run.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run measures for --seconds; set-up, warm-up, checks and (traced) the
# layer pass come on top.
RUN_OVERHEAD_LIMIT_S = 150


class BenchError(Exception):
    """The benchmark cannot build or run; no result is printed."""


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError(f"library sources not found under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"],
    ]
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:] + result.stderr[-4000:])
            raise BenchError("build step failed: " + " ".join(step))


def run_workload(spec, workload, args):
    command = [BINARY, "--workload", workload, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.trace:
        seed = "default" if args.seed is None else str(args.seed)
        command += ["--spans", os.path.join(BUILD_DIR, f"spans-{workload}-{seed}.json")]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                timeout=args.seconds + RUN_OVERHEAD_LIMIT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {args.seconds + RUN_OVERHEAD_LIMIT_S} s")
    lines = result.stdout.strip().splitlines()
    if result.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload}: perfbench exited with {result.returncode}")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{workload}: unparsable perfbench output")

    correct = bool(report["correct"]) and result.returncode == 0
    if report["workload"] != workload:
        sys.stderr.write(f"{workload}: perfbench reported workload {report['workload']!r}\n")
        correct = False
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected_units = {m["name"]: m["unit"] for m in expected}
    printed_units = {name: m["unit"] for name, m in report["metrics"].items()}
    if printed_units != expected_units:
        missing = sorted(set(expected_units) - set(printed_units))
        extra = sorted(set(printed_units) - set(expected_units))
        wrong = sorted(n for n in set(expected_units) & set(printed_units)
                       if expected_units[n] != printed_units[n])
        sys.stderr.write(f"{workload}: metrics differ from BENCHMARK.json: missing {missing}, "
                         f"not listed {extra}, wrong unit {wrong}\n")
        correct = False

    print(f"\n== {workload}  seed {report['seed']}  threads {report['threads']}  "
          f"trace {args.trace}")
    print(f"   ops {report['ops']}  ops_failed {report['ops_failed']}")
    for name, ok in report["checks"].items():
        print(f"   check {name}: {'ok' if ok else 'FAILED'}")
    for name, m in report["metrics"].items():
        tail = f"  p90 {m['p90']:.6g}" if "p90" in m else ""
        print(f"   {name:<52} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}{tail}")
    print(json.dumps({
        "correct": correct,
        "attempted": report["ops"],
        "failed": report["ops_failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in report["metrics"].items()},
    }), flush=True)
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload of BENCHMARK.json (default: all)")
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics and a span file instead of end-to-end")
    args = parser.parse_args()
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r} (BENCHMARK.json has {names})")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.seed is not None and args.seed < 0:
            raise BenchError("--seed must be >= 0")
        build()
        results = [run_workload(spec, w, args) for w in ([args.workload] if args.workload else names)]
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
