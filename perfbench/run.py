#!/usr/bin/env python3
"""Build and run one perfbench workload; print its result as JSON.

    python3 perfbench/run.py --workload frames_open --seed 1 --seconds 30 --trace 0

Run from the root of a Homunculus checkout. The first run configures and
builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs rebuild
incrementally. It then runs the arithmetic unit tests and the workload.

Everything the workload prints is passed through; the last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are exactly BENCHMARK.json's end_to_end list (--trace 0)
or per_layer list (--trace 1). A per-layer metric the workload does not
exercise is reported as 0 and named on an "absent" line with the reason.
Exit status: 0 when every correctness gate passed, 1 when a gate, the
build or the tests failed, 2 on bad usage or a checkout without sources.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("frames_open", "routed_closed", "compile_ad")
RUN_TIMEOUT_S = 170
RESULT_TAG = "PERFBENCH_RESULT "


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """git HEAD when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
        if sha:
            return "git " + sha
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources sha256 " + digest.hexdigest()[:16]


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    build_dir = target / "perfbench"
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            fail("build step failed: " + " ".join(step))
    return build_dir


def run_unit_tests(build_dir):
    tests = build_dir / "perfbench_tests"
    if not tests.exists():
        print("meta    perfbench_tests = not built (no GoogleTest)")
        return
    done = subprocess.run([str(tests)],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=120)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-8000:])
        fail("perfbench_tests failed")
    print("meta    perfbench_tests = passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "runtime" / "server.hpp").exists() or \
            not spec_path.exists():
        fail(f"{ROOT} is not a Homunculus checkout with BENCHMARK.json "
             "(no src/runtime/server.hpp)", 2)
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = build()
    print(f"meta    source = {source_id()}")
    run_unit_tests(build_dir)

    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    raw = None
    for line in done.stdout.splitlines():
        if line.startswith(RESULT_TAG):
            raw = json.loads(line[len(RESULT_TAG):])
        else:
            print(line)
    if raw is None:
        fail(f"{args.workload} exited {done.returncode} without a result")

    metrics = {}
    problems = []
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = raw["metrics"].get(name)
        if got is None:
            if not args.trace:
                problems.append(f"end-to-end metric {name} was not measured")
                continue
            if name not in raw["absent"]:
                print(f"absent  {name}: layer not on the {args.workload} "
                      "path")
            metrics[name] = {"value": 0, "unit": unit}
            continue
        if got["unit"] != unit:
            problems.append(f"{name} measured in {got['unit']}, "
                            f"BENCHMARK.json says {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    correct = bool(raw["correct"]) and done.returncode == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
