#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result line.

    python3 perfbench/run.py --workload campaign-small --seed 1 --seconds 30 --trace 0

Run from the repository root; --workload all runs every workload in turn. Builds perfbench/ (which builds the udring
library from the repository sources) into .bench_build/perfbench, runs the
untraced binary (--trace 0: the end-to-end metrics of BENCHMARK.json) or the
traced binary (--trace 1: the per-layer metrics), checks the run's outputs
against perfbench/pins.json, and prints as its last stdout line one JSON
object with the keys correct, attempted, failed and metrics. Exits non-zero
when a check or a pin fails, and without a result line when the benchmark
cannot run at all.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"the udring sources (CMakeLists.txt, src/) are not in {ROOT}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", str(BUILD_DIR), "-j", jobs])


def run_build_step(command):
    # Build output goes to stderr: stdout's last line is the result.
    step = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if step.returncode != 0:
        raise BenchError(f"build step failed ({step.returncode}): {' '.join(command)}")


def expected_metrics(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def pin_mismatches(pins_path, raw):
    """Pinned outputs for this workload, seed and size that the run missed."""
    pins = json.loads(Path(pins_path).read_text())["pins"]
    size = "smoke" if raw["smoke"] else "full"
    pinned = pins.get(raw["workload"], {}).get(size, {}).get(str(raw["seed"]), {})
    outputs = raw["outputs"]
    mismatches = []
    for key, want in pinned.items():
        got = outputs.get(key)
        if got != want:
            mismatches.append(f"{key}: pinned {want}, got {got}")
    return pinned, mismatches


def run_workload(args, workload):
    """Runs one workload and prints its report; returns the exit status."""
    traced = args.trace == 1
    try:
        want = expected_metrics(traced)
        build()
        binary = BUILD_DIR / ("perfbench_traced" if traced else "perfbench")
        command = [str(binary), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds)]
        if args.smoke:
            command.append("--smoke")
        if traced:
            command += ["--trace-out", str(BUILD_DIR / "traces" / f"{workload}.tsv")]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=BINARY_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"{binary.name} exited with {proc.returncode}")
        lines = proc.stdout.rstrip("\n").split("\n")
        raw = json.loads(lines[-1])
        got = {name: m["unit"] for name, m in raw["metrics"].items()}
        missing = [name for name in want if name not in got]
        if missing:
            raise BenchError(f"metrics not reported: {', '.join(missing)}")
        wrong_unit = [name for name in want if got[name] != want[name]]
        if wrong_unit:
            raise BenchError(f"metrics with the wrong unit: {', '.join(wrong_unit)}")
        pinned, mismatches = pin_mismatches(args.pins, raw)
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {workload}: {error}", file=sys.stderr)
        return 2

    for line in lines[:-1]:
        print(line)
    print(f"provenance {json.dumps(raw['provenance'], sort_keys=True)}")
    print(f"pins {len(pinned) - len(mismatches)} of {len(pinned)} match")
    for mismatch in mismatches:
        print(f"check FAIL pin {mismatch}")
    failed = raw["failed"] + len(mismatches)
    result = {
        "correct": failed == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {name: raw["metrics"][name] for name in want},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs (harness self-test)")
    parser.add_argument("--pins", default=str(BENCH_DIR / "pins.json"),
                        help="pin file to check outputs against")
    args = parser.parse_args()
    workloads = [args.workload]
    if args.workload == "all":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]
    status = 0
    for workload in workloads:
        if len(workloads) > 1:
            print(f"workload {workload}", flush=True)
        status = max(status, run_workload(args, workload))
    return status


if __name__ == "__main__":
    sys.exit(main())
