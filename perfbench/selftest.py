#!/usr/bin/env python3
"""Self-test of the benchmark harness at smoke size.

    python3 perfbench/selftest.py

Run from the repository root. For every workload it runs perfbench/run.py
--smoke untraced and traced, and checks that:
  - the run passes and its last line has exactly the keys correct, attempted,
    failed and metrics;
  - every metric BENCHMARK.json names for that mode is printed, with its unit;
  - the traced run's exact counts equal the untraced run's outputs.
Then it checks that a run against a copy of pins.json with one corrupted
pin fails, and that the benchmark fails without a result line in a
directory holding only BENCHMARK.json and perfbench/. Exits non-zero on
the first failed expectation.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORK_DIR = ROOT / ".bench_build" / "perfbench" / "selftest"
WORKLOADS = ("campaign-small", "campaign-large", "mc-verify", "fuzz-checked")
SEED = 1


def run(workload, trace, pins=None, script=RUN, cwd=ROOT):
    command = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
               "--seconds", "1", "--trace", str(trace), "--smoke"]
    if pins:
        command += ["--pins", str(pins)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=900)


def expect(condition, what):
    if not condition:
        raise AssertionError(what)
    print(f"ok   {what}")


def result_of(done, label):
    expect(done.returncode == 0,
           f"{label}: exits 0" + ("" if done.returncode == 0 else f"; stderr: {done.stderr[-500:]}"))
    lines = done.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result line has exactly correct/attempted/failed/metrics")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: correct, no failures, {result['attempted']} attempted")
    outputs = {}
    for line in lines:
        if line.startswith("output "):
            key, value = line[len("output "):].split(" = ", 1)
            outputs[key] = value
    return result, outputs


def summed(outputs, suffix):
    return sum(int(v) for k, v in outputs.items() if k.endswith(suffix))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json names the four workloads")
    for workload in WORKLOADS:
        untraced, outputs = result_of(run(workload, 0), f"{workload} untraced")
        traced, _ = result_of(run(workload, 1), f"{workload} traced")
        for mode, result in (("end_to_end", untraced), ("per_layer", traced)):
            want = {m["name"]: m["unit"] for m in spec[mode]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload}: every {mode} metric printed with its unit")
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{workload}: every {mode} value is a number")
        layer = {name: m["value"] for name, m in traced["metrics"].items()}
        pairs = {
            "campaign-small": [("exp.scenarios", ".scenarios")],
            "campaign-large": [("exp.scenarios", ".scenarios")],
            "mc-verify": [("mc.states_expanded", ".states_expanded"),
                          ("mc.states_deduped", ".states_deduped"),
                          ("mc.replays", ".replays"), ("mc.actions", ".actions")],
            "fuzz-checked": [("explore.actions", ".total_actions")],
        }[workload]
        for metric, suffix in pairs:
            expect(layer[metric] == summed(outputs, suffix),
                   f"{workload}: traced {metric} {layer[metric]:g} equals the untraced "
                   f"outputs' {summed(outputs, suffix)}")

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
    pinned = pins["pins"]["fuzz-checked"]["smoke"][str(SEED)]
    pinned["fuzz0.digest"] = "0" * 16
    corrupted = WORK_DIR / "pins.json"
    corrupted.write_text(json.dumps(pins))
    done = run("fuzz-checked", 0, pins=corrupted)
    result = json.loads(done.stdout.strip().split("\n")[-1])
    expect(done.returncode != 0 and not result["correct"] and result["failed"] >= 1,
           "a corrupted pin fails the run")

    bare = WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    done = run("campaign-small", 0, script=bare / "perfbench" / "run.py", cwd=bare)
    expect(done.returncode != 0 and "correct" not in done.stdout,
           "without the repository sources the benchmark fails without a result")
    shutil.rmtree(bare)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as failure:
        print(f"FAIL {failure}")
        sys.exit(1)
