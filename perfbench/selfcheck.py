#!/usr/bin/env python3
"""Self-check of the benchmark on shrunken workloads (~15 s once built).

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it asserts that the untraced run emits
every end-to-end metric and the traced run every per-layer metric, each with
its declared unit; that both runs pass the output check against a reference
recorded by the first; and that a perturbed reference makes the run count as
failed. Scratch files go to .bench_build/perfbench/selfcheck.
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench", "selfcheck")


def run(workload, trace, reference, write_reference=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--shrink", "--reference", reference]
    if write_reference:
        cmd += ["--write-reference", write_reference]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(result, declared, label):
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    assert not missing and not extra, (
        f"{label}: missing {missing}, extra {extra}")
    for name, unit in want.items():
        entry = got[name]
        assert entry["unit"] == unit, f"{label}: {name} unit {entry['unit']}"
        assert isinstance(entry["value"], (int, float)) and math.isfinite(
            entry["value"]), f"{label}: {name} value {entry['value']!r}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    reference = os.path.join(WORK, "reference.json")
    perturbed = os.path.join(WORK, "perturbed.json")

    for workload in (w["name"] for w in bench["workloads"]):
        plain = run(workload, 0, reference, write_reference=reference)
        expect_metrics(plain, bench["end_to_end"], f"{workload} --trace 0")
        assert plain["correct"] and plain["failed"] == 0, plain
        assert plain["attempted"] >= 1, plain
        for name, entry in plain["metrics"].items():
            assert entry["value"] > 0, f"{workload}: {name} is not positive"

        traced = run(workload, 1, reference)
        expect_metrics(traced, bench["per_layer"], f"{workload} --trace 1")
        assert traced["correct"] and traced["failed"] == 0, traced

        with open(reference) as f:
            ref = json.load(f)
        bad = copy.deepcopy(ref)
        bad[f"{workload}/shrink"]["1"]["runs"][0]["loss_ns"] += 1
        with open(perturbed, "w") as f:
            json.dump(bad, f)
        broken = run(workload, 0, perturbed)
        assert not broken["correct"] and broken["failed"] >= 1, broken
        print(f"selfcheck: {workload} ok ({plain['attempted']} runs checked, "
              f"perturbed reference failed {broken['failed']})")
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
