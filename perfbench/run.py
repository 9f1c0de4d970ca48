#!/usr/bin/env python3
"""Benchmark of the F²Tree simulator: builds the harness from source, runs one
workload, checks its simulated outputs and prints the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ledger. Workloads, metrics and
the reference oracle are described in perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "f2t_perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("campaign_packet", "scale_flow", "tcp_background")
# The reference outputs are recorded at both seeds; a claimed gain must
# also hold on the held-out seed, which is not used while tuning a change.
DEFAULT_SEED = 1
HELDOUT_SEED = 4242
# Leaves room for the last pass to overrun --seconds (a scale_flow pass takes
# about 12 s) while keeping a default invocation under three minutes.
HARNESS_SLACK_S = 145

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "runs_per_s": "1/s",
    "shard_s_p50": "s",
    "shard_s_p80": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# The software layers, as the modules under src/ are named.
LAYERS = ("core", "topo", "routing", "failure", "sim", "net", "transport",
          "stats", "exec")

PER_LAYER = {
    "topo.build_s": "s",
    "core.testbed_s": "s",
    "routing.converge_s": "s",
    "routing.controller_computations": "count",
    "routing.recompute_s": "s",
    "routing.spf_runs": "count",
    "routing.spf_incremental_frac": "ratio",
    "routing.fib_installs": "count",
    "routing.fib_useful_frac": "ratio",
    "routing.lsas_originated": "count",
    "failure.plan_s": "s",
    "core.spec_parse_s": "s",
    "core.enumerate_s": "s",
    "sim.loop_s": "s",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.calendar.grows": "count",
    "sim.calendar.shrinks": "count",
    "sim.calendar.far_jumps": "count",
    "sim.calendar.max_bucket_depth": "count",
    "net.packets_forwarded": "count",
    "net.drops": "count",
    "net.ns_per_forward": "ns",
    "transport.flows_completed": "count",
    "transport.retransmits": "count",
    "transport.fluid_retraces": "count",
    "stats.collect_s": "s",
    "core.artifact_write_s": "s",
    "exec.reduce_s": "s",
    "exec.busy_frac": "ratio",
    "exec.queue_wait_s": "s",
    "exec.steals": "count",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.unattributed_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "trace.converge_setup_frac": "ratio",
    "trace.loop_wall_frac": "ratio",
}

# Predicted recovery classes (EXPERIMENTS.md, Fig 4 and §V): F²Tree reroutes
# locally at the 60 ms detection floor; a fat tree waits for the control
# plane — the OSPF SPF hold (≈270 ms) or the controller round (≈114 ms).
# An off-path failure (the probe never crossed the link) loses nothing.
FLOOR_MS = (59.0, 62.0)
SPF_MS = (260.0, 300.0)
CENTRAL_MS = (110.0, 120.0)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build


def build():
    """Configures and builds the harness (Release) inside the checkout."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr,
                      stderr=sys.stderr).returncode:
        # A cache from another source tree cannot be reused; start over once.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        os.makedirs(BUILD_DIR, exist_ok=True)
        if subprocess.run(configure, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                              "--dirty"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


# ---------------------------------------------------------------------------
# Correctness oracle


def reference_key(workload, shrink):
    return f"{workload}/shrink" if shrink else workload


def load_reference(path):
    if path is None or not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def predicted_band(label):
    topo, control = label.split("/")[:2]
    if topo.startswith("f2"):
        return FLOOR_MS
    return CENTRAL_MS if control == "central" else SPF_MS


def class_errors(out):
    """Checks one run's outputs against the predicted recovery class."""
    if not out["ok"] or out.get("error"):
        return [f"no result ({out.get('error') or 'no scenario plan'})"]
    loss_ms = out["loss_ns"] / 1e6
    if not out["on_path"]:
        if out["loss_ns"] != 0 or out["lost"] != 0:
            return [f"off-path failure lost {out['lost']} packets"]
        return []
    lo, hi = predicted_band(out["run"])
    errors = []
    if not lo <= loss_ms <= hi:
        errors.append(f"connectivity loss {loss_ms:.3f} ms outside the "
                      f"predicted [{lo}, {hi}] ms")
    if "flows" in out:
        if not 0 < out["completed"] <= out["flows"]:
            errors.append(f"{out['completed']} of {out['flows']} flows done")
        fct = (out["fct_p50_ms"], out["fct_p99_ms"], out["fct_p999_ms"])
        if not 0 < fct[0] <= fct[1] <= fct[2]:
            errors.append("FCT percentiles out of order")
        if not (0 <= out["miss_in"] <= 1 and 0 <= out["miss_out"] <= 1):
            errors.append("deadline-miss fraction outside [0, 1]")
    return errors


def check(doc, expected):
    """Counts runs whose outputs are wrong. Every pass, untraced or traced,
    must reproduce the first untraced pass exactly, match the recorded
    reference when there is one for this seed, and land in its predicted
    class."""
    passes = doc["passes"] + doc["traced_passes"]
    base = passes[0]
    attempted = failed = 0
    problems = []
    if expected is not None and (
            len(expected["runs"]) != len(base["runs"])):
        problems.append("run count differs from the reference")
    for pi, p in enumerate(passes):
        pass_errors = []
        if (p["outputs"] != base["outputs"]
                or len(p["runs"]) != len(base["runs"])):
            pass_errors.append("pass outputs differ from the first pass")
        if expected is not None and p["outputs"] != expected["outputs"]:
            pass_errors.append("pass outputs differ from the reference")
        for ri, r in enumerate(p["runs"]):
            attempted += 1
            out = r["outputs"]
            errors = list(pass_errors)
            if ri >= len(base["runs"]) or out != base["runs"][ri]["outputs"]:
                errors.append("differs from the first pass")
            if expected is not None and (ri >= len(expected["runs"])
                                         or out != expected["runs"][ri]):
                errors.append("differs from the reference")
            errors += class_errors(out)
            if errors:
                failed += 1
                problems.append(f"pass {pi} {out['run']}: {'; '.join(errors)}")
    if problems and failed == 0:
        failed = attempted
    return attempted, failed, problems


def write_reference(path, key, seed, doc):
    ref = load_reference(path)
    base = doc["passes"][0]
    ref.setdefault(key, {})[str(seed)] = {
        "outputs": base["outputs"],
        "runs": [r["outputs"] for r in base["runs"]],
    }
    with open(path, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# Metrics


def nearest_rank(sorted_values, pct):
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end_metrics(doc):
    passes = doc["passes"]
    runs = [r for p in passes for r in p["runs"]]
    run_walls = sorted(r["wall_s"] for r in runs)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "runs_per_s": len(runs) / sum(p["wall_s"] for p in passes),
        "shard_s_p50": nearest_rank(run_walls, 50),
        "shard_s_p80": nearest_rank(run_walls, 80),
        "events_per_s": (sum(r["events"] for r in runs)
                         / sum(r["loop_s"] for r in runs)),
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def union_length(intervals, lo, hi):
    total, end = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def ledger(spans):
    """Self time per layer: a span's duration minus the part of it its
    children cover (children on other threads overlap; their union counts
    once). Returns (self seconds by layer, total seconds by span name)."""
    children = defaultdict(list)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            children[parent].append((start, end))
    self_by_layer = defaultdict(float)
    total_by_name = defaultdict(float)
    for i, (name, start, end, parent, run) in enumerate(spans):
        total_by_name[name] += end - start
        own = (end - start) - union_length(children[i], start, end)
        self_by_layer[name.split(".")[0]] += own
    return self_by_layer, total_by_name


def per_layer_metrics(doc):
    traced = doc["traced_passes"]
    n = len(traced)
    jobs = doc["jobs"]
    self_by_layer, total = ledger(doc["spans"])
    # Thread time the ledger can attribute: the main thread over the whole
    # pass plus the other pool threads while the pool runs.
    thread_s = sum(p["wall_s"] + (jobs - 1) * p["pool_s"] for p in traced)
    counters = [p["counters"] for p in traced]

    def count(key):
        return statistics.median(c[key] for c in counters)

    def per_pass(name):
        return total[name] / n

    runs = [r for p in traced for r in p["runs"]]
    loop_s = per_pass("sim.loop")
    events = statistics.median(sum(r["events"] for r in p["runs"])
                               for p in traced)
    forwarded = count("packets_forwarded")
    computations = count("controller_computations")
    spf_runs = count("spf_runs")
    installs = count("fib_installs") + count("fib_noop_installs")
    worker_s = sum((p["pool_s"] if jobs > 1 else p["wall_s"]) for p in traced)
    setup_s = statistics.median(p["setup_s"] for p in traced)
    attributed = sum(self_by_layer[layer] for layer in LAYERS)
    m = {
        "topo.build_s": per_pass("topo.build"),
        "core.testbed_s": per_pass("core.testbed"),
        "routing.converge_s": per_pass("routing.converge"),
        "routing.controller_computations": computations,
        "routing.recompute_s": (count("central_loop_s") / computations
                                if computations else 0.0),
        "routing.spf_runs": spf_runs,
        "routing.spf_incremental_frac": (count("spf_incremental_runs")
                                         / spf_runs if spf_runs else 0.0),
        "routing.fib_installs": count("fib_installs"),
        "routing.fib_useful_frac": (count("fib_installs") / installs
                                    if installs else 0.0),
        "routing.lsas_originated": count("lsas_originated"),
        "failure.plan_s": per_pass("failure.plan"),
        "core.spec_parse_s": per_pass("core.spec_parse"),
        "core.enumerate_s": per_pass("core.enumerate"),
        "sim.loop_s": loop_s,
        "sim.events": events,
        "sim.ns_per_event": loop_s * 1e9 / events if events else 0.0,
        "sim.calendar.grows": count("calendar_grows"),
        "sim.calendar.shrinks": count("calendar_shrinks"),
        "sim.calendar.far_jumps": count("calendar_far_jumps"),
        "sim.calendar.max_bucket_depth": count("calendar_max_bucket_depth"),
        "net.packets_forwarded": forwarded,
        "net.drops": count("drops"),
        "net.ns_per_forward": loop_s * 1e9 / forwarded if forwarded else 0.0,
        "transport.flows_completed": count("flows_completed"),
        "transport.retransmits": count("retransmits"),
        "transport.fluid_retraces": count("fluid_retraces"),
        "stats.collect_s": per_pass("stats.collect"),
        "core.artifact_write_s": per_pass("core.artifact_write"),
        "exec.reduce_s": statistics.median(p["reduce_s"] for p in traced),
        "exec.busy_frac": sum(r["wall_s"] for r in runs) / (jobs * worker_s),
        "exec.queue_wait_s": statistics.mean(r["queue_wait_s"] for r in runs),
        "exec.steals": statistics.median(p["steals"] for p in traced),
        **{f"self.{layer}_s": self_by_layer[layer] / n for layer in LAYERS},
        "trace.unattributed_s": self_by_layer["bench"] / n,
        "trace.coverage": attributed / thread_s,
        "trace.overhead_s": (statistics.median(p["wall_s"] for p in traced)
                             - doc["passes"][0]["wall_s"]),
        "trace.converge_setup_frac": (per_pass("routing.converge") / setup_s
                                      if setup_s else 0.0),
        "trace.loop_wall_frac": loop_s * n / thread_s,
    }
    return m


def write_chrome_trace(path, spans):
    events = []
    for name, start, end, parent, run in spans:
        events.append({"name": name, "cat": name.split(".")[0], "ph": "X",
                       "ts": start * 1e6, "dur": (end - start) * 1e6,
                       "pid": 1, "tid": run, "args": {"parent": parent}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shrink", action="store_true",
                        help="small topologies (for the self-check)")
    parser.add_argument("--reference", default=REFERENCE,
                        help="reference outputs to check against")
    parser.add_argument("--write-reference", metavar="PATH",
                        help="record this run's outputs as the reference")
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.shrink:
        cmd.append("--shrink")
    timeout = args.seconds + HARNESS_SLACK_S
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {timeout:g} s")
        return 1
    if proc.returncode != 0:
        log(f"harness failed: {proc.stderr.strip()}")
        return 1
    doc = json.loads(proc.stdout)

    key = reference_key(args.workload, args.shrink)
    if args.write_reference:
        write_reference(args.write_reference, key, args.seed, doc)
    expected = load_reference(args.reference).get(key, {}).get(str(args.seed))
    attempted, failed, problems = check(doc, expected)
    for problem in problems[:20]:
        log(f"output check: {problem}")

    if args.trace:
        metrics = per_layer_metrics(doc)
        units = PER_LAYER
        trace_path = os.path.join(
            BUILD_DIR, f"trace-{args.workload}-{args.seed}.json")
        write_chrome_trace(trace_path, doc["spans"])
    else:
        metrics = end_to_end_metrics(doc)
        units = END_TO_END

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "reference": "exact" if expected is not None else "class-only",
        "git_rev": git_rev(),
        "build_type": doc["build_type"],
        "hardware_threads": doc["hardware_threads"],
        "passes": len(doc["passes"]),
        "traced_passes": len(doc["traced_passes"]),
        "failed_frac": failed / attempted,
    }
    if doc["build_type"] != "Release":
        stamp["warning"] = "non-Release build: timings are not comparable"
        log(stamp["warning"])
    print("stamp " + json.dumps(stamp))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
