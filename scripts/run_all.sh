#!/usr/bin/env bash
# Regenerates every paper artifact and the test report into ./results/,
# then smoke-tests the perf fast path: a Release (-O2/-O3 -DNDEBUG) build
# runs bench_micro and the run fails if any BENCH_*.json is missing or
# malformed (each bench emits machine-readable results; see
# bench/bench_util.hpp).
# Usage: scripts/run_all.sh [build-dir] [release-build-dir]
set -u
BUILD="${1:-build}"
RBUILD="${2:-build-release}"
OUT=results
mkdir -p "$OUT"
fail=0

echo "== tests =="
ctest --test-dir "$BUILD" --output-on-failure 2>&1 | tee "$OUT/tests.txt"
[ "${PIPESTATUS[0]}" -eq 0 ] || fail=1

echo "== observability smoke =="
# One observed recovery run must produce a schema-valid metrics JSON and
# event JSONL, plus the reconstructed timeline on stdout.
if "$BUILD"/tools/f2tsim recover --topo f2 --ports 8 --condition C1 \
    --metrics-out "$OUT/metrics.json" --events-out "$OUT/events.jsonl" \
    --timeline >"$OUT/timeline.txt" 2>&1; then
  python3 - "$OUT/metrics.json" "$OUT/events.jsonl" <<'EOF'
import json, sys

ok = True
metrics_path, events_path = sys.argv[1], sys.argv[2]
try:
    with open(metrics_path) as f:
        doc = json.load(f)
    for key in ("schema_version", "at_ns", "metrics", "histograms"):
        if key not in doc:
            raise ValueError(f"missing key {key!r}")
    if doc["schema_version"] != 1:
        raise ValueError(f"unexpected schema_version {doc['schema_version']}")
    if not doc["metrics"]:
        raise ValueError("empty metrics list")
    for m in doc["metrics"]:
        for key in ("name", "kind", "value"):
            if key not in m:
                raise ValueError(f"metric missing key {key!r}")
    print(f"OK      {metrics_path} ({len(doc['metrics'])} metrics)")
except (OSError, ValueError, json.JSONDecodeError) as e:
    print(f"BAD     {metrics_path}: {e}")
    ok = False
try:
    with open(events_path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    if not lines:
        raise ValueError("empty stream")
    header, events = lines[0], lines[1:]
    if header.get("schema_version") != 1 or header.get("stream") != "f2t-events":
        raise ValueError(f"bad header {header}")
    if header.get("events") != len(events):
        raise ValueError(f"header says {header.get('events')}, got {len(events)}")
    if not events:
        raise ValueError("no events recorded")
    for e in events:
        for key in ("at", "type"):
            if key not in e:
                raise ValueError(f"event missing key {key!r}")
    print(f"OK      {events_path} ({len(events)} events)")
except (OSError, ValueError, json.JSONDecodeError) as e:
    print(f"BAD     {events_path}: {e}")
    ok = False
sys.exit(0 if ok else 1)
EOF
  [ $? -eq 0 ] || fail=1
else
  echo "observability smoke FAILED (see $OUT/timeline.txt)"
  fail=1
fi

echo "== traced recover smoke =="
# A traced, sampled recovery run must produce a loadable Chrome
# trace_event JSON (the complete parent-linked recovery span chain) and a
# schema-valid telemetry JSONL with a rollup trailer.
if "$BUILD"/tools/f2tsim recover --topo f2 --ports 4 --condition C1 \
    --trace-out "$OUT/trace.json" --samples-out "$OUT/samples.jsonl" \
    --sample-interval-ms 5 >"$OUT/traced_recover.txt" 2>&1; then
  python3 - "$OUT/trace.json" "$OUT/samples.jsonl" <<'EOF'
import json, sys

ok = True
trace_path, samples_path = sys.argv[1], sys.argv[2]
try:
    with open(trace_path) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    if not events:
        raise ValueError("no trace events")
    spans = [e for e in events if e.get("ph") == "X"]
    names = {e["name"] for e in spans}
    # The causal chain of one single-cut recovery, end to end.
    chain = {"recovery", "link_down", "detect", "fib_delta",
             "first_rerouted_packet"}
    missing = chain - names
    if missing:
        raise ValueError(f"span chain incomplete, missing {sorted(missing)}")
    for e in spans:
        for key in ("ts", "dur", "pid", "tid", "args"):
            if key not in e:
                raise ValueError(f"span {e['name']} missing key {key!r}")
        if e["dur"] < 0:
            raise ValueError(f"span {e['name']} has negative duration")
    flows_s = sum(1 for e in events if e.get("ph") == "s")
    flows_f = sum(1 for e in events if e.get("ph") == "f")
    if flows_s == 0 or flows_s != flows_f:
        raise ValueError(f"unbalanced causal arrows ({flows_s} s / {flows_f} f)")
    print(f"OK      {trace_path} ({len(spans)} spans, {flows_s} causal links)")
except (OSError, KeyError, ValueError, json.JSONDecodeError) as e:
    print(f"BAD     {trace_path}: {e}")
    ok = False
try:
    with open(samples_path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    if len(lines) < 3:
        raise ValueError("expected header, rows and rollup trailer")
    header, rows, trailer = lines[0], lines[1:-1], lines[-1]
    if header.get("schema_version") != 1 or header.get("stream") != "f2t-samples":
        raise ValueError(f"bad header {header}")
    if header.get("rows") != len(rows):
        raise ValueError(f"header says {header.get('rows')} rows, got {len(rows)}")
    width = len(header["series"])
    prev = -1
    for r in rows:
        if len(r["v"]) != width:
            raise ValueError("row width != series count")
        if r["at"] <= prev:
            raise ValueError("rows not strictly chronological")
        prev = r["at"]
    rollups = {r["name"] for r in trailer["rollups"]}
    if rollups != set(header["series"]):
        raise ValueError("rollup trailer does not cover every series")
    print(f"OK      {samples_path} ({len(rows)} rows x {width} series)")
except (OSError, KeyError, ValueError, json.JSONDecodeError) as e:
    print(f"BAD     {samples_path}: {e}")
    ok = False
sys.exit(0 if ok else 1)
EOF
  [ $? -eq 0 ] || fail=1
else
  echo "traced recover smoke FAILED (see $OUT/traced_recover.txt)"
  fail=1
fi

echo "== campaign artifact byte-identity (observability defaults) =="
# A spec that sets the observability knobs to their defaults must produce
# the exact artifact of a spec that never mentions them: the knobs are
# omitted from the canonical echo, so pre-observability artifacts remain
# byte-identical.
cat >"$OUT/spec_plain.json" <<'EOF'
{"name": "ident", "topologies": [{"name": "f2", "ports": 4}],
 "conditions": ["C1"], "seeds": 1, "horizon_ms": 1200}
EOF
cat >"$OUT/spec_defaults.json" <<'EOF'
{"name": "ident", "topologies": [{"name": "f2", "ports": 4}],
 "conditions": ["C1"], "seeds": 1, "horizon_ms": 1200,
 "trace": false, "sample_interval_ms": 0}
EOF
if "$BUILD"/tools/f2tsim campaign --spec "$OUT/spec_plain.json" --no-profile \
      --out "$OUT/campaign_plain.json" >"$OUT/campaign_ident.txt" 2>&1 \
    && "$BUILD"/tools/f2tsim campaign --spec "$OUT/spec_defaults.json" \
      --no-profile --out "$OUT/campaign_defaults.json" \
      >>"$OUT/campaign_ident.txt" 2>&1; then
  if cmp -s "$OUT/campaign_plain.json" "$OUT/campaign_defaults.json"; then
    echo "OK      default observability knobs leave the artifact byte-identical"
  else
    echo "BAD     artifact changed when trace/sample_interval_ms were set to defaults"
    fail=1
  fi
else
  echo "byte-identity smoke FAILED (see $OUT/campaign_ident.txt)"
  fail=1
fi

echo "== campaign smoke =="
# A small multi-threaded campaign must produce a schema-valid artifact,
# and its deterministic portion must be byte-identical to a single-job
# rerun of the same spec (the engine's core contract).
if "$BUILD"/tools/f2tsim campaign --topo f2 --ports 4 --conditions C1,C2 \
      --link-sites 2 --seeds 2 --jobs 4 --no-profile \
      --out "$OUT/campaign_j4.json" >"$OUT/campaign.txt" 2>&1 \
    && "$BUILD"/tools/f2tsim campaign --topo f2 --ports 4 --conditions C1,C2 \
      --link-sites 2 --seeds 2 --jobs 1 --no-profile \
      --out "$OUT/campaign_j1.json" >>"$OUT/campaign.txt" 2>&1; then
  if ! cmp -s "$OUT/campaign_j1.json" "$OUT/campaign_j4.json"; then
    echo "BAD     campaign artifact differs between --jobs 1 and --jobs 4"
    fail=1
  fi
  python3 - "$OUT/campaign_j4.json" <<'EOF'
import json, sys

path = sys.argv[1]
try:
    with open(path) as f:
        doc = json.load(f)
    for key in ("schema_version", "kind", "spec", "runs", "aggregates"):
        if key not in doc:
            raise ValueError(f"missing key {key!r}")
    if doc["schema_version"] != 1 or doc["kind"] != "f2t-campaign":
        raise ValueError("bad schema_version/kind")
    if not doc["runs"]:
        raise ValueError("no runs")
    for r in doc["runs"]:
        for key in ("i", "topo", "control", "site", "seed", "ok", "on_path",
                    "loss_ns", "sent", "lost"):
            if key not in r:
                raise ValueError(f"run missing key {key!r}")
    if doc["aggregates"][0]["class"] != "total":
        raise ValueError("first aggregate must be 'total'")
    if doc["aggregates"][0]["runs"] != len(doc["runs"]):
        raise ValueError("total aggregate does not cover every run")
    for a in doc["aggregates"]:
        for key in ("class", "runs", "affected", "loss_ms_mean",
                    "loss_ms_p50", "loss_ms_p99", "gap_loss_hist"):
            if key not in a:
                raise ValueError(f"aggregate missing key {key!r}")
    print(f"OK      {path} ({len(doc['runs'])} runs, "
          f"{len(doc['aggregates'])} aggregates)")
except (OSError, ValueError, json.JSONDecodeError, IndexError) as e:
    print(f"BAD     {path}: {e}")
    sys.exit(1)
EOF
  [ $? -eq 0 ] || fail=1
else
  echo "campaign smoke FAILED (see $OUT/campaign.txt)"
  fail=1
fi

echo "== probe-BFD gray-failure campaign smoke =="
# Probe-based detection with a gray fault: BFD hello sessions must detect
# the silent packet-loss failure and the campaign artifact must stay
# schema-valid, echo the non-default knobs, and remain byte-identical
# across job counts.
if "$BUILD"/tools/f2tsim campaign --topo f2 --ports 4 --conditions C1 \
      --link-sites 2 --seeds 2 --jobs 4 --no-profile \
      --detection probe --fault gray \
      --out "$OUT/campaign_probe_j4.json" >"$OUT/campaign_probe.txt" 2>&1 \
    && "$BUILD"/tools/f2tsim campaign --topo f2 --ports 4 --conditions C1 \
      --link-sites 2 --seeds 2 --jobs 1 --no-profile \
      --detection probe --fault gray \
      --out "$OUT/campaign_probe_j1.json" >>"$OUT/campaign_probe.txt" 2>&1; then
  if ! cmp -s "$OUT/campaign_probe_j1.json" "$OUT/campaign_probe_j4.json"; then
    echo "BAD     probe campaign artifact differs between --jobs 1 and --jobs 4"
    fail=1
  fi
  python3 - "$OUT/campaign_probe_j4.json" <<'EOF'
import json, sys

path = sys.argv[1]
try:
    with open(path) as f:
        doc = json.load(f)
    spec = doc["spec"]
    if spec.get("detection") != "probe":
        raise ValueError("spec must echo detection=probe")
    if spec.get("fault") != "gray":
        raise ValueError("spec must echo fault=gray")
    if not doc["runs"]:
        raise ValueError("no runs")
    bad = [r["i"] for r in doc["runs"] if not r["ok"]]
    if bad:
        raise ValueError(f"runs {bad} failed")
    # A gray failure is invisible to the oracle but not to BFD probes:
    # every affected run must measure a bounded (nonzero, recovered)
    # connectivity gap.
    affected = [r for r in doc["runs"] if r["on_path"]]
    if not affected:
        raise ValueError("no run steered traffic across the gray link")
    for r in affected:
        if not (0 < r["loss_ns"] < 500_000_000):
            raise ValueError(f"run {r['i']} gap {r['loss_ns']}ns not in (0, 500ms)")
    print(f"OK      {path} ({len(doc['runs'])} runs, "
          f"{len(affected)} affected, probe detection)")
except (OSError, KeyError, ValueError, json.JSONDecodeError) as e:
    print(f"BAD     {path}: {e}")
    sys.exit(1)
EOF
  [ $? -eq 0 ] || fail=1
else
  echo "probe campaign smoke FAILED (see $OUT/campaign_probe.txt)"
  fail=1
fi

echo "== process-mode campaign smoke =="
# The same spec run in-process (--jobs) and across forked worker
# processes (--workers) must produce byte-identical artifacts, and the
# survivability sweep section must be schema-valid.
cat >"$OUT/spec_workers.json" <<'EOF'
{"name": "workers", "topologies": [{"name": "f2", "ports": 4}],
 "conditions": ["C1"], "link_sites": 2, "random_sites": 6, "seeds": 2,
 "horizon_ms": 1200}
EOF
rm -rf "$OUT/campaign_w2.json.state"
if "$BUILD"/tools/f2tsim campaign --spec "$OUT/spec_workers.json" --jobs 4 \
      --no-profile --out "$OUT/campaign_w0.json" \
      >"$OUT/campaign_workers.txt" 2>&1 \
    && "$BUILD"/tools/f2tsim campaign --spec "$OUT/spec_workers.json" \
      --workers 2 --no-profile --out "$OUT/campaign_w2.json" \
      >>"$OUT/campaign_workers.txt" 2>&1; then
  if ! cmp -s "$OUT/campaign_w0.json" "$OUT/campaign_w2.json"; then
    echo "BAD     campaign artifact differs between --jobs 4 and --workers 2"
    fail=1
  fi
  python3 - "$OUT/campaign_w2.json" <<'EOF'
import json, sys

path = sys.argv[1]
try:
    with open(path) as f:
        doc = json.load(f)
    surv = doc["survivability"]
    if surv["reliability_ms"] != [1, 10, 100, 1000]:
        raise ValueError(f"bad reliability thresholds {surv['reliability_ms']}")
    if not surv["groups"]:
        raise ValueError("no survivability groups")
    for g in surv["groups"]:
        for key in ("class", "draws", "affected", "failed",
                    "availability_mean", "availability_p50",
                    "availability_min", "reliability"):
            if key not in g:
                raise ValueError(f"group missing key {key!r}")
        if len(g["reliability"]) != 4:
            raise ValueError("reliability curve must have 4 points")
        if not all(0 <= v <= 1 for v in g["reliability"]):
            raise ValueError(f"reliability out of [0,1]: {g['reliability']}")
        if sorted(g["reliability"]) != g["reliability"]:
            raise ValueError(f"reliability not monotone: {g['reliability']}")
        if not (0 <= g["availability_min"] <= g["availability_mean"] <= 1):
            raise ValueError("availability out of order")
    draws = sum(g["draws"] for g in surv["groups"])
    rsites = [r for r in doc["runs"] if r["site"].startswith("R")]
    if draws != len(rsites):
        raise ValueError(f"groups cover {draws} draws, runs hold {len(rsites)}")
    print(f"OK      {path} ({len(surv['groups'])} survivability groups, "
          f"{draws} draws)")
except (OSError, KeyError, ValueError, json.JSONDecodeError) as e:
    print(f"BAD     {path}: {e}")
    sys.exit(1)
EOF
  [ $? -eq 0 ] || fail=1
else
  echo "process-mode campaign smoke FAILED (see $OUT/campaign_workers.txt)"
  fail=1
fi

echo "== campaign kill/resume smoke =="
# Kill a forked worker (a child of the campaign process) mid-campaign
# with SIGKILL; the parent must fail,
# and --resume must complete the campaign into an artifact byte-identical
# to an uninterrupted run. (If the campaign wins the race and finishes
# before the kill lands, resume is a no-op and the comparison still
# holds.)
cat >"$OUT/spec_kill.json" <<'EOF'
{"name": "kill", "topologies": [{"name": "f2", "ports": 8}],
 "conditions": ["C1"], "link_sites": 4, "seeds": 2}
EOF
rm -rf "$OUT/campaign_kill.json.state"
if "$BUILD"/tools/f2tsim campaign --spec "$OUT/spec_kill.json" --jobs 4 \
      --no-profile --out "$OUT/campaign_kill_ref.json" \
      >"$OUT/campaign_kill.txt" 2>&1; then
  "$BUILD"/tools/f2tsim campaign --spec "$OUT/spec_kill.json" --workers 2 \
      --no-profile --out "$OUT/campaign_kill.json" \
      >>"$OUT/campaign_kill.txt" 2>&1 &
  campaign_pid=$!
  worker_pid=""
  for _ in $(seq 1 100); do
    worker_pid=$(pgrep -P "$campaign_pid" | head -n 1) || true
    [ -n "$worker_pid" ] && break
    sleep 0.05
  done
  if [ -n "$worker_pid" ]; then
    kill -9 "$worker_pid" 2>/dev/null || true
  else
    # Workers are forked children of the campaign process; finding none
    # means the smoke killed nothing and proves nothing.
    echo "BAD     no worker child of the campaign process was found to kill"
    fail=1
  fi
  parent_rc=0
  wait "$campaign_pid" || parent_rc=$?
  if [ -n "$worker_pid" ] && [ "$parent_rc" -eq 0 ]; then
    # The kill may have raced the worker's own exit; only a kill that
    # landed mid-run must fail the parent. A zero rc with a killed
    # worker means the campaign completed — tolerated, resume below
    # still has to reproduce the reference bytes.
    echo "NOTE    worker kill raced campaign completion (parent rc 0)"
  fi
  if "$BUILD"/tools/f2tsim campaign --resume --no-profile \
        --out "$OUT/campaign_kill.json" >>"$OUT/campaign_kill.txt" 2>&1; then
    if cmp -s "$OUT/campaign_kill_ref.json" "$OUT/campaign_kill.json"; then
      echo "OK      killed campaign resumed to a byte-identical artifact"
    else
      echo "BAD     resumed artifact differs from the uninterrupted run"
      fail=1
    fi
  else
    echo "campaign --resume FAILED (see $OUT/campaign_kill.txt)"
    fail=1
  fi
else
  echo "kill/resume reference campaign FAILED (see $OUT/campaign_kill.txt)"
  fail=1
fi

echo "== workload campaign smoke =="
# An incast TCP workload riding a packet-fidelity campaign must produce a
# deterministic SLO section (byte-identical across job counts) with sane
# FCT percentiles, while workload-free artifacts above stay untouched.
if "$BUILD"/tools/f2tsim campaign --topo f2 --ports 4 --conditions C1 \
      --seeds 2 --jobs 4 --no-profile \
      --workload incast --wl-fanin 4 --wl-flow-bytes 2000 --wl-deadline-ms 100 \
      --out "$OUT/campaign_wl_j4.json" >"$OUT/campaign_wl.txt" 2>&1 \
    && "$BUILD"/tools/f2tsim campaign --topo f2 --ports 4 --conditions C1 \
      --seeds 2 --jobs 1 --no-profile \
      --workload incast --wl-fanin 4 --wl-flow-bytes 2000 --wl-deadline-ms 100 \
      --out "$OUT/campaign_wl_j1.json" >>"$OUT/campaign_wl.txt" 2>&1; then
  if ! cmp -s "$OUT/campaign_wl_j1.json" "$OUT/campaign_wl_j4.json"; then
    echo "BAD     workload campaign artifact differs between --jobs 1 and --jobs 4"
    fail=1
  fi
  python3 - "$OUT/campaign_wl_j4.json" <<'EOF'
import json, sys

path = sys.argv[1]
try:
    with open(path) as f:
        doc = json.load(f)
    if doc["spec"].get("workload", {}).get("kind") != "incast":
        raise ValueError("spec must echo the workload axis")
    slo = doc["slo"]
    for key in ("runs", "flows", "completed", "fct_p50_ms_mean",
                "fct_p99_ms_mean", "fct_p999_ms_mean", "fct_p99_ms_max",
                "fct_p999_ms_max", "deadline_flows_in", "deadline_flows_out",
                "miss_in", "miss_out"):
        if key not in slo:
            raise ValueError(f"slo aggregate missing key {key!r}")
    if not (0 < slo["flows"] and 0 < slo["completed"] <= slo["flows"]):
        raise ValueError(f"implausible flow counts {slo}")
    if not (0 < slo["fct_p50_ms_mean"] <= slo["fct_p99_ms_mean"]
            <= slo["fct_p999_ms_mean"]):
        raise ValueError("FCT percentile means out of order")
    for r in doc["runs"]:
        for key in ("slo_flows", "fct_p50_ms", "fct_p999_ms", "miss_in"):
            if key not in r:
                raise ValueError(f"run {r['i']} missing SLO key {key!r}")
    print(f"OK      {path} ({slo['flows']} flows, "
          f"p999 max {slo['fct_p999_ms_max']:.2f} ms)")
except (OSError, KeyError, ValueError, json.JSONDecodeError) as e:
    print(f"BAD     {path}: {e}")
    sys.exit(1)
EOF
  [ $? -eq 0 ] || fail=1
else
  echo "workload campaign smoke FAILED (see $OUT/campaign_wl.txt)"
  fail=1
fi

echo "== knob table: flags vs spec =="
# Run knobs are one table that drives both the spec keys and the f2tsim
# flags: the same probe + flap + workload campaign given either way must
# produce a byte-identical artifact, and out-of-range flags must be
# rejected up front (exit 1), not run or crash.
cat >"$OUT/spec_knobs.json" <<'EOF'
{"name": "knobs", "topologies": [{"name": "f2", "ports": 4}],
 "conditions": ["C1"], "link_sites": 1, "seeds": 2,
 "detection": "probe", "fault": "flap", "flap_period_ms": 80,
 "flap_cycles": 3,
 "workload": {"kind": "incast", "fanin": 4, "flow_bytes": 2000,
              "deadline_ms": 100}}
EOF
if "$BUILD"/tools/f2tsim campaign --spec "$OUT/spec_knobs.json" --jobs 4 \
      --no-profile --out "$OUT/campaign_knobs_spec.json" \
      >"$OUT/campaign_knobs.txt" 2>&1 \
    && "$BUILD"/tools/f2tsim campaign --name knobs --topo f2 --ports 4 \
      --conditions C1 --link-sites 1 --seeds 2 --jobs 4 --no-profile \
      --detection probe --fault flap --flap-period-ms 80 --flap-cycles 3 \
      --workload incast --wl-fanin 4 --wl-flow-bytes 2000 --wl-deadline-ms 100 \
      --out "$OUT/campaign_knobs_flags.json" >>"$OUT/campaign_knobs.txt" 2>&1; then
  if cmp -s "$OUT/campaign_knobs_spec.json" "$OUT/campaign_knobs_flags.json"; then
    echo "OK      flag and spec campaigns give byte-identical artifacts"
  else
    echo "BAD     flag and spec campaigns differ"
    fail=1
  fi
else
  echo "knob table smoke FAILED (see $OUT/campaign_knobs.txt)"
  fail=1
fi
for bad in "campaign --seeds 0" "campaign --link-sites -3" \
    "campaign --gray-loss 2" "campaign --control foo" \
    "recover --detection probe --bfd-tx-ms 0" \
    "campaign --conditions C1,C2 --fidelity flow --fault gray" \
    "campaign --conditions C1,C2 --fidelity flow --detection probe"; do
  # Word splitting of $bad is intended: it is a command plus its flags.
  # shellcheck disable=SC2086
  "$BUILD"/tools/f2tsim $bad --topo f2 --ports 4 \
      >>"$OUT/campaign_knobs.txt" 2>&1
  rc=$?
  if [ "$rc" -eq 1 ]; then
    echo "OK      f2tsim $bad rejected"
  else
    echo "BAD     f2tsim $bad exited $rc, expected 1"
    fail=1
  fi
done

echo "== benches =="
for b in "$BUILD"/bench/bench_*; do
  [ -x "$b" ] || continue
  name=$(basename "$b")
  echo "-- $name"
  # Benches write their BENCH_<name>.json into the cwd.
  (cd "$OUT" && "../$b") 2>&1 | tee "$OUT/$name.txt"
done

echo "== release bench smoke =="
if cmake -B "$RBUILD" -S . -DCMAKE_BUILD_TYPE=Release >"$OUT/release_configure.txt" 2>&1 \
    && cmake --build "$RBUILD" -j --target bench_micro bench_spf bench_scale_sweep bench_flow_scale >"$OUT/release_build.txt" 2>&1; then
  mkdir -p "$OUT/release"
  if ! (cd "$OUT/release" && "../../$RBUILD/bench/bench_micro" \
        --benchmark_min_time=0.05) >"$OUT/release/bench_micro.txt" 2>&1; then
    echo "release bench_micro FAILED (see $OUT/release/bench_micro.txt)"
    fail=1
  fi
  # The control-plane fast path: bench_spf exits nonzero if the
  # incremental solver diverges from compute_spf or falls back to full
  # runs on the single-link-failure scenario.
  if ! (cd "$OUT/release" && "../../$RBUILD/bench/bench_spf") \
      >"$OUT/release/bench_spf.txt" 2>&1; then
    echo "release bench_spf FAILED (see $OUT/release/bench_spf.txt)"
    fail=1
  fi
  # The hybrid-fidelity fast path: --full runs the flow-level k=32/48 fat
  # trees on top of the k<=20 two-fidelity sweep. The hard wall-time
  # budget fails the smoke if the flow-level path regresses to anywhere
  # near packet-level cost (a healthy run is minutes under the cap).
  if ! (cd "$OUT/release" && timeout 600 "../../$RBUILD/bench/bench_scale_sweep" \
        --full) >"$OUT/release/bench_scale_sweep.txt" 2>&1; then
    echo "release bench_scale_sweep FAILED or blew the 600 s budget (see $OUT/release/bench_scale_sweep.txt)"
    fail=1
  fi
  # The flow-scale transport path: arena-backed FluidFlowTable churn at
  # 10^3..10^5 concurrent flows plus a 10^5-flow workload window. The
  # wall-time budget fails the smoke if per-flow-event cost stops being
  # flat in the flow count.
  if ! (cd "$OUT/release" && timeout 600 "../../$RBUILD/bench/bench_flow_scale") \
      >"$OUT/release/bench_flow_scale.txt" 2>&1; then
    echo "release bench_flow_scale FAILED or blew the 600 s budget (see $OUT/release/bench_flow_scale.txt)"
    fail=1
  fi
else
  echo "release build FAILED (see $OUT/release_build.txt)"
  fail=1
fi

echo "== bench json validation =="
# The release smoke must have produced BENCH_micro.json, and every
# BENCH_*.json anywhere under results/ must parse with the right schema.
python3 - "$OUT" <<'EOF'
import glob, json, os, sys

out = sys.argv[1]
paths = sorted(glob.glob(os.path.join(out, "**", "BENCH_*.json"), recursive=True))
ok = True
for bench in ("micro", "spf", "scale_sweep", "flow_scale"):
    required = os.path.join(out, "release", f"BENCH_{bench}.json")
    if required not in paths:
        print(f"MISSING {required}: release bench_{bench} smoke produced no JSON")
        ok = False
for path in paths:
    try:
        with open(path) as f:
            doc = json.load(f)
        for key in ("benchmark", "git_rev", "results"):
            if key not in doc:
                raise ValueError(f"missing key {key!r}")
        if not isinstance(doc["results"], list) or not doc["results"]:
            raise ValueError("empty results")
        for r in doc["results"]:
            for key in ("name", "metric", "value", "unit"):
                if key not in r:
                    raise ValueError(f"result missing key {key!r}")
            if not isinstance(r["value"], (int, float)):
                raise ValueError(f"non-numeric value in {r['name']}")
        print(f"OK      {path} ({len(doc['results'])} results)")
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"BAD     {path}: {e}")
        ok = False
sys.exit(0 if ok else 1)
EOF
[ $? -eq 0 ] || fail=1

echo "== hybrid-fidelity guards =="
# Two hard gates on the Release scale sweep: the k=48 flow-level recovery
# run must have completed (its keys exist), and at k=20 the flow-level
# simulation phase must stay >= 10x faster than packet-level.
python3 - "$OUT/release/BENCH_scale_sweep.json" <<'EOF'
import json, sys

try:
    with open(sys.argv[1]) as f:
        doc = json.load(f)
except OSError as e:
    print(f"MISSING {sys.argv[1]}: {e}")
    sys.exit(1)
vals = {r["name"]: r["value"] for r in doc["results"]}
ok = True
for key in ("fat_tree_flow_loss/k=48", "sim_wall/flow/k=48"):
    if key not in vals:
        print(f"FAIL    k=48 flow-level recovery did not complete ({key} missing)")
        ok = False
packet = vals.get("sim_wall/packet/k=20", 0.0)
flow = vals.get("sim_wall/flow/k=20", 0.0)
if packet <= 0 or flow <= 0:
    print("FAIL    k=20 sim_wall rows missing from scale sweep")
    ok = False
else:
    ratio = packet / flow
    status = "OK     " if ratio >= 10 else "FAIL   "
    print(f"{status} flow-level speedup at k=20: {ratio:.1f}x "
          f"(packet {packet:.1f} ms vs flow {flow:.1f} ms, need >= 10x)")
    ok = ok and ratio >= 10
sys.exit(0 if ok else 1)
EOF
[ $? -eq 0 ] || fail=1

echo "== flow-scale guards =="
# Hard gates on the Release flow-scale bench: the 10^5-flow churn row must
# exist (the sweep completed at full scale), the arena table must beat the
# embedded pre-arena implementation by >= 5x at 10^4 flows, and the
# workload window must actually have held ~10^5 concurrent flows.
python3 - "$OUT/release/BENCH_flow_scale.json" <<'EOF'
import json, sys

try:
    with open(sys.argv[1]) as f:
        doc = json.load(f)
except OSError as e:
    print(f"MISSING {sys.argv[1]}: {e}")
    sys.exit(1)
vals = {r["name"]: r["value"] for r in doc["results"]}
ok = True
if "events_per_s/arena/n=100000" not in vals:
    print("FAIL    10^5-flow churn row missing (sweep did not reach full scale)")
    ok = False
speedup = vals.get("speedup_vs_legacy/n=10000", 0.0)
status = "OK     " if speedup >= 5 else "FAIL   "
print(f"{status} arena vs pre-arena at 10^4 flows: {speedup:.1f}x (need >= 5x)")
ok = ok and speedup >= 5
peak = vals.get("peak_active/workload", 0)
status = "OK     " if peak >= 100000 else "FAIL   "
print(f"{status} workload window peak concurrency: {peak:.0f} flows "
      "(need >= 100000)")
ok = ok and peak >= 100000
sys.exit(0 if ok else 1)
EOF
[ $? -eq 0 ] || fail=1

echo "== bench regression guard (non-fatal) =="
# Compares the Release-run BENCH_*.json under results/release/ against the
# committed baselines in bench/baselines/. Direction-aware: "real_time"
# regresses upward, "speedup" regresses downward. Absolute nanoseconds are
# machine-dependent, so the tolerance is generous and a regression only
# prints a warning table — it never fails the run.
python3 - "$OUT/release" bench/baselines <<'EOF'
import glob, json, os, sys

out_dir, base_dir = sys.argv[1], sys.argv[2]
TOLERANCE = 0.30  # 30% drift allowed before warning

def load(path):
    with open(path) as f:
        doc = json.load(f)
    return {r["name"]: r for r in doc.get("results", [])}

warnings = []
compared = 0
for base_path in sorted(glob.glob(os.path.join(base_dir, "BENCH_*.json"))):
    name = os.path.basename(base_path)
    out_path = os.path.join(out_dir, name)
    if not os.path.exists(out_path):
        continue
    try:
        base, cur = load(base_path), load(out_path)
    except (OSError, json.JSONDecodeError) as e:
        print(f"SKIP    {name}: {e}")
        continue
    for key, b in base.items():
        c = cur.get(key)
        if c is None or not b["value"] or b["metric"] not in ("real_time", "speedup"):
            continue
        compared += 1
        ratio = c["value"] / b["value"]
        if b["metric"] == "real_time" and ratio > 1 + TOLERANCE:
            warnings.append((name, key, b["value"], c["value"],
                             f"{(ratio - 1) * 100:+.0f}% slower"))
        elif b["metric"] == "speedup" and ratio < 1 - TOLERANCE:
            warnings.append((name, key, b["value"], c["value"],
                             f"{(1 - ratio) * 100:.0f}% less speedup"))
if warnings:
    print(f"WARNING {len(warnings)} of {compared} tracked metrics regressed "
          f"beyond {TOLERANCE:.0%} (numbers are machine-dependent):")
    print(f"  {'file':<24} {'metric':<40} {'baseline':>12} {'current':>12}  drift")
    for name, key, b, c, drift in warnings:
        print(f"  {name:<24} {key:<40} {b:>12.1f} {c:>12.1f}  {drift}")
else:
    print(f"OK      {compared} tracked metrics within {TOLERANCE:.0%} of baselines")
EOF

if [ "$fail" -ne 0 ]; then
  echo "run_all: FAILED (tests, release smoke, or bench json validation)"
  exit 1
fi
echo "results written to $OUT/"
