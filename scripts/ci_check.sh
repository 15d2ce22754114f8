#!/usr/bin/env bash
# CI gate: full test suite with deprecation warnings as errors, plus
# smoke invocations of the observability CLI surface.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tests (DeprecationWarning -> error) =="
# includes the engine-kernel differential harness
# (tests/sim/test_engine_equivalence.py): fast vs reference event loop,
# byte-identical traces / metrics / analysis / serve reports
python -W error::DeprecationWarning -m pytest -q tests

echo "== analytic dry-run model is bit-equal to the simulator =="
# the full autotune candidate grid over the bench's serve shapes, both
# profiles and both halo modes; exits 1 on any mismatch
python scripts/check_pipemodel.py

echo "== coverage gate (when pytest-cov is available) =="
if python -c "import pytest_cov" >/dev/null 2>&1; then
    # floor set at the level the seed suite established; raise it as
    # the suite grows, never lower it to make a change pass
    python -m pytest -q tests --cov=repro --cov-fail-under=80
else
    echo "pytest-cov not installed; skipping coverage gate"
fi

echo "== CLI smoke: profile =="
python -m repro profile stencil >/dev/null

echo "== CLI smoke: trace export is valid chrome-trace JSON =="
tmp="$(mktemp -t repro-trace-XXXXXX.json)"
trap 'rm -f "$tmp"' EXIT
python -m repro trace 3dconv -o "$tmp" >/dev/null
python - "$tmp" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert any(e["ph"] == "X" for e in events), "no span events in trace"
EOF

echo "== CLI smoke: chaos recovery matches reference =="
chaos_out="$(python -m repro chaos stencil --profile transient --seed 7)"
if ! echo "$chaos_out" | grep -q "reference match  yes"; then
    echo "chaos run did not recover to a reference match:" >&2
    echo "$chaos_out" >&2
    exit 1
fi
if echo "$chaos_out" | grep -q "faults injected  0"; then
    echo "chaos smoke injected no faults (seed drift?):" >&2
    echo "$chaos_out" >&2
    exit 1
fi

echo "== CLI smoke: the degrade chain ends on naive with an exact result =="
# no replays allowed: buffer and pipelined exhaust, so the run walks the
# whole attempt loop of run_with_recovery down to naive
degrade_out="$(python -m repro chaos stencil --profile chaos --seed 1 --retries 0)"
if ! echo "$degrade_out" | grep -q "model            naive" \
    || ! echo "$degrade_out" | grep -q "reference match  yes"; then
    echo "degrade-chain smoke did not end on naive with a reference match:" >&2
    echo "$degrade_out" >&2
    exit 1
fi

echo "== CLI smoke: multi-tenant serve on the 3-tenant example =="
serve_out="$(python -m repro serve examples/serve_workload.json)"
if ! echo "$serve_out" | grep -q "requests         3 (3 ok, 0 failed, 0 shed, 0 cancelled)"; then
    echo "serve smoke did not complete all 3 tenants:" >&2
    echo "$serve_out" >&2
    exit 1
fi
# the serial baseline must also drain cleanly
python -m repro serve examples/serve_workload.json --serial >/dev/null

echo "== CLI smoke: serve survives a mid-run device loss =="
chaos_serve="$(python -m repro serve examples/serve_workload.json \
    --chaos failover --devices 2 --seed 1 --json)"
python - <<EOF
import json
report = json.loads('''$chaos_serve''')
assert report["migrated"] >= 1, "chaos serve smoke saw no migration"
assert all(r["status"] == "ok" for r in report["requests"]), (
    "chaos serve smoke lost a request: "
    + str([r["status"] for r in report["requests"]])
)
EOF


echo "== CLI smoke: sharded serve spans two devices =="
sharded_serve="$(python -m repro serve examples/serve_workload.json \
    --devices 2 --json)"
python - <<EOF3
import json
report = json.loads('''$sharded_serve''')
assert all(r["status"] == "ok" for r in report["requests"]), (
    "sharded serve smoke lost a request"
)
alice = [r for r in report["requests"] if r["tenant"] == "alice"][0]
assert alice.get("shards") == 2, f"alice not sharded: {alice}"
assert sorted(alice.get("devices", [])) == [0, 1], (
    f"alice's shards not on both devices: {alice}"
)
EOF3

echo "== CLI smoke: sdc chaos is detected and recovered under checksums =="
sdc_serve="$(python -m repro serve examples/serve_workload.json \
    --chaos sdc --integrity checksum --seed 2 --json)"
python - <<EOF5
import json
report = json.loads('''$sdc_serve''')
assert report["corruptions"] >= 1, "sdc serve smoke detected no corruption"
assert report["verified"] > report["corruptions"], "sdc smoke barely verified"
assert all(r["status"] == "ok" for r in report["requests"]), (
    "sdc serve smoke failed to recover a request: "
    + str([r["status"] for r in report["requests"]])
)
EOF5

echo "== CLI smoke: straggler watchdog re-splits a slow device away =="
straggler_wl="$(mktemp -t repro-straggler-XXXXXX.json)"
trap 'rm -f "$tmp" "$straggler_wl"' EXIT
cat > "$straggler_wl" <<'EOF6'
{
  "device": "k40m",
  "devices": 3,
  "budget_mb": 0.5,
  "requests": [
    {"app": "stencil", "tenant": "s0", "shards": 3,
     "config": {"nz": 194, "ny": 64, "nx": 64}},
    {"app": "stencil", "tenant": "s1", "shards": 3,
     "config": {"nz": 194, "ny": 64, "nx": 64}}
  ]
}
EOF6
straggler_serve="$(python -m repro serve "$straggler_wl" \
    --chaos straggler --watchdog --seed 0 --json)"
python - <<EOF7
import json
report = json.loads('''$straggler_serve''')
assert report["resplits"] >= 1, "straggler smoke never re-split"
assert all(r["status"] == "ok" for r in report["requests"]), (
    "straggler serve smoke lost a request"
)
EOF7

echo "== CLI smoke: sharded analyze invariants hold =="
# --devices 2 runs the region sharded and exits non-zero if the
# aggregate clock or the share partition violates the sharding model
sharded_analyze="$(python -m repro analyze stencil --devices 2 --json)"
python - <<EOF4
import json
snap = json.loads('''$sharded_analyze''')
assert snap["shards"] == 2, f"expected 2 shards, got {snap.get('shards')}"
assert len(snap["shares"]) == 2 and all(s >= 1 for s in snap["shares"]), (
    f"bad shard shares: {snap.get('shares')}"
)
EOF4

echo "== CLI smoke: analyze breakdown sums to wall =="
analyze_out="$(python -m repro analyze stencil --json)"
python - <<EOF2
import json
snap = json.loads('''$analyze_out''')
total = sum(snap["causes"].values())
assert abs(total - snap["wall_s"]) <= 1e-9, (
    f"wait breakdown does not sum to wall: {total} vs {snap['wall_s']}"
)
assert abs(snap["critical_path_length_s"] - snap["makespan_s"]) <= 1e-9, (
    "critical-path length drifted from the simulated makespan"
)
assert snap["what_if"]["perfect_overlap"]["bound_s"] <= snap["wall_s"] + 1e-12, (
    "perfect-overlap bound exceeds measured wall"
)
EOF2

echo "== CLI smoke: analyze --baseline regression gate =="
# the checked-in golden snapshot is the baseline: the current build
# must not regress against it (exit code is the gate)
python -m repro analyze stencil --baseline tests/golden/analyze_stencil.json

echo "== CLI smoke: engine-bench gate exit codes =="
# tiny replay (no serve pair) so the smoke stays fast; the honest
# >= 5x measurement lives in benchmarks/test_engine_throughput.py
eb_dir="$(mktemp -d -t repro-enginebench-XXXXXX)"
trap 'rm -f "$tmp" "$straggler_wl"; rm -rf "$eb_dir"' EXIT
printf '{"schema": "repro/engine-bench/v1", "events_per_sec_ratio": 0.1}\n' \
    > "$eb_dir/ok.json"
printf '{"schema": "repro/engine-bench/v1", "events_per_sec_ratio": 1e9}\n' \
    > "$eb_dir/impossible.json"
printf 'not json\n' > "$eb_dir/broken.json"
# exit 0: bench runs, writes metrics, passes a permissive baseline
python -m repro engine-bench --events 6000 --no-serve \
    -o "$eb_dir/BENCH_engine.json" --baseline "$eb_dir/ok.json" >/dev/null
python - "$eb_dir/BENCH_engine.json" <<'EOF8'
import json, sys
m = json.load(open(sys.argv[1]))
assert m["schema"] == "repro/engine-bench/v1", m
assert m["events_per_sec_ratio"] > 1.0, (
    f"fast kernel not faster in smoke: {m['events_per_sec_ratio']}"
)
EOF8
# exit 1: an impossible baseline must read as a regression
if python -m repro engine-bench --events 6000 --no-serve \
    --baseline "$eb_dir/impossible.json" >/dev/null 2>&1; then
    echo "engine-bench gate passed an impossible baseline" >&2
    exit 1
fi
rc=0
python -m repro engine-bench --events 6000 --no-serve \
    --baseline "$eb_dir/impossible.json" >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "engine-bench regression should exit 1, got $rc" >&2
    exit 1
fi
# exit 2: a malformed baseline is an unusable-input error, not a pass
rc=0
python -m repro engine-bench --events 6000 --no-serve \
    --baseline "$eb_dir/broken.json" >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "engine-bench malformed baseline should exit 2, got $rc" >&2
    exit 1
fi
echo "== CLI smoke: failing runs exit non-zero =="
# a serve where requests die must not exit 0 (CI must see the failure):
# failover chaos on a single device leaves nowhere to migrate
rc=0
python -m repro serve examples/serve_workload.json \
    --chaos failover --seed 1 >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "serve with failed requests should exit 1, got $rc" >&2
    exit 1
fi
# a chaos run that cannot recover a reference match must exit 1 too:
# sdc without integrity checking corrupts the output silently
rc=0
python -m repro chaos stencil --profile sdc --seed 1 >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "chaos with corrupted output should exit 1, got $rc" >&2
    exit 1
fi

echo "== CLI smoke: journalled serve crash-resumes exactly-once =="
jr_dir="$(mktemp -d -t repro-journal-XXXXXX)"
trap 'rm -f "$tmp" "$straggler_wl"; rm -rf "$eb_dir" "$jr_dir"' EXIT
# the hostcrash profile kills the control plane after record 12 is
# durable; the injected crash is exit 3 (resumable), not a failure
rc=0
python -m repro serve examples/serve_workload.json \
    --chaos hostcrash --journal "$jr_dir/serve.journal" \
    --snapshot-every 8 >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "injected host crash should exit 3, got $rc" >&2
    exit 1
fi
# resume replays the journal, restores completed outputs from the
# sidecar store, and finishes the rest — re-executing nothing
resume_out="$(python -m repro serve examples/serve_workload.json \
    --journal "$jr_dir/serve.journal" --snapshot-every 8 --resume)"
if ! echo "$resume_out" | grep -q "resumed=1"; then
    echo "resumed serve did not report resumed=1:" >&2
    echo "$resume_out" >&2
    exit 1
fi
if ! echo "$resume_out" | grep -q "re-executed=0"; then
    echo "resume re-executed completed work:" >&2
    echo "$resume_out" >&2
    exit 1
fi
if ! echo "$resume_out" | grep -q "requests         3 (3 ok, 0 failed, 0 shed, 0 cancelled)"; then
    echo "resumed serve did not complete all 3 tenants:" >&2
    echo "$resume_out" >&2
    exit 1
fi

echo "== CLI smoke: continuous telemetry + SLO report =="
tele_dir="$(mktemp -d -t repro-telemetry-XXXXXX)"
trap 'rm -f "$tmp" "$straggler_wl"; rm -rf "$eb_dir" "$jr_dir" "$tele_dir"' EXIT
cat > "$tele_dir/mixed.json" <<'EOF9'
{
  "device": "k40m",
  "requests": [
    {"app": "qcd", "tenant": "qcd0", "config": {"n": 6},
     "slo": {"target": 0.99, "latency_s": 0.1}},
    {"app": "stencil", "tenant": "sten0",
     "config": {"nz": 18, "ny": 48, "nx": 48}},
    {"app": "qcd", "tenant": "qcd1", "config": {"n": 6},
     "slo": {"target": 0.99, "latency_s": 0.1}},
    {"app": "stencil", "tenant": "sten1",
     "config": {"nz": 18, "ny": 48, "nx": 48}}
  ]
}
EOF9
tele_out="$(python -m repro serve "$tele_dir/mixed.json" \
    --telemetry "$tele_dir/tele.jsonl" --slo-report)"
# the summary must carry the per-tenant SLO digest …
if ! echo "$tele_out" | grep -q "^slo qcd0"; then
    echo "serve --slo-report printed no slo summary line:" >&2
    echo "$tele_out" >&2
    exit 1
fi
# … and the Prometheus sidecar at least one exposition line
if ! grep -q "^repro_serve_requests_ok 4" "$tele_dir/tele.jsonl.prom"; then
    echo "telemetry prom dump lacks repro_serve_requests_ok:" >&2
    cat "$tele_dir/tele.jsonl.prom" >&2
    exit 1
fi
# the saved stream renders on the dashboard (and is a valid stream)
python -m repro top "$tele_dir/tele.jsonl" | grep -q "slo tenant"

echo "== bench smoke: paper bands hold on the issue path =="
# every paper_sweep pass checks the paper's headline bands (speedup
# 1.30-1.85x over Naive, memory savings) and reports "correct": false
# when one is missed, so an issue-path change cannot drift out of them
paper_out="$(python3 bench/run.py --workload paper_sweep --seed 1 \
    --seconds 1 --trace 0)"
if ! echo "$paper_out" | tail -n 1 | grep -q '"correct": true'; then
    echo "paper_sweep bench smoke did not report correct results:" >&2
    echo "$paper_out" | tail -n 5 >&2
    exit 1
fi

echo "== bench smoke: traced paper sweep is byte-identical at paper scale =="
# one untraced and one traced pass: both must hit the paper bands and
# produce byte-identical virtual results, so the chunk issue path
# cannot drift between the plain and the instrumented run
paper_traced_out="$(python3 bench/run.py --workload paper_sweep --seed 1 \
    --seconds 2 --trace 1)"
if ! echo "$paper_traced_out" | tail -n 1 | grep -q '"correct": true'; then
    echo "traced paper_sweep bench smoke did not report correct results:" >&2
    echo "$paper_traced_out" | tail -n 5 >&2
    exit 1
fi

echo "== bench smoke: deep-queue admission serves the same work =="
# serve_backlog admits 600 queued requests through the admission index;
# a pass whose report differs from the first pass's byte for byte, or
# a request that does not complete, reads as "correct": false
backlog_out="$(python3 bench/run.py --workload serve_backlog --seed 1 \
    --seconds 1 --trace 0)"
if ! echo "$backlog_out" | tail -n 1 | grep -q '"correct": true'; then
    echo "serve_backlog bench smoke did not report correct results:" >&2
    echo "$backlog_out" | tail -n 5 >&2
    exit 1
fi

echo "== bench smoke: durable serve recovers every request =="
# serve_durable is the one workload that runs transient faults,
# checksums, sharding and the journal together: a pass whose report
# differs from the first pass's, or a request that does not recover,
# reads as "correct": false
durable_out="$(python3 bench/run.py --workload serve_durable --seed 1 \
    --seconds 1 --trace 0)"
if ! echo "$durable_out" | tail -n 1 | grep -q '"correct": true'; then
    echo "serve_durable bench smoke did not report correct results:" >&2
    echo "$durable_out" | tail -n 5 >&2
    exit 1
fi

echo "== bench smoke: traced pass wraps every layer =="
# the traced ledger patches the layer calls bench/layers.py names, so a
# renamed call fails here with a LookupError, not on the next bench run
bench_out="$(python3 bench/run.py --workload serve_cold_plan --seed 1 \
    --seconds 1 --trace 1)"
if ! echo "$bench_out" | tail -n 1 | grep -q '"correct": true'; then
    echo "traced bench smoke did not report correct results:" >&2
    echo "$bench_out" | tail -n 5 >&2
    exit 1
fi

echo "CI checks passed."
