"""Self-tests of the benchmark harness, on scaled-down (``--quick``) inputs.

Not part of the program's test suite; run with::

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
from layers import LAYERS, PER_LAYER_UNITS, TARGETS
from ledger import Ledger, Target, install, resolve

SPEC = json.loads(run.SPEC_PATH.read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def traced():
    """One short traced run of every workload, shared by the tests below."""
    return {w: run.measure(w, 1, 3.0, trace=True, quick=True) for w in WORKLOADS}


def test_traced_runs_are_correct(traced):
    for name, result in traced.items():
        assert result["correct"], (name, result["errors"])
        assert result["failed"] == 0, name


def test_ledger_shares_sum_to_one(traced):
    for name, result in traced.items():
        per_layer = result["per_layer"]
        shares = sum(per_layer[f"{layer}.share"] for layer in LAYERS)
        assert abs(shares + per_layer["bench.unattributed"] - 1.0) < 1e-6, name
        # self times are disjoint slices of the traced wall
        assert per_layer["bench.unattributed"] >= -1e-9, name


def test_trace_overhead_is_bounded(traced):
    for name, result in traced.items():
        assert result["per_layer"]["bench.trace_overhead"] <= 0.30, name


def test_exact_metrics_repeat_across_runs(traced):
    for name in WORKLOADS:
        again = run.measure(name, 1, 0.0, quick=True)
        assert again["virtual"] == traced[name]["virtual"], name


def test_every_wrapper_target_resolves_and_restores():
    originals = [resolve(t.path)[2] for t in TARGETS]
    restore = install(Ledger(), TARGETS)
    assert all(resolve(t.path)[2] is not raw for t, raw in zip(TARGETS, originals))
    restore()
    assert all(resolve(t.path)[2] is raw for t, raw in zip(TARGETS, originals))


def test_missing_target_raises_naming_it():
    bogus = Target("core.plan", "repro.core.plan:RegionPlan.no_such_method")
    with pytest.raises(LookupError, match="no_such_method"):
        install(Ledger(), [TARGETS[0], bogus])
    # nothing was patched: the valid target before it is untouched
    assert not hasattr(resolve(TARGETS[0].path)[2], "__wrapped__")


def test_self_time_excludes_child_spans():
    ledger = Ledger()
    inner = ledger.wrap(Target("b", "m:inner"), lambda: sum(range(20000)))
    outer = ledger.wrap(Target("a", "m:outer"), lambda: [inner() for _ in range(3)])
    outer()
    assert ledger.calls("b") == 3
    assert ledger.incl_s("m:outer") == pytest.approx(
        ledger.self_s("a") + ledger.self_s("b")
    )
    assert [s[4] for s in ledger.spans] == [-1, 0, 0, 0]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, key):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "serve_backlog",
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, check=True,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert [(n, m["unit"]) for n, m in last["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC[key]
    ]


def test_benchmark_json_names_follow_the_contract():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER_UNITS.items())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("parent, change, verdict", [
    ([1.00, 1.01, 0.99, 1.00, 1.02], [0.80, 0.81, 0.79, 0.80, 0.82], "better"),
    ([1.00, 1.01, 0.99, 1.00, 1.02], [1.30, 1.31, 1.29, 1.30, 1.32], "worse"),
    ([1.00, 1.01, 0.99, 1.00, 1.02], [1.01, 0.99, 1.00, 1.02, 1.00], "unchanged"),
    ([1.00, 1.50, 0.60, 1.00, 1.40], [1.05, 1.60, 0.70, 1.10, 1.30], "unresolved"),
])
def test_compare_verdicts(parent, change, verdict):
    assert run.host_verdict(parent, change, "lower", 0.10) == verdict
