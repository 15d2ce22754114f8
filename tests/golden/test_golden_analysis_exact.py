"""Exact golden of region results and their critical-path analyses.

``tests/golden/analysis_exact.json`` pins, for every case below, the
unrounded ``analyze_result(res).to_dict()`` and ``res.to_dict()`` with
every float written as ``float.hex``.  ``analyze_stencil.json`` rounds
to 12 digits and covers one app; this file catches a last-bit change
anywhere in the analysis or the result digest: a reordered sum, an
edge resolved differently, a busy time computed another way.

Cases: the four apps under the pipelined-buffer model (observability
on, so the result digest carries the engine-utilization gauges), the
stencil's pipelined and naive baselines over two sweeps, transient and
chaos fault profiles absorbed by replay, ``integrity="checksum"``, and
a 2-shard run (one entry per device).

Regenerate intentionally with::

    PYTHONPATH=src python -m pytest tests/golden/test_golden_analysis_exact.py -q --update-golden
    git diff tests/golden/
"""

from __future__ import annotations

import json
from pathlib import Path
from unittest import mock

import pytest

import repro.obs.analyze as analyze_mod
from repro.apps.common import new_runtime
from repro.faults import FaultPolicy, fault_profile
from repro.obs import Observability, analyze_result
from repro.sim.stream import reset_stream_ids

from tests.integration.test_integrity import _setup

GOLDEN = Path(__file__).resolve().parent / "analysis_exact.json"

#: the golden-trace sizes (several chunks, streams and engine handoffs)
APP_CONFIGS = {
    "conv3d": {"nz": 10, "ny": 16, "nx": 16},
    "matmul": {"n": 96, "block": 16},
    "qcd": {"n": 6},
    "stencil": {"nz": 10, "ny": 16, "nx": 16, "iters": 1},
}


def _app(app, model, obs=None, **over):
    cfg = {**APP_CONFIGS[app], **over}
    if app == "stencil":
        from repro.apps import stencil as m

        return m.run_model(model, m.StencilConfig(**cfg), "k40m", virtual=True, obs=obs)
    if app == "conv3d":
        from repro.apps import conv3d as m

        return m.run_model(model, m.Conv3dConfig(**cfg), "k40m", virtual=True, obs=obs)
    if app == "matmul":
        from repro.apps import matmul as m

        return m.run_model(model, m.MatmulConfig(**cfg), "k40m", virtual=True, obs=obs)
    from repro.apps import qcd as m

    return m.run_model(model, m.QcdConfig(**cfg), "k40m", virtual=True, obs=obs)


def _region(app, *, profile=None, seed=0, integrity="off"):
    """One real-array region run at chaos-test sizes."""
    arrays, region, kernel, _ = _setup(app)
    rt = new_runtime("k40m")
    policy = None
    if profile is not None:
        rt.install_faults(fault_profile(profile, seed))
        policy = FaultPolicy(max_retries=8)
    with rt:
        return region.run(rt, arrays, kernel, integrity=integrity, fault_policy=policy)


def _sharded(app):
    arrays, region, kernel, _ = _setup(app)
    return region.run(None, arrays, kernel, devices=2).per_device


CASES = {
    **{
        f"{app}/pipelined-buffer": (
            lambda app=app: [_app(
                app, "pipeline-buffer" if app == "matmul" else "pipelined-buffer",
                obs=Observability(),
            )]
        )
        for app in sorted(APP_CONFIGS)
    },
    "stencil/pipelined-2sweeps": lambda: [_app("stencil", "pipelined", iters=2)],
    "stencil/naive-2sweeps": lambda: [_app("stencil", "naive", iters=2)],
    "conv3d/transient": lambda: [_region("conv3d", profile="transient", seed=3)],
    "qcd/chaos": lambda: [_region("qcd", profile="chaos", seed=1)],
    "stencil/checksum": lambda: [_region("stencil", integrity="checksum")],
    "conv3d/2shard": lambda: _sharded("conv3d"),
}


def _hex(obj):
    """``obj`` with every float replaced by its exact ``float.hex``."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _hex(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hex(v) for v in obj]
    return obj


def _unrounded(analysis):
    """``analysis.to_dict()`` before its 12-digit rounding."""
    with mock.patch.object(analyze_mod, "round_floats", lambda d: d):
        return analysis.to_dict()


def _snapshot(case):
    reset_stream_ids()
    out = []
    for res in CASES[case]():
        out.append({
            "analysis": _hex(_unrounded(analyze_result(res))),
            "result": _hex(res.to_dict()),
        })
    return out


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN.exists():
        return None
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def collected():
    return {}


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_matches_golden(case, golden, collected, update_golden):
    snap = _snapshot(case)
    collected[case] = snap
    if update_golden:
        if len(collected) == len(CASES):
            GOLDEN.write_text(
                json.dumps(collected, indent=1, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        return
    assert golden is not None, (
        f"missing golden file {GOLDEN}; regenerate with --update-golden"
    )
    assert json.dumps(snap, sort_keys=True) == json.dumps(golden[case], sort_keys=True), (
        f"{case}: analysis or result digest drifted from {GOLDEN.name}"
    )


def test_cases_exercise_their_paths():
    """Each special case really took its path (faults, checks, shards)."""
    (transient,) = CASES["conv3d/transient"]()
    assert transient.faults > 0 and transient.retries > 0
    (checked,) = CASES["stencil/checksum"]()
    assert checked.verified > 0
    assert len(CASES["conv3d/2shard"]()) == 2
