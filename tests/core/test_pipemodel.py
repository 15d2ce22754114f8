"""The analytic dry-run model against the simulator, bit for bit.

:func:`~repro.core.pipemodel.dry_run_elapsed` must return exactly the
``elapsed`` that ``execute_pipeline`` reports on a fresh virtual runtime
of the same profile, and raise ``OutOfDeviceMemory`` on exactly the
plans whose real run does.  These tests are a stratified subset: every
app (matmul's pitched 2-D bands included) and a ``dep_fn`` region, both
paper profiles and a dual-DMA K40m, both halo modes, both schedules,
memory-limit-tuned plans, an out-of-memory boundary and the
``probe_rates`` sub-plans.  ``scripts/check_pipemodel.py`` runs the
exhaustive grid.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.autotune import autotune, candidate_grid
from repro.core.executor import execute_pipeline
from repro.core.memlimit import MemLimitError, tune_plan
from repro.core.multidevice import _subloop_plan, probe_rates
from repro.core.pipemodel import dry_run_elapsed
from repro.gpu import Runtime
from repro.serve.workload import build_request
from repro.sim import AMD_HD7970, NVIDIA_K40M
from repro.sim.memory import OutOfDeviceMemory
from repro.sim.varray import VirtualArray

from tests.core import test_depfn

#: no built-in profile has two copy engines; this one reaches the D2H engine
DUAL_K40M = dataclasses.replace(NVIDIA_K40M, dma_engines=2)
PROFILES = [NVIDIA_K40M, AMD_HD7970, DUAL_K40M]
PROFILE_IDS = ["k40m", "hd7970", "k40m-dual-dma"]

APPS = {
    "stencil": {"nz": 18, "ny": 32, "nx": 32},
    "conv3d": {"nz": 18, "ny": 32, "nx": 32},
    "matmul": {"n": 96, "block": 16},
    "qcd": {"n": 5},
}


def _outcome(run):
    try:
        return run()
    except OutOfDeviceMemory:
        return "oom"


def model_and_sim(profile, plan, arrays, kernel):
    """``(model, simulator)`` elapsed, or ``"oom"`` for either side."""
    model = _outcome(lambda: dry_run_elapsed(profile, plan, arrays, kernel))
    sim = _outcome(lambda: execute_pipeline(
        Runtime(profile, virtual=True), plan, arrays, kernel
    ).elapsed)
    return model, sim


def searched_plans(region, arrays, strides=1):
    """The plans ``autotune`` dry-runs (every ``strides``-th of them)."""
    base = region.bind(arrays)
    limit = region.mem_limit.limit_bytes if region.mem_limit is not None else None
    plans = []
    for cs, ns in candidate_grid(base.loop.trip_count):
        try:
            plan = tune_plan(base.with_params(cs, ns), limit)
        except MemLimitError:
            continue
        if (plan.chunk_size, plan.num_streams) == (cs, ns):
            plans.append(plan)
    return plans[::strides]


def assert_bit_equal(profile, plans, arrays, kernel):
    assert plans
    for plan in plans:
        model, sim = model_and_sim(profile, plan, arrays, kernel)
        assert model == sim, (plan.chunk_size, plan.num_streams, model, sim)


@pytest.mark.parametrize("profile", PROFILES, ids=PROFILE_IDS)
@pytest.mark.parametrize("halo", ["dedup", "duplicate"])
@pytest.mark.parametrize("app", sorted(APPS))
def test_static_schedule_matches_simulator(app, halo, profile):
    req = build_request(app, config=dict(APPS[app], halo_mode=halo))
    plans = searched_plans(req.region, req.arrays)
    assert_bit_equal(profile, plans, req.arrays, req.kernel)


@pytest.mark.parametrize("profile", PROFILES, ids=PROFILE_IDS)
@pytest.mark.parametrize("app", sorted(APPS))
def test_adaptive_schedule_matches_simulator(app, profile):
    req = build_request(app, config=dict(APPS[app], schedule="adaptive"))
    plans = searched_plans(req.region, req.arrays, strides=2)
    assert_bit_equal(profile, plans, req.arrays, req.kernel)


@pytest.mark.parametrize("app", sorted(APPS))
def test_free_host_calls_match_simulator(app):
    """With no host overheads, commands are issued at the device clock
    and the engine starts them at once instead of through its heap."""
    free = dataclasses.replace(
        NVIDIA_K40M, api_overhead=0.0, stream_create_overhead=0.0,
        sync_overhead=0.0,
    )
    req = build_request(app, config=APPS[app])
    plans = searched_plans(req.region, req.arrays)
    assert_bit_equal(free, plans, req.arrays, req.kernel)


def test_matmul_bands_are_pitched_copies():
    """The matmul regions above exercise 2-D (pitched) transfers."""
    req = build_request("matmul", config=APPS["matmul"])
    plan = req.region.bind(req.arrays)
    assert any(spec.split_dim > 0 for spec in plan.specs.values())


@pytest.mark.parametrize("profile", PROFILES, ids=PROFILE_IDS)
@pytest.mark.parametrize("halo", ["dedup", "duplicate"])
def test_dep_fn_region_matches_simulator(halo, profile):
    region = test_depfn.build_region()
    region.halo_mode = halo
    n = len(test_depfn.WIDTHS)
    arrays = {
        "IN": VirtualArray((test_depfn.OFFSETS[-1], test_depfn.COLS), np.float64),
        "OUT": VirtualArray((n, test_depfn.COLS), np.float64),
    }
    plans = searched_plans(region, arrays)
    assert_bit_equal(profile, plans, arrays, test_depfn.RowSumKernel())


@pytest.mark.parametrize("app,limit", [("stencil", "80KB"), ("qcd", "500KB")])
def test_memory_limit_tuned_plans_match_simulator(app, limit):
    req = build_request(app, config=dict(APPS[app], mem_limit=limit))
    assert req.region.mem_limit is not None
    unlimited = build_request(app, config=APPS[app])
    plans = searched_plans(req.region, req.arrays)
    # the limit removed candidates, so the tuned plans are a real subset
    assert len(plans) < len(searched_plans(unlimited.region, unlimited.arrays))
    for profile in (NVIDIA_K40M, AMD_HD7970):
        assert_bit_equal(profile, plans, req.arrays, req.kernel)


def test_out_of_memory_on_the_same_plans():
    """With a device too small for the larger candidates, both sides
    run out of memory on exactly the same plans."""
    req = build_request("stencil", config=APPS["stencil"])
    plans = searched_plans(req.region, req.arrays)
    footprints = sorted(p.device_bytes() for p in plans)
    small = dataclasses.replace(
        NVIDIA_K40M,
        usable_memory_bytes=NVIDIA_K40M.context_overhead_bytes
        + footprints[len(footprints) // 2],
    )
    outcomes = [model_and_sim(small, p, req.arrays, req.kernel) for p in plans]
    assert all(model == sim for model, sim in outcomes)
    ooms = sum(model == "oom" for model, _ in outcomes)
    assert 0 < ooms < len(plans)


def test_autotune_skips_plans_that_do_not_fit():
    req = build_request("stencil", config=APPS["stencil"])
    small = dataclasses.replace(
        NVIDIA_K40M,
        usable_memory_bytes=NVIDIA_K40M.context_overhead_bytes + 70_000,
    )
    report = autotune(req.region.bind(req.arrays), Runtime(small), req.arrays, req.kernel)
    infeasible = [c for c in report.candidates if not c.feasible]
    assert infeasible and report.dry_runs == len(report.candidates) - len(infeasible)


@pytest.mark.parametrize("app", sorted(APPS))
def test_probe_sub_plans_match_simulator(app):
    req = build_request(app, config=APPS[app])
    base = req.region.bind(req.arrays)
    for plan in searched_plans(req.region, req.arrays, strides=3):
        trip = plan.loop.trip_count
        probe = min(max(plan.chunk_size * plan.num_streams * 2, trip // 8), trip)
        sub = _subloop_plan(plan, base.loop.start, base.loop.start + probe)
        assert_bit_equal(NVIDIA_K40M, [sub], req.arrays, req.kernel)


def test_probe_rates_equal_simulated_rates():
    req = build_request("stencil", config=APPS["stencil"])
    plan = req.region.bind(req.arrays)
    runtimes = [Runtime(NVIDIA_K40M), Runtime(AMD_HD7970)]
    rates = probe_rates(runtimes, plan, req.arrays, req.kernel, probe_iters=8)
    sub = _subloop_plan(plan, plan.loop.start, plan.loop.start + 8)
    expected = [
        8 / execute_pipeline(
            Runtime(rt.profile, virtual=True), sub, req.arrays, req.kernel
        ).elapsed
        for rt in runtimes
    ]
    assert rates == expected
