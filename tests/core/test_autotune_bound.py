"""The autotune lower bound, and the pruned search against an exhaustive one.

The bound of :class:`~repro.core.pipemodel.PlanFamily` must never
exceed the exact dry-run time (up to a relative 1e-12 of rounding) and
must run out of device memory on exactly the plans the dry run does; its
exact time must be the dry run's.  The pruned
:func:`~repro.core.autotune.autotune` must then return the candidate and
the ``dry_runs`` count of a search that dry-runs every candidate in grid
order.  Covered: every app under both paper profiles and both halo
modes, ``pipeline_mem_limit`` pragmas and a device small enough that
some candidates do not fit.  ``scripts/check_pipemodel.py`` runs the
same checks over the benchmark's shapes.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core.autotune import autotune
from repro.core.pipemodel import PlanFamily, dry_run_elapsed
from repro.gpu import Runtime
from repro.serve.workload import build_request
from repro.sim import AMD_HD7970, NVIDIA_K40M

from tests.core.test_pipemodel import APPS, _outcome, searched_plans

#: rounding allowance of ``bound <= exact``: the bound adds the exact
#: model's durations up in another order
RTOL = 1e-12


def check_search(profile, region, arrays, kernel):
    """Check every candidate's bound and the pruned search; returns the
    report and the number of candidates that ran out of memory."""
    base = region.bind(arrays)
    family = PlanFamily(profile, base, arrays, kernel)
    best, feasible, ooms = None, 0, 0
    for plan in searched_plans(region, arrays):
        key = (plan.chunk_size, plan.num_streams)
        exact = _outcome(lambda: dry_run_elapsed(profile, plan, arrays, kernel))
        low = _outcome(lambda: family.bound(*key))
        assert _outcome(lambda: family.exact(*key)) == exact, key
        assert (low == "oom") == (exact == "oom"), (key, low, exact)
        if exact == "oom":
            ooms += 1
            continue
        assert low <= exact * (1.0 + RTOL), (key, low, exact)
        feasible += 1
        if best is None or exact < best[2]:
            best = (*key, exact, plan.device_bytes())
    limit = region.mem_limit.limit_bytes if region.mem_limit is not None else None
    report = autotune(base, Runtime(profile), arrays, kernel, mem_limit=limit)
    got = report.best
    assert (got.chunk_size, got.num_streams, got.elapsed, got.buffer_bytes) == best
    assert got.feasible and got.exact
    assert report.dry_runs == feasible
    for c in report.candidates:
        if c.feasible and not c.exact:
            # pruned: its bound already lost to the best exact time
            assert c.elapsed > best[2]
    return report, ooms


@pytest.mark.parametrize("profile", [NVIDIA_K40M, AMD_HD7970], ids=["k40m", "hd7970"])
@pytest.mark.parametrize("halo", ["dedup", "duplicate"])
@pytest.mark.parametrize("app", sorted(APPS))
def test_bound_and_pruned_search(app, halo, profile):
    req = build_request(app, config=dict(APPS[app], halo_mode=halo))
    check_search(profile, req.region, req.arrays, req.kernel)


@pytest.mark.parametrize("app,limit", [("stencil", "80KB"), ("qcd", "500KB")])
def test_memory_limit_pragma(app, limit):
    req = build_request(app, config=dict(APPS[app], mem_limit=limit))
    assert req.region.mem_limit is not None
    for profile in (NVIDIA_K40M, AMD_HD7970):
        report, _ = check_search(profile, req.region, req.arrays, req.kernel)
        assert report.best.buffer_bytes <= req.region.mem_limit.limit_bytes


def test_out_of_memory_decided_by_the_allocations():
    """On a device that fits only some candidates, the bound runs out of
    memory exactly where the dry run does, and those candidates are
    neither dry-run nor counted."""
    req = build_request("stencil", config=APPS["stencil"])
    plans = searched_plans(req.region, req.arrays)
    footprints = sorted(p.device_bytes() for p in plans)
    small = dataclasses.replace(
        NVIDIA_K40M,
        usable_memory_bytes=NVIDIA_K40M.context_overhead_bytes
        + footprints[len(footprints) // 2],
    )
    report, ooms = check_search(small, req.region, req.arrays, req.kernel)
    assert 0 < ooms < len(plans)
    infeasible = [c for c in report.candidates if not c.feasible]
    assert len(infeasible) == ooms
    assert all(c.elapsed == math.inf and c.exact for c in infeasible)


def test_pruned_rows_carry_their_bound():
    """A search on a long loop prunes candidates: each is listed in grid
    order with its bound, flagged inexact and marked in the table, and
    the dry-run count still covers it."""
    req = build_request("stencil", config=dict(APPS["stencil"], nz=66))
    report = autotune(
        req.region.bind(req.arrays), Runtime(NVIDIA_K40M), req.arrays, req.kernel
    )
    pruned = [c for c in report.candidates if not c.exact]
    assert pruned
    assert report.dry_runs == len(report.candidates)
    grid = [(c.chunk_size, c.num_streams) for c in report.candidates]
    assert grid == sorted(grid)
    base = req.region.bind(req.arrays)
    for c in report.candidates:
        exact = dry_run_elapsed(
            NVIDIA_K40M, base.with_params(c.chunk_size, c.num_streams),
            req.arrays, req.kernel,
        )
        assert c.elapsed == exact if c.exact else c.elapsed <= exact * (1.0 + RTOL)
    rows = report.table().splitlines()[1:]
    assert sum("≥" in row for row in rows) == len(pruned)
    assert not any("≥" in row and "best" in row for row in rows)
    # the flag stays out of the repr, so the best row reads as before
    assert "exact" not in repr(report.best)
