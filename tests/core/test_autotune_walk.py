"""The autotune walk over chunk-size rows, against the search it replaced.

:func:`~repro.core.autotune.autotune` bounds each chunk-size row before
it builds the row's chunk table
(:meth:`PlanFamily.row_bound <repro.core.pipemodel.PlanFamily.row_bound>`)
and tables a row only once one of its members could be the next one
priced, so:

* the closed-form totals the row bound is built from
  (``PlanFamily._row_sums``) must equal the sums ``_take_sums`` takes over
  the row's chunk table, within a relative 1e-12 (they add in another
  order), on seeded random static affine regions whose ranges the
  section ends clamp at either end, under both halo modes and with one
  and two DMA engines, at every chunk size;
* the row bound must never exceed any feasible member's bound (up to
  ``_BOUND_SLACK``);
* the search must return what the walk before it returned: ``best``,
  ``dry_runs``, every candidate (its ``repr``, ``elapsed`` and ``exact``)
  and ``table()``, with the same members dry-run.  That walk, which
  bounds every feasible candidate first, is kept below as the reference,
  and both run on those regions, on regions with ``dep_fn`` clauses and
  the adaptive schedule (no closed form), on small devices and under
  ``pipeline_mem_limit``, and on 40 cold-plan regions like the serve
  benchmark's;
* the winner's compiled plan the report hands out must ``==``
  ``compile_plan`` of the winner's plan;
* a 16-request cold mix builds the counted number of chunk tables,
  member bounds, exact dry runs and scheduler ``compile_plan`` calls.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.core import pipemodel
from repro.core.autotune import _BOUND_SLACK, Candidate, autotune, candidate_grid
from repro.core.kernel import RegionKernel
from repro.core.memlimit import MemLimitError
from repro.core.pipemodel import PlanFamily, compile_plan
from repro.core.region import TargetRegion
from repro.directives.clauses import (
    Affine,
    DirectiveError,
    Loop,
    MapClause,
    PipelineClause,
    PipelineMapClause,
)
from repro.gpu import Runtime
from repro.serve import DevicePool, RegionScheduler, ServeConfig, build_request
from repro.serve import scheduler as serve_scheduler
from repro.sim import AMD_HD7970, NVIDIA_K40M
from repro.sim.memory import OutOfDeviceMemory
from repro.sim.varray import VirtualArray

from tests.core.test_plan_family import random_case

SEEDS = range(40)
#: one and two DMA engines (both paper profiles have one)
PROFILES = [NVIDIA_K40M, AMD_HD7970, dataclasses.replace(NVIDIA_K40M, dma_engines=2)]


class _Uniform(RegionKernel):
    """A cost that depends on the chunk's length alone."""

    name = "walk"
    uniform_chunk_cost = True

    def __init__(self, per_iteration: float) -> None:
        self.per_iteration = per_iteration

    def cost(self, profile, t0, t1):
        return (t1 - t0) * self.per_iteration

    def run(self, views, t0, t1):  # pragma: no cover - virtual runs only
        pass


def _affine(rng: random.Random, var: str, start: int, stop: int):
    """One random affine ``pipeline_map`` clause over ``[start, stop)``
    whose section may clamp the chunk ranges at either end, and its
    host array's shape."""
    direction = rng.choice(["to", "from", "tofrom"])
    ndim = rng.choice([2, 3])
    split_dim = rng.randrange(ndim)
    a, b, size = rng.choice([1, 1, 2, 3]), rng.randint(-6, 4), rng.randint(1, 5)
    first, end = a * start + b, a * (stop - 1) + b + size
    d_lo = max(0, rng.randint(first - 3, first + 3))
    d_hi = max(d_lo + 1, rng.randint(end - 4, end + 2))
    dims, shape = [], []
    for d in range(ndim):
        if d == split_dim:
            dims.append((d_lo, d_hi - d_lo))
            shape.append(d_hi + rng.randint(0, 2))
        else:
            length = rng.randint(1, 5)
            lo = rng.randint(0, 1)
            dims.append((lo, length))
            shape.append(lo + length + rng.randint(0, 1))
    clause = PipelineMapClause(
        direction=direction, var=var, split_dim=split_dim, split_iter=Affine(a, b),
        size=size, dims=tuple(dims),
    )
    return clause, tuple(shape)


def static_case(seed: int):
    """``(region, arrays, kernel)``: a static affine region drawn from
    ``seed``, with one to three pipelined arrays and maybe residents."""
    rng = random.Random(seed)
    while True:
        start = rng.randint(0, 3)
        loop = Loop("k", start, start + rng.randint(3, 40))
        maps, arrays = [], {}
        for i in range(rng.randint(1, 3)):
            clause, shape = _affine(rng, f"P{i}", loop.start, loop.stop)
            maps.append(clause)
            arrays[clause.var] = VirtualArray(shape, rng.choice([np.float32, np.float64]))
        residents = []
        for i in range(rng.randint(0, 2)):
            var = f"R{i}"
            residents.append(MapClause(rng.choice(["to", "from", "tofrom", "alloc"]), var))
            arrays[var] = VirtualArray((rng.randint(1, 40), rng.randint(1, 8)), np.float64)
        region = TargetRegion(
            pipeline=PipelineClause("static", rng.randint(1, 3), rng.randint(1, 4)),
            pipeline_maps=maps,
            maps=residents,
            loop=loop,
            halo_mode=rng.choice(["dedup", "duplicate"]),
        )
        try:
            region.bind(arrays)
        except DirectiveError:
            continue  # a section no iteration touches
        return region, arrays, _Uniform(rng.choice([1e-6, 3e-6, 2e-5]))


def cold_case(i: int):
    """The ``i``-th cold-plan request shape of the serve benchmark: the
    pipelined extent, matrix size, or lattice size and pragma chunk
    size vary, so no two share a plan-cache key."""
    app, j = ("stencil", "conv3d", "qcd", "matmul")[i % 4], i // 4
    if app in ("stencil", "conv3d"):
        config = {"nz": 12 + j, "ny": 32, "nx": 32}
    elif app == "qcd":
        config = {"n": 5 + j % 5, "chunk_size": 1 + j // 5}
    else:
        config = {"n": 64 + 16 * j, "block": 16}
    return app, config


def reference_autotune(plan, runtime, arrays, kernel, *, mem_limit=None, max_streams=8):
    """The search before rows were bounded: every feasible candidate's
    bound first, then exact dry runs in ascending ``(bound, grid index)``
    order while a bound can still win.  Returns ``(best, candidates,
    dry_runs)``."""
    family = PlanFamily(runtime.profile, plan, arrays, kernel)
    rows, live = [], []
    inf = float("inf")
    for cs, ns in candidate_grid(plan.loop.trip_count, max_streams=max_streams):
        kept = family.streams(cs, ns)
        if mem_limit is not None and family.device_bytes(cs, kept) > mem_limit:
            continue
        if kept != ns:
            continue
        try:
            bound = family.bound(cs, ns)
        except OutOfDeviceMemory:
            rows.append([cs, ns, inf, family.device_bytes(cs, ns), False, True])
            continue
        live.append((bound, len(rows), cs, ns))
        rows.append([cs, ns, bound, family.device_bytes(cs, ns), True, False])
    if not live:
        raise MemLimitError(family.device_bytes(1, 1), mem_limit or 0)
    live.sort()
    best = -1
    best_elapsed = inf
    for bound, i, cs, ns in live:
        if bound > best_elapsed * (1.0 + _BOUND_SLACK):
            break
        elapsed = family.exact(cs, ns)
        rows[i][2] = elapsed
        rows[i][5] = True
        if elapsed < best_elapsed or (elapsed == best_elapsed and i < best):
            best, best_elapsed = i, elapsed
    candidates = [Candidate(*row) for row in rows]
    return candidates[best], candidates, len(live)


def _table(best, candidates) -> str:
    """``AutotuneReport.table()`` of the reference's rows."""
    lines = [f"{'chunk':>6} {'streams':>8} {'time':>12} {'buffer':>10}"]
    for c in sorted(candidates, key=lambda c: c.elapsed):
        mark = " <- best" if c == best else ""
        lines.append(
            f"{c.chunk_size:>6} {c.num_streams:>8} "
            f"{' ' if c.exact else '≥'}{c.elapsed * 1e3:>9.2f}ms "
            f"{c.buffer_bytes / 1e6:>8.1f}MB{mark}"
        )
    return "\n".join(lines)


def _same_search(profile, base, arrays, kernel, mem_limit=None) -> None:
    """The search and the reference agree on everything they report, or
    both raise ``MemLimitError``."""
    args = (base, Runtime(profile, virtual=True), arrays, kernel)
    try:
        want = reference_autotune(*args, mem_limit=mem_limit)
    except MemLimitError:
        with pytest.raises(MemLimitError):
            autotune(*args, mem_limit=mem_limit)
        return
    report = autotune(*args, mem_limit=mem_limit)
    best, candidates, dry_runs = want
    assert (repr(report.best), report.dry_runs) == (repr(best), dry_runs)
    assert report.best == best
    assert [repr(c) for c in report.candidates] == [repr(c) for c in candidates]
    assert report.candidates == candidates  # ``exact`` too, which ``repr`` leaves out
    assert report.table() == _table(best, candidates)


@pytest.mark.parametrize("seed", SEEDS)
def test_closed_form_totals_match_the_table_sums(seed):
    region, arrays, kernel = static_case(seed)
    for halo in ("dedup", "duplicate"):
        region.halo_mode = halo
        base = region.bind(arrays)
        for profile in PROFILES:
            family = PlanFamily(profile, base, arrays, kernel)
            for cs in range(1, base.loop.trip_count + 1):
                engines, ncmd, nchunks, head, tail = family._row_sums(cs)
                work, sums = family._table(cs, 1)
                want_engines, want_ncmd, _time, _cmds, want_head, want_tail = sums
                assert (ncmd, nchunks) == (want_ncmd, len(work)), (halo, cs)
                pairs = [*zip(engines, want_engines), (head, want_head), (tail, want_tail)]
                for (t, n), (want_t, want_n) in pairs:
                    assert n == want_n, (halo, cs)
                    assert t == pytest.approx(want_t, rel=1e-12, abs=0.0), (halo, cs)


def test_rows_without_a_closed_form_are_tabled_first():
    """The adaptive schedule, ``dep_fn`` clauses and position-dependent
    kernel costs have no closed form: their row bound is ``-inf``."""
    seen = set()
    for seed in range(60):
        region, arrays, kernel = random_case(seed)
        base = region.bind(arrays)
        family = PlanFamily(NVIDIA_K40M, base, arrays, kernel)
        closed = (
            base.schedule == "static" and kernel.uniform_chunk_cost
            and all(s.clause.dep_fn is None for s in base.specs.values())
        )
        assert (family._row_sums(1) is not None) == closed
        if not closed:
            assert family.row_bound(1, 1) == -float("inf")
        seen.add(closed)
    assert seen == {True, False}


@pytest.mark.parametrize("seed", SEEDS)
def test_row_bound_is_at_most_every_members_bound(seed):
    region, arrays, kernel = static_case(seed)
    for halo in ("dedup", "duplicate"):
        region.halo_mode = halo
        base = region.bind(arrays)
        for profile in PROFILES:
            family = PlanFamily(profile, base, arrays, kernel)
            rows = {}
            for cs, ns in candidate_grid(base.loop.trip_count):
                if family.streams(cs, ns) == ns:
                    rows.setdefault(cs, []).append(ns)
            for cs, streams in rows.items():
                low = family.row_bound(cs, streams[0])
                for ns in streams:
                    assert low <= family.bound(cs, ns) * (1.0 + _BOUND_SLACK), (cs, ns)


@pytest.mark.parametrize("seed", SEEDS)
def test_search_matches_the_reference_on_static_regions(seed):
    region, arrays, kernel = static_case(seed)
    for halo in ("dedup", "duplicate"):
        region.halo_mode = halo
        base = region.bind(arrays)
        for profile in PROFILES:
            _same_search(profile, base, arrays, kernel)


@pytest.mark.parametrize("seed", range(12))
def test_search_matches_the_reference_without_closed_forms(seed):
    """``dep_fn`` clauses, the adaptive schedule and position-dependent
    costs, with and without a memory limit some members exceed."""
    region, arrays, kernel = random_case(seed)
    base = region.bind(arrays)
    limits = sorted(
        base.with_params(cs, ns).device_bytes()
        for cs, ns in candidate_grid(base.loop.trip_count)
    )
    for limit in (None, limits[len(limits) // 3], limits[0] - 1):
        for profile in PROFILES[:2]:
            _same_search(profile, base, arrays, kernel, mem_limit=limit)


@pytest.mark.parametrize("seed", range(12))
def test_search_matches_the_reference_on_small_devices(seed):
    """Devices sized so that some of a region's members do not fit."""
    region, arrays, kernel = static_case(seed)
    base = region.bind(arrays)
    sizes = sorted(
        base.with_params(cs, ns).device_bytes()
        for cs, ns in candidate_grid(base.loop.trip_count)
    )
    for nbytes in (sizes[len(sizes) // 2], sizes[-1]):
        profile = dataclasses.replace(
            NVIDIA_K40M,
            usable_memory_bytes=NVIDIA_K40M.context_overhead_bytes + 4096 + nbytes,
        )
        _same_search(profile, base, arrays, kernel)


@pytest.mark.parametrize("first", range(0, 40, 10))
def test_search_matches_the_reference_on_cold_regions(first):
    for i in range(first, first + 10):
        app, config = cold_case(i)
        req = build_request(app, config=config, virtual=True)
        limit = req.region.mem_limit
        base = req.region.bind(req.arrays)
        for profile in (NVIDIA_K40M, AMD_HD7970):
            _same_search(
                profile, base, req.arrays, req.kernel,
                None if limit is None else limit.limit_bytes,
            )


@pytest.mark.parametrize("seed", range(8))
def test_the_winners_compiled_plan_is_compile_plans(seed):
    """The report's compiled plan for the winner, assembled from the
    search's table, capacities and priced program, ``==`` a fresh
    ``compile_plan``; another member's plan is refused."""
    region, arrays, kernel = static_case(seed)
    base = region.bind(arrays)
    report = autotune(base, Runtime(NVIDIA_K40M, virtual=True), arrays, kernel)
    best = report.best
    plan = base.with_params(best.chunk_size, best.num_streams)
    assert report.compiled(plan) == compile_plan(plan)
    other = next(
        c for c in report.candidates
        if (c.chunk_size, c.num_streams) != (best.chunk_size, best.num_streams)
    )
    with pytest.raises(ValueError, match="not the winner"):
        report.compiled(base.with_params(other.chunk_size, other.num_streams))


def test_a_cold_mix_tables_only_the_rows_that_can_win(monkeypatch):
    """Exact counts on 16 cold requests, one search each over 141
    feasible candidates: the walk builds 19 chunk tables (39 before rows
    were bounded), bounds 61 members (141), dry-runs the same 34 and
    calls ``compile_plan`` for none of the winners (16)."""
    counts = dict.fromkeys(("tables", "bounds", "exact", "compile_plan", "dry_runs"), 0)

    def counted(owner, name, key):
        real = getattr(owner, name)

        def wrapped(*args, **kw):
            counts[key] += 1
            return real(*args, **kw)

        monkeypatch.setattr(owner, name, wrapped)

    counted(pipemodel, "_chunk_table", "tables")
    counted(PlanFamily, "bound", "bounds")
    counted(PlanFamily, "exact", "exact")
    counted(serve_scheduler, "compile_plan", "compile_plan")
    real_autotune = serve_scheduler.autotune

    def searched(*args, **kw):
        report = real_autotune(*args, **kw)
        counts["dry_runs"] += report.dry_runs
        return report

    monkeypatch.setattr(serve_scheduler, "autotune", searched)
    requests = [
        build_request(app, tenant=f"tenant{i % 8}", config=config)
        for i, (app, config) in enumerate(map(cold_case, range(16)))
    ]
    sched = RegionScheduler(DevicePool("k40m"), ServeConfig())
    sched.submit_all(requests)
    report = sched.run()
    assert all(r.ok for r in report.results)
    assert counts == {
        "tables": 19, "bounds": 61, "exact": 34, "compile_plan": 0, "dry_runs": 141,
    }
