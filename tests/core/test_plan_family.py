"""The autotune search's plan family against the code each part stands for.

:class:`~repro.core.pipemodel.PlanFamily` computes once per search what
the members ``with_params(cs, ns)`` of one bound plan share, and the
search then names a member by its integers alone.  A key that misses a
field the reference reads (the schedule, the halo mode, a dtype, the
stream clamp) would give a wrong answer silently, so each part is held
to a fresh reference over seeded random regions:

* ring capacities and ``device_bytes`` against the member plan's
  :meth:`~repro.core.plan.RegionPlan.ring_capacity` and
  :meth:`~repro.core.plan.RegionPlan.device_bytes`;
* the fit check against a fresh
  :class:`~repro.sim.memory.MemoryAllocator` fed ``open()``'s
  allocations, on devices sized to fail at each allocation in turn;
* chunk tables against a fresh :func:`~repro.core.pipemodel.chunk_work`;
* ``open()`` clocks against an uncached ``_open`` call and against a
  runtime's clocks after a real :meth:`PipelineIssuer.open
  <repro.core.executor.PipelineIssuer.open>`;
* the search's rows, under ``pipeline_mem_limit`` too, against an
  exhaustive search over member plans priced by the simulator.

The regions mix affine and ``dep_fn`` clauses, static and adaptive
schedules, dedup and duplicate halo, ``to``/``from``/``tofrom``
pipelined arrays and residents, and uniform and position-dependent
kernel costs.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest

from repro.core.autotune import autotune, candidate_grid
from repro.core.executor import PipelineIssuer, compile_for, execute_pipeline
from repro.core.kernel import RegionKernel
from repro.core.memlimit import MemLimitError, tune_plan
from repro.core.pipemodel import PlanFamily, _open, _scales, chunk_work
from repro.core.region import TargetRegion
from repro.directives.clauses import (
    Affine,
    Loop,
    MapClause,
    MemLimitClause,
    PipelineClause,
    PipelineMapClause,
)
from repro.gpu import Runtime
from repro.sim import AMD_HD7970, NVIDIA_K40M
from repro.sim.memory import MemoryAllocator, OutOfDeviceMemory, aligned
from repro.sim.varray import VirtualArray

SEEDS = range(12)
PROFILES = [NVIDIA_K40M, AMD_HD7970]


class _Kernel(RegionKernel):
    """A cost that grows with the chunk and, unless ``uniform``, with
    its position in the loop."""

    name = "family"
    index_penalty = 0.02

    def __init__(self, uniform: bool) -> None:
        self.uniform_chunk_cost = uniform

    def cost(self, profile, t0, t1):
        return (t1 - t0) * 3e-6 + (0.0 if self.uniform_chunk_cost else (t0 % 3) * 1e-6)

    def run(self, views, t0, t1):  # pragma: no cover - virtual runs only
        pass


def _pipelined(rng: random.Random, var: str, n: int):
    """One random ``pipeline_map`` clause and its host array's shape."""
    direction = rng.choice(["to", "from", "tofrom"])
    ndim = rng.choice([2, 3])
    split_dim = rng.randrange(ndim - 1)
    if rng.random() < 0.3:
        # dep_fn: variable widths with a halo, both endpoints monotone
        widths = [rng.randint(1, 3) for _ in range(n)]
        offsets = np.concatenate([[0], np.cumsum(widths)]).tolist()
        halo = rng.randint(0, 2)
        split_len = offsets[-1] + halo

        def dep(k, offsets=offsets, halo=halo):
            return offsets[k], offsets[k + 1] + halo

        split_iter, size, dep_fn = Affine(1, 0), 1, dep
    else:
        a, b, size = rng.choice([1, 1, 2]), rng.choice([-1, 0, 0]), rng.randint(1, 3)
        split_len = a * (n - 1) + b + size
        split_iter, dep_fn = Affine(a, b), None
    dims, shape = [], []
    for d in range(ndim):
        if d == split_dim:
            dims.append((0, split_len))
            shape.append(split_len + rng.randint(0, 2))
        else:
            length = rng.randint(1, 6)
            lo = rng.randint(0, 1)
            dims.append((lo, length))
            shape.append(lo + length + rng.randint(0, 1))
    clause = PipelineMapClause(
        direction=direction, var=var, split_dim=split_dim, split_iter=split_iter,
        size=size, dims=tuple(dims), dep_fn=dep_fn,
    )
    return clause, tuple(shape)


def random_case(seed: int):
    """``(region, arrays, kernel)`` drawn from ``seed``."""
    rng = random.Random(seed)
    n = rng.randint(3, 24)
    loop = Loop("k", 0, n)
    maps, arrays = [], {}
    for i in range(rng.randint(1, 3)):
        clause, shape = _pipelined(rng, f"P{i}", n)
        maps.append(clause)
        arrays[clause.var] = VirtualArray(shape, rng.choice([np.float32, np.float64]))
    residents = []
    for i in range(rng.randint(0, 2)):
        var = f"R{i}"
        residents.append(MapClause(rng.choice(["to", "from", "tofrom", "alloc"]), var))
        arrays[var] = VirtualArray((rng.randint(1, 40), rng.randint(1, 8)), np.float64)
    region = TargetRegion(
        pipeline=PipelineClause(
            rng.choice(["static", "adaptive"]), rng.randint(1, 3), rng.randint(1, 4)
        ),
        pipeline_maps=maps,
        maps=residents,
        loop=loop,
        halo_mode=rng.choice(["dedup", "duplicate"]),
    )
    return region, arrays, _Kernel(uniform=rng.random() < 0.5)


def members(base):
    """Every ``(cs, ns)`` of the grid plus stream counts past the chunk
    count, with the plan ``with_params`` makes of each."""
    grid = candidate_grid(base.loop.trip_count) + [(1, 9), (base.loop.trip_count, 3)]
    return [((cs, ns), base.with_params(cs, ns)) for cs, ns in grid]


def allocations(plan, arrays):
    """The bytes of ``open()``'s allocations in order, as the executor
    mallocs them: each resident whole, then each ring of ``capacity``
    split-dim units of its host array."""
    sizes = []
    for var in plan.residents:
        arr = arrays[var]
        sizes.append(math.prod(arr.shape) * np.dtype(arr.dtype).itemsize)
    for var, spec in plan.specs.items():
        arr = arrays[var]
        shape = list(arr.shape)
        shape[spec.split_dim] = plan.ring_capacity(var)
        sizes.append(math.prod(shape) * np.dtype(arr.dtype).itemsize)
    return sizes


def allocator_outcome(profile, sizes):
    """What a fresh allocator of ``profile`` raises on ``sizes``, as
    ``(type, message)``, or None when everything fits."""
    try:
        memory = MemoryAllocator(
            capacity=profile.usable_memory_bytes,
            context_overhead=profile.context_overhead_bytes,
        )
        for nbytes in sizes:
            memory.allocate(nbytes)
    except (OutOfDeviceMemory, ValueError) as exc:
        return type(exc), str(exc)
    return None


def _raised(run):
    try:
        run()
    except (OutOfDeviceMemory, ValueError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("seed", SEEDS)
def test_capacities_and_bytes_match_the_member_plans(seed):
    region, arrays, kernel = random_case(seed)
    base = region.bind(arrays)
    family = PlanFamily(NVIDIA_K40M, base, arrays, kernel)
    # the search skips a candidate over ``pipeline_mem_limit`` without
    # walking ``tune_plan``: exact while no member is below ``(1, 1)``,
    # where every walk ends
    floor = base.with_params(1, 1).device_bytes()
    for (cs, ns), plan in members(base):
        assert family.streams(cs, ns) == plan.num_streams, (cs, ns)
        key = (cs, plan.num_streams)
        caps, nbytes, _fits = family._ring(*key)
        assert caps == [plan.ring_capacity(v) for v in plan.specs], key
        assert nbytes == family.device_bytes(*key) == plan.device_bytes(), key
        assert nbytes >= floor, key


@pytest.mark.parametrize("seed", SEEDS)
def test_fit_matches_a_fresh_allocator_at_every_position(seed):
    """Devices sized so that each allocation in turn is the first that
    fails (one byte short), and so that everything fits exactly."""
    region, arrays, kernel = random_case(seed)
    base = region.bind(arrays)
    checked = 0
    for (cs, _ns), plan in members(base)[::3]:
        sizes = allocations(plan, arrays)
        context = aligned(NVIDIA_K40M.context_overhead_bytes)
        ends = np.cumsum([aligned(n) for n in sizes]).tolist()
        capacities = [context + end - 1 for end in ends] + [context + ends[-1]]
        for capacity in capacities:
            profile = dataclasses.replace(NVIDIA_K40M, usable_memory_bytes=capacity)
            family = PlanFamily(profile, base, arrays, kernel)
            key = (cs, plan.num_streams)
            want = allocator_outcome(profile, sizes)
            assert family._ring(*key)[2] == (want is None), (key, capacity)
            assert _raised(lambda: family.exact(*key)) == want, (key, capacity)
            assert _raised(lambda: family.bound(*key)) == want, (key, capacity)
            checked += want is not None
    assert checked


def test_fit_reports_the_allocators_own_errors():
    """A context larger than the device, and an empty resident, fail as
    the allocator fails."""
    region, arrays, kernel = random_case(0)
    base = region.bind(arrays)
    tiny = dataclasses.replace(
        NVIDIA_K40M, usable_memory_bytes=NVIDIA_K40M.context_overhead_bytes - 1
    )
    family = PlanFamily(tiny, base, arrays, kernel)
    assert not family._ring(1, 1)[2]
    with pytest.raises(ValueError, match="context overhead exceeds"):
        family.exact(1, 1)
    empty = dict(arrays, E=VirtualArray((0, 4), np.float64))
    region.maps.append(MapClause("to", "E"))
    base = region.bind(empty)
    family = PlanFamily(NVIDIA_K40M, base, empty, kernel)
    assert not family._ring(1, 1)[2]
    with pytest.raises(ValueError, match="must be positive"):
        family.bound(1, 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_chunk_tables_match_a_fresh_chunk_work(seed):
    region, arrays, kernel = random_case(seed)
    base = region.bind(arrays)
    for profile in PROFILES:
        family = PlanFamily(profile, base, arrays, kernel)
        for (cs, _ns), plan in members(base):
            got = family._table(cs, plan.num_streams)[0]
            assert got == chunk_work(plan, kernel, profile), (cs, plan.num_streams)
            assert isinstance(got, tuple)


@pytest.mark.parametrize("seed", SEEDS)
def test_open_clocks_match_an_uncached_open_and_the_runtime(seed):
    region, arrays, kernel = random_case(seed)
    base = region.bind(arrays)
    for profile in PROFILES:
        family = PlanFamily(profile, base, arrays, kernel)
        for (cs, _ns), plan in members(base):
            ns = plan.num_streams
            streams_n = min(ns, plan.nchunks)
            call, contention = _scales(profile, streams_n)
            got = family._opened(cs, ns, streams_n)
            fresh = _open(
                profile, family._residents, len(plan.specs), streams_n, call, contention
            )
            assert got == (call, contention, *fresh), (cs, ns)
            rt = Runtime(profile, virtual=True)
            PipelineIssuer(rt, compile_for(plan), arrays, kernel).open()
            assert got[2:] == (rt.host_now, rt.device.sim.now), (cs, ns)


@pytest.mark.parametrize("seed", SEEDS)
def test_search_rows_match_an_exhaustive_search(seed):
    """Every row of the search, with and without a memory limit that
    some members exceed, against member plans priced by the simulator:
    the grid, ``buffer_bytes``, ``inf`` where infeasible, the exact time
    where dry-run and at most it where pruned."""
    region, arrays, kernel = random_case(seed)
    base = region.bind(arrays)
    footprints = sorted(plan.device_bytes() for _key, plan in members(base))
    for limit in (None, footprints[len(footprints) // 3], footprints[0] - 1):
        region.mem_limit = None if limit is None else MemLimitClause(limit)
        rows = []
        for cs, ns in candidate_grid(base.loop.trip_count):
            plan = base.with_params(cs, ns)
            try:
                tuned = tune_plan(plan, limit)
            except MemLimitError:
                rows.append((cs, ns, math.inf, plan.device_bytes()))
                continue
            if (tuned.chunk_size, tuned.num_streams) != (cs, ns):
                continue
            sim = execute_pipeline(
                Runtime(NVIDIA_K40M, virtual=True), tuned, arrays, kernel
            ).elapsed
            rows.append((cs, ns, sim, tuned.device_bytes()))
        if all(row[2] == math.inf for row in rows):
            with pytest.raises(MemLimitError):
                autotune(base, Runtime(NVIDIA_K40M), arrays, kernel, mem_limit=limit)
            continue
        report = autotune(base, Runtime(NVIDIA_K40M), arrays, kernel, mem_limit=limit)
        assert [(c.chunk_size, c.num_streams) for c in report.candidates] == [
            row[:2] for row in rows
        ]
        for c, (_cs, _ns, sim, nbytes) in zip(report.candidates, rows):
            assert c.buffer_bytes == nbytes
            assert c.feasible == (sim != math.inf)
            if c.exact:
                assert c.elapsed == sim
            else:
                assert c.elapsed <= sim * (1.0 + 1e-12)
        assert report.dry_runs == sum(row[2] != math.inf for row in rows)
