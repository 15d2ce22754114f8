"""A plan-cache hit opens from the entry's compiled plan.

A :class:`~repro.serve.PlanCache` entry keeps the
:class:`~repro.core.pipemodel.CompiledPlan` its parameters were tuned
into, and every request that hits the entry opens its issuer from it
without binding its region.  That is only sound if the key names
everything the compiled plan depends on, so:

* :meth:`PlanCache.key_for`, which keys a region without binding it,
  must give exactly the key the bound plan gives (the bind-then-key code
  it replaced is kept below as the reference);
* the compiled plan a request is served from — its chunk program and
  ring layouts included — must equal the one built afresh from that
  request's own bound region, over every region of
  ``tests/core/test_issue_stream.py`` and over seeded random regions,
  and each ring layout must be the one the request's own host array
  gives;
* issuers opened from one entry share its program and ring layouts and
  leave them unchanged, while an issuer with integrity checks issues
  the checked program ``compile_for`` builds from the entry's plan,
  exactly as one opened from the bare plan, and no other program is
  built;
* requests that differ in profile, halo mode, dtype, shape or limit
  must get separate entries;
* kernels of one name share an entry but not a cost model, so each
  request's kernel launches must be priced by its own kernel;
* a warm hit binds nothing, and an entry restored from a checkpoint
  (parameters only) compiles again on its first hit.
"""

from __future__ import annotations

import copy
import json
from typing import Optional

import numpy as np
import pytest

from repro.apps.common import new_runtime
from repro.core import pipemodel
from repro.core.executor import PipelineIssuer, compile_for
from repro.core.kernel import make_kernel
from repro.core.memlimit import tune_plan
from repro.core.pipemodel import chunk_program, compile_plan
from repro.core.region import TargetRegion
from repro.core.ringbuffer import ring_geometry
from repro.directives.clauses import (
    Affine,
    DirectiveError,
    Loop,
    MapClause,
    MemLimitClause,
    PipelineClause,
    PipelineMapClause,
)
from repro.serve import (
    DevicePool,
    PlanCache,
    RegionRequest,
    RegionScheduler,
    ServeConfig,
    build_request,
)
from repro.sim.engine import Simulator
from repro.sim.varray import VirtualArray
from tests.core import test_issue_stream as iss


def reference_key(plan, kernel, profile_name: str, limit_bytes: Optional[int]):
    """The structural key of a *bound* plan: ``PlanCache.key_for`` as it
    was before it learned to key a region without binding it."""
    maps_sig = []
    for var in sorted(plan.specs):
        cl = plan.specs[var].clause
        if cl.dep_fn is not None:
            return None
        maps_sig.append(
            (var, cl.direction, cl.split_dim, str(cl.split_iter),
             cl.size, tuple(cl.dims))
        )
    residents_sig = tuple(
        (var, plan.residents[var].direction) for var in sorted(plan.residents)
    )
    arrays_sig = tuple(
        (var, tuple(plan.shapes[var]), str(plan.dtypes[var]))
        for var in sorted(plan.shapes)
    )
    return (
        kernel.name,
        (plan.loop.var, plan.loop.start, plan.loop.stop),
        (plan.schedule, plan.chunk_size, plan.num_streams, plan.halo_mode),
        tuple(maps_sig),
        residents_sig,
        arrays_sig,
        profile_name,
        int(limit_bytes) if limit_bytes is not None else None,
    )


class _Recording(RegionScheduler):
    """A scheduler that records every ``(request, device, compiled plan)``
    its placement pass plans."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.planned = []

    def _plan(self, w, device):
        compiled = super()._plan(w, device)
        self.planned.append((w.seq, device, compiled))
        return compiled


def _fresh(sched, req, device, params):
    """The compiled plan built afresh from ``req``'s own bound region."""
    limit = sched._limit_for(req, device)
    bound = req.region.bind(req.arrays)
    return compile_plan(tune_plan(bound.with_params(*params), limit))


def _check_served_forms(sched, requests) -> None:
    """Every plan ``sched`` served is the fresh one, under the reference
    key, and the entry's own."""
    assert sched.planned
    for seq, device, compiled in sched.planned:
        req = requests[seq]
        profile = sched.pool.runtimes[device].profile.name
        limit = sched._limit_for(req, device)
        key = PlanCache.key_for(req.region, req.arrays, req.kernel, profile, limit)
        assert key == reference_key(
            req.region.bind(req.arrays), req.kernel, profile, limit
        )
        assert sched.cache.get_compiled(key) is compiled
        params = (compiled.plan.chunk_size, compiled.plan.num_streams)
        fresh = _fresh(sched, req, device, params)
        assert compiled == fresh, (seq, device)
        assert compiled.program == fresh.program and compiled.rings == fresh.rings
        for (var, spec), geometry, capacity in zip(
            compiled.plan.specs.items(), compiled.rings, compiled.capacities
        ):
            arr = req.arrays[var]
            assert geometry == ring_geometry(arr.shape, spec.split_dim, capacity, arr.dtype)


def _serve_twice(setup, config=None):
    """Two independently built copies of one region, served in order on
    one device: the first misses and compiles, the second hits."""
    requests = []
    for tenant in ("first", "second"):
        region, arrays, kernel = setup()
        requests.append(RegionRequest(tenant, region, arrays, kernel))
    sched = _Recording(DevicePool("k40m"), config or ServeConfig(max_active=1))
    sched.submit_all(requests)
    report = sched.run()
    assert report.ok
    assert [r.cache_hit for r in report.results] == [False, True]
    (s0, _d0, first), (s1, _d1, second) = sched.planned
    assert (s0, s1) == (0, 1) and second is first
    return sched, requests


# ----------------------------------------------------------------------
# the regions of the issue-stream scenarios
# ----------------------------------------------------------------------
#: each issue-stream scenario's region, kernel and arrays (virtual where
#: the scenario's plan does not depend on it)
SCENARIO_SETUPS = {
    "conv3d": iss._conv3d,
    "matmul": iss._matmul,
    "qcd": iss._qcd,
    "stencil": iss._stencil,
    "stencil-duplicate": lambda: iss._stencil(halo_mode="duplicate"),
    "stencil-adaptive": lambda: iss._stencil(schedule="adaptive"),
    "matmul-pipelined": iss._matmul,
    "stencil-pipelined": iss._stencil,
    "stencil-pipelined-duplicate": lambda: iss._stencil(halo_mode="duplicate"),
    "stencil-checksum": lambda: iss._stencil(virtual=False),
    "conv3d-vote": lambda: iss._conv3d(virtual=False),
    "stencil-checksum-long": lambda: iss._long_stencil(True),
    "stencil-vote-long": lambda: iss._long_stencil(True),
    "matmul-checksum": iss._matmul,
    "tofrom-long": iss._tofrom,
    "stencil-transient": lambda: iss._stencil(virtual=False),
    "conv3d-2shard": iss._conv3d,
    "conv3d-2shard-checksum": iss._conv3d,
    "autotune-stencil": lambda: iss._stencil(num_streams=2),
}


def test_every_issue_stream_scenario_has_a_setup():
    assert set(SCENARIO_SETUPS) == set(iss.SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIO_SETUPS))
def test_cached_plan_equals_a_fresh_one_per_scenario(name):
    sched, requests = _serve_twice(SCENARIO_SETUPS[name])
    _check_served_forms(sched, requests)


@pytest.mark.parametrize("name", ["stencil", "stencil-adaptive", "tofrom-long"])
def test_cached_plan_with_pragma_params(name):
    """Without autotune the entry holds the pragma's (tuned) params."""
    sched, requests = _serve_twice(
        SCENARIO_SETUPS[name], ServeConfig(max_active=1, autotune=False)
    )
    _check_served_forms(sched, requests)


# ----------------------------------------------------------------------
# seeded random regions
# ----------------------------------------------------------------------
_DTYPES = (np.float32, np.float64, np.int16)


def _random_region(seed: int):
    """A region of affine ``pipeline_map`` clauses of every direction,
    some with the split extent left to the array, plus residents, under
    a static or adaptive schedule and either halo mode."""
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, 3))
    stop = start + int(rng.integers(3, 20))
    loop = Loop("k", start, stop)
    clauses, arrays = [], {}
    for i in range(int(rng.integers(1, 4))):
        var = f"P{i}"
        a = int(rng.integers(1, 3))
        size = int(rng.integers(1, 4))
        b = int(rng.integers(0, 3)) - a * start
        extent = a * (stop - 1) + b + size + int(rng.integers(0, 3))
        split_dim = int(rng.integers(0, 3))
        shape = [int(rng.integers(1, 5)), int(rng.integers(1, 9))]
        shape.insert(split_dim, extent)
        dims = [(0, s) for s in shape]
        if rng.random() < 0.5:
            dims[split_dim] = (0, -1)  # bound to the array's extent
        direction = str(rng.choice(["to", "from", "tofrom"]))
        clauses.append(PipelineMapClause(
            direction, var, split_dim, Affine(a, b), size, tuple(dims)
        ))
        arrays[var] = VirtualArray(tuple(shape), _DTYPES[int(rng.integers(0, 3))])
    residents = []
    for i in range(int(rng.integers(0, 3))):
        var = f"R{i}"
        residents.append(MapClause(str(rng.choice(["to", "from", "tofrom", "alloc"])), var))
        arrays[var] = VirtualArray(
            (int(rng.integers(1, 40)),), _DTYPES[int(rng.integers(0, 3))]
        )
    region = TargetRegion(
        pipeline=PipelineClause(
            str(rng.choice(["static", "adaptive"])),
            int(rng.integers(1, 5)),
            int(rng.integers(1, 5)),
        ),
        pipeline_maps=clauses,
        loop=loop,
        maps=residents,
        halo_mode=str(rng.choice(["dedup", "duplicate"])),
    )
    kernel = make_kernel(
        lambda profile, t0, t1: (t1 - t0) * 3e-6, lambda views, t0, t1: None,
        name="random",
    )
    return region, arrays, kernel


@pytest.mark.parametrize("seed", range(24))
def test_cached_plan_equals_a_fresh_one_on_random_regions(seed):
    sched, requests = _serve_twice(lambda: _random_region(seed))
    _check_served_forms(sched, requests)


@pytest.mark.parametrize("seed", range(40))
def test_key_without_bind_is_the_bound_plans_key(seed):
    region, arrays, kernel = _random_region(seed)
    for profile, limit in (("k40m", 1 << 20), ("hd7970", None)):
        assert PlanCache.key_for(region, arrays, kernel, profile, limit) == reference_key(
            region.bind(arrays), kernel, profile, limit
        )


def test_dep_fn_regions_have_no_key():
    clause = PipelineMapClause(
        "to", "A", 0, Affine(1, 0), 1, ((0, 8), (0, 8)), dep_fn=lambda k: (k, k + 1),
    )
    region = TargetRegion(PipelineClause("static", 1, 2), [clause], Loop("k", 0, 8))
    arrays = {"A": np.zeros((8, 8))}
    kernel = make_kernel(lambda p, t0, t1: 1e-6, lambda v, t0, t1: None, name="dep")
    assert reference_key(region.bind(arrays), kernel, "k40m", 1) is None
    assert PlanCache.key_for(region, arrays, kernel, "k40m", 1) is None


@pytest.mark.parametrize("missing", ["P0", "R0"])
def test_a_missing_array_raises_binds_error(missing):
    region, arrays, kernel = _random_region(3)
    region.maps = [MapClause("to", "R0")]
    arrays["R0"] = VirtualArray((4,), np.float32)
    del arrays[missing]
    with pytest.raises(DirectiveError) as bound:
        region.bind(arrays)
    with pytest.raises(DirectiveError) as keyed:
        PlanCache.key_for(region, arrays, kernel, "k40m", None)
    assert str(keyed.value) == str(bound.value) == f"no host array bound for {missing!r}"


# ----------------------------------------------------------------------
# what tells entries apart
# ----------------------------------------------------------------------
def _variant(halo="dedup", dtype=np.float32, nz=18, limit=None):
    region = TargetRegion.parse(
        "pipeline(static[1,2]) pipeline_map(to: A[k-1:3][0:16][0:16]) "
        "pipeline_map(from: B[k:1][0:16][0:16])",
        loop=Loop("k", 1, nz - 1),
        halo_mode=halo,
    )
    if limit is not None:
        region.mem_limit = MemLimitClause(limit)
    arrays = {
        "A": VirtualArray((nz, 16, 16), dtype),
        "B": VirtualArray((nz, 16, 16), dtype),
    }
    kernel = make_kernel(
        lambda profile, t0, t1: (t1 - t0) * 1e-5, lambda views, t0, t1: None,
        name="variant",
    )
    return RegionRequest("t", region, arrays, kernel)


def test_requests_differing_in_one_input_get_separate_entries():
    """Halo mode, dtype, shape and limit per request, and the profile per
    device: ten plans, ten keys, ten entries, each served its own."""
    requests = [
        _variant(),
        _variant(halo="duplicate"),
        _variant(dtype=np.float64),
        _variant(nz=26),
        _variant(limit=8192),
    ]
    sched = _Recording(DevicePool(["k40m", "hd7970"]), ServeConfig())
    sched.submit_all(requests)
    for w in list(sched._waiting):
        for device in (0, 1):
            sched._plan(w, device)
    keys = {
        PlanCache.key_for(
            requests[seq].region, requests[seq].arrays, requests[seq].kernel,
            sched.pool.runtimes[device].profile.name,
            sched._limit_for(requests[seq], device),
        )
        for seq, device, _c in sched.planned
    }
    assert len(sched.planned) == len(keys) == len(sched.cache) == 10
    assert len({id(c) for _s, _d, c in sched.planned}) == 10
    _check_served_forms(sched, requests)
    by = {(seq, device): c.plan for seq, device, c in sched.planned}
    assert by[1, 0].halo_mode != by[0, 0].halo_mode
    assert by[2, 0].dtypes["A"] != by[0, 0].dtypes["A"]
    assert by[3, 0].shapes["A"] != by[0, 0].shapes["A"]
    assert by[4, 0].device_bytes() <= 8192 < by[0, 0].device_bytes()
    assert sched.run().ok


# ----------------------------------------------------------------------
# the kernel-cost hazard
# ----------------------------------------------------------------------
def _priced(name: str, per_iteration: float):
    region = TargetRegion.parse(
        "pipeline(static[2,2]) pipeline_map(to: A[k-1:3][0:16][0:16]) "
        "pipeline_map(from: B[k:1][0:16][0:16])",
        loop=Loop("k", 1, 17),
    )
    arrays = {
        "A": VirtualArray((18, 16, 16), np.float32),
        "B": VirtualArray((18, 16, 16), np.float32),
    }
    kernel = make_kernel(
        lambda profile, t0, t1: (t1 - t0) * per_iteration,
        lambda views, t0, t1: None,
        name=name,
    )
    return RegionRequest(name, region, arrays, kernel)


def _kernel_durations(requests, monkeypatch, cache=None):
    """Serve ``requests`` on one device; each request's kernel launch
    durations, in issue order, keyed by request id."""
    launched = {}
    real_enqueue = Simulator.enqueue

    def enqueue(self, cmd, **kw):
        if cmd.kind == "kernel":
            seq = int(cmd.stream.name[1:].split(".")[0])
            launched.setdefault(seq, []).append(cmd.duration)
        return real_enqueue(self, cmd, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "enqueue", enqueue)
        sched = RegionScheduler(DevicePool("k40m"), ServeConfig(), cache=cache)
        sched.submit_all(requests)
        report = sched.run()
    assert report.ok
    return launched, report


def test_each_request_is_priced_by_its_own_kernel(monkeypatch):
    """Two kernels of one name share a cache entry; the dearer one's
    launches are priced by its own cost model, exactly as when it is
    served alone from an entry of its own with the same parameters."""
    shared, report = _kernel_durations(
        [_priced("same", 1e-5), _priced("same", 7e-5)], monkeypatch
    )
    assert [r.cache_hit for r in report.results] == [False, True]
    cheap, dear = shared[0], shared[1]
    assert len(cheap) == len(dear) > 1
    assert all(d > c for c, d in zip(cheap, dear))

    alone = _priced("same", 7e-5)
    cache = PlanCache()
    key = PlanCache.key_for(
        alone.region, alone.arrays, alone.kernel, "k40m",
        DevicePool("k40m").budgets[0],
    )
    result = report.results[1]
    cache.put(key, result.chunk_size, result.num_streams)
    launched, _report = _kernel_durations([alone], monkeypatch, cache)
    assert launched[0] == dear


# ----------------------------------------------------------------------
# a warm hit binds nothing
# ----------------------------------------------------------------------
def _count_binds(monkeypatch) -> list:
    bound = []
    bind = TargetRegion.bind

    def counting_bind(region, arrays):
        bound.append(region)
        return bind(region, arrays)

    monkeypatch.setattr(TargetRegion, "bind", counting_bind)
    return bound


def _same_shape(n: int):
    return [
        build_request("stencil", tenant=f"t{i}", config={"nz": 18, "ny": 48, "nx": 48})
        for i in range(n)
    ]


def test_warm_hits_bind_nothing(monkeypatch):
    bound = _count_binds(monkeypatch)
    requests = _same_shape(10)
    sched = RegionScheduler(DevicePool("k40m"), ServeConfig())
    sched.submit_all(requests)
    report = sched.run()
    assert report.ok
    assert (report.cache["misses"], report.cache["hits"]) == (1, 9)
    assert bound == [requests[0].region]


def test_restored_entries_compile_on_their_first_hit(monkeypatch):
    """A cache rebuilt from checkpointed (params-only) entries serves
    every request as a hit, binding once to compile the entry again;
    the compiled plan is the fresh one and the entries dump unchanged."""
    first = RegionScheduler(DevicePool("k40m"), ServeConfig())
    first.submit_all(_same_shape(3))
    assert first.run().ok
    entries = json.loads(json.dumps(first.cache.dump_entries()))
    assert len(entries) == 1

    def freeze(value):
        return tuple(freeze(v) for v in value) if isinstance(value, list) else value

    cache = PlanCache()
    for key, params in entries:
        cache.put(freeze(key), *params)
    bound = _count_binds(monkeypatch)
    requests = _same_shape(10)
    sched = _Recording(DevicePool("k40m"), ServeConfig(), cache=cache)
    sched.submit_all(requests)
    report = sched.run()
    assert report.ok
    assert (report.cache["misses"], report.cache["hits"]) == (0, 10)
    assert bound == [requests[0].region]
    assert len({id(c) for _s, _d, c in sched.planned}) == 1
    monkeypatch.undo()
    _check_served_forms(sched, requests)
    assert cache.dump_entries() == entries


# ----------------------------------------------------------------------
# issuers share the entry's program and ring layouts
# ----------------------------------------------------------------------
def test_hits_share_the_entrys_program_and_leave_it_unchanged(monkeypatch):
    """Two requests served together from one entry: both issuers issue
    the entry's program object and allocate from its ring layouts, and
    after both drained the program and layouts equal a copy taken
    before the first one opened."""
    opened = []
    real_open = PipelineIssuer.open

    def recording_open(self):
        if not opened:
            opened.append(copy.deepcopy((self.compiled.program, self.compiled.rings)))
        opened.append(self)
        return real_open(self)

    monkeypatch.setattr(PipelineIssuer, "open", recording_open)
    requests = [
        RegionRequest(tenant, *iss._stencil(num_streams=2)) for tenant in ("a", "b")
    ]
    sched = _Recording(DevicePool("k40m"), ServeConfig(max_active=2))
    sched.submit_all(requests)
    report = sched.run()
    assert report.ok
    assert [r.cache_hit for r in report.results] == [False, True]
    before, *issuers = opened
    compiled = sched.planned[0][2]
    assert len(issuers) == 2 and issuers[0] is not issuers[1]
    for issuer in issuers:
        assert issuer.compiled is compiled and issuer._program is compiled.program
        assert issuer.remaining == 0 and len(issuer.chunks) > 1
        for ring, geometry in zip(issuer.rings.values(), compiled.rings):
            assert ring.geometry is geometry
    assert (compiled.program, compiled.rings) == before


def _issued(run) -> list:
    """The fingerprint of every command ``run()`` enqueues, with its
    waits as enqueued (see ``tests/core/test_issue_stream.py``)."""
    issued = []
    real_enqueue = Simulator.enqueue

    def enqueue(self, cmd, *, waits=(), poison_waits=None, **kw):
        waits = tuple(waits)
        ids = None if poison_waits is None else {id(t) for t in poison_waits}
        issued.append((cmd, waits, [ids is None or id(t) in ids for t in waits]))
        return real_enqueue(self, cmd, waits=waits, poison_waits=poison_waits, **kw)

    Simulator.enqueue = enqueue
    try:
        run()
    finally:
        Simulator.enqueue = real_enqueue
    return [iss._fingerprint(*entry) for entry in issued]


def _drive(compiled, arrays, kernel, integrity) -> PipelineIssuer:
    """One region run start to finish on a fresh runtime."""
    issuer = PipelineIssuer(
        new_runtime("k40m", virtual=False), compiled, arrays, kernel, integrity=integrity
    )
    issuer.open()
    while issuer.issue_next() is not None:
        pass
    issuer.runtime.synchronize()
    issuer.finalize()
    return issuer


@pytest.mark.parametrize("integrity", ["checksum", "vote"])
def test_an_integrity_issuer_from_an_entry_issues_its_own_program(integrity):
    """With checks on, an issuer opened from a used entry's plan issues
    the checked program ``compile_for`` builds, exactly what one opened
    from the bare plan issues; the entry's integrity-off program is left
    as it was."""
    region, arrays, kernel = iss._stencil(virtual=False, num_streams=2)
    plan = region.plan_for(new_runtime("k40m", virtual=False), arrays)
    compiled = compile_plan(plan)
    before = copy.deepcopy(compiled.program)
    _drive(compiled, arrays, kernel, "off")
    cached = []
    from_entry = _issued(lambda: cached.append(
        _drive(compile_for(compiled.plan, integrity), arrays, kernel, integrity)
    ))
    from_plan = _issued(lambda: _drive(compile_for(plan, integrity), arrays, kernel, integrity))
    assert from_entry == from_plan
    assert sum(row[3].startswith("verify:") for row in from_entry) == cached[0].verified_n > 0
    issuer = cached[0]
    assert issuer._program is not compiled.program
    assert issuer._program == chunk_program(
        plan, [compiled.chunks.ranges(i) for i in range(len(compiled.chunks))],
        compiled.capacities, True, integrity == "vote",
    )
    assert compiled.program == before


def _issuer_programs(monkeypatch, run) -> int:
    """How many chunk programs ``compile_plan`` builds while ``run()``
    runs, from an empty memo; a search's or a rate probe's dry runs
    build their own, uncounted."""
    inside = [0]
    built = [0]

    def within(method):
        def wrapped(self, *args, **kw):
            inside[0] += 1
            try:
                return method(self, *args, **kw)
            finally:
                inside[0] -= 1
        return wrapped

    def counted(*args, **kw):
        built[0] += inside[0] > 0
        return real_program(*args, **kw)

    real_program = pipemodel.chunk_program
    pipemodel.clear_compile_memo()
    monkeypatch.setattr(pipemodel, "_compile", within(pipemodel._compile))
    monkeypatch.setattr(pipemodel, "chunk_program", counted)
    run()
    return built[0]


@pytest.mark.parametrize("devices,built", [(1, 1), (2, 2)])
def test_a_checksum_issuer_builds_only_the_program_it_issues(monkeypatch, devices, built):
    """A ``checksum`` run builds one chunk program per issuer, on one
    device and on two shards: the integrity-off program it would not
    issue is never built."""
    region, arrays, kernel = iss._conv3d()
    runtime = new_runtime("k40m", virtual=True) if devices == 1 else None
    sharded = {"devices": devices} if devices > 1 else {}

    def run():
        region.run(runtime, arrays, kernel, integrity="checksum", **sharded)

    assert _issuer_programs(monkeypatch, run) == built
