"""``compile_plan`` compiles each distinct plan once, as integer rows.

:func:`~repro.core.pipemodel.compile_plan` keeps the last 64 distinct
``(plan, checks)`` it compiled, keyed by a frozen copy of the plan's
fields, and its :class:`~repro.core.pipemodel.ChunkProgram` is flat
integer rows whose labels are formatted once, when the compiled plan is
assembled.  So:

* a memo hit equals a fresh build, on the four apps (as configured, and
  adaptive under a memory limit), on the random regions of
  ``tests/core/test_plan_family.py`` and with every check set;
* changing any field of the plan, or any check, misses;
* the memo keeps at most 64 entries and evicts the least recently used
  one; a compile that raises keeps nothing; mutating the caller's plan
  afterwards changes neither the entry nor its key; a dry run never
  enters it;
* the rows decode to exactly the op tuples the tuple program this
  format replaced held (its builder is kept below as the reference),
  labels included, over the seeded random range tables of
  ``tests/core/test_wait_policy.py``;
* a compiled plan holds no Python object per chunk, an issuer takes
  only a compiled plan whose checks are its integrity mode's, and a run
  of plan-cache hits formats no label and builds no program.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps.common import new_runtime
from repro.core import pipemodel
from repro.core.autotune import autotune
from repro.core.executor import PipelineIssuer, compile_for
from repro.core.memlimit import tune_plan
from repro.core.pipemodel import (
    CHECK_D2H,
    CHECK_H2D,
    CHECK_HALO,
    D2H,
    H2D,
    KERNEL,
    VOTE,
    Books,
    chunk_program,
    clear_compile_memo,
    compile_memo,
    compile_plan,
    dependency_ranges,
    drain_outputs,
    stage_inputs,
)
from repro.core.region import TargetRegion
from repro.core.ringbuffer import RingPiece
from repro.directives.clauses import Loop, MapClause
from repro.gpu.errors import InvalidValueError
from repro.serve import DevicePool, PlanCache, RegionScheduler, ServeConfig, build_request
from repro.sim.varray import VirtualArray
from tests.core import test_issue_stream as iss
from tests.core.test_plan_family import random_case
from tests.core.test_wait_policy import _case


@pytest.fixture(autouse=True)
def _empty_memo():
    """Every test starts from an empty memo and leaves one behind."""
    clear_compile_memo()
    yield
    clear_compile_memo()


def _app_plans():
    """``(name, plan)`` of the four apps, as configured and adaptive
    under a memory limit half their footprint (or the smallest plan's)."""
    rt = new_runtime("k40m", virtual=True)
    for name, setup in (
        ("stencil", iss._stencil), ("conv3d", iss._conv3d), ("matmul", iss._matmul),
        ("qcd", iss._qcd),
    ):
        region, arrays, _kernel = setup()
        plan = region.plan_for(rt, arrays)
        yield name, plan
        adaptive = dataclasses.replace(plan, schedule="adaptive")
        limit = max(adaptive.with_params(1, 1).device_bytes(), adaptive.device_bytes() // 2)
        yield f"{name} adaptive", tune_plan(adaptive, limit)


def _hit_equals_fresh(plan, *checks) -> None:
    """``compile_plan(plan, *checks)`` twice is one entry, and equals
    the plan compiled again from an empty memo."""
    first = compile_plan(plan, *checks)
    assert compile_plan(plan, *checks) is first
    clear_compile_memo()
    fresh = compile_plan(plan, *checks)
    assert fresh is not first and fresh == first
    assert fresh.program == first.program and fresh.labels == first.labels


@pytest.mark.parametrize("checks", [(), (True,), (True, True)])
def test_a_hit_equals_a_fresh_build_on_the_apps(checks):
    for _name, plan in _app_plans():
        _hit_equals_fresh(plan, *checks)


def test_a_hit_equals_a_fresh_build_with_halo_seams():
    region, arrays, _kernel = iss._stencil()
    plan = region.bind(arrays)
    seams = {"A0": [(2, 4), (7, 9)]}
    _hit_equals_fresh(plan, True, False, seams)
    compiled = compile_plan(plan, True, False, seams)
    assert compiled.halo == (("A0", ((2, 4), (7, 9))),)
    assert sum(compiled.program.step(i)[4] for i in range(len(compiled.program))) > 0


@pytest.mark.parametrize("seed", range(12))
def test_a_hit_equals_a_fresh_build_on_random_regions(seed):
    region, arrays, _kernel = random_case(seed)
    plan = region.bind(arrays)
    _hit_equals_fresh(plan)
    _hit_equals_fresh(plan, True)


def _base():
    """A plan with two pipelined arrays and a resident."""
    region = TargetRegion.parse(
        "pipeline(static[2,2]) pipeline_map(to: A[k-1:3][0:8][0:8]) "
        "pipeline_map(from: B[k:1][0:8][0:8]) map(tofrom: C)",
        loop=Loop("k", 1, 23),
    )
    arrays = {
        "A": VirtualArray((24, 8, 8), np.float32),
        "B": VirtualArray((24, 8, 8), np.float32),
        "C": VirtualArray((4, 4), np.float64),
    }
    return region.bind(arrays)


def _variants(plan):
    """``(field, plan)``: ``plan`` with one field changed."""
    other = TargetRegion.parse(
        "pipeline(static[2,2]) pipeline_map(to: A[k-1:4][0:8][0:8]) "
        "pipeline_map(from: B[k:1][0:8][0:8]) map(tofrom: C)",
        loop=Loop("k", 1, 20),
    ).bind({
        "A": VirtualArray((24, 8, 8), np.float32),
        "B": VirtualArray((24, 8, 8), np.float32),
        "C": VirtualArray((4, 4), np.float64),
    })
    yield "loop", dataclasses.replace(plan, loop=Loop("k", 1, 20))
    yield "chunk_size", plan.with_params(3, plan.num_streams)
    yield "num_streams", plan.with_params(plan.chunk_size, 3)
    yield "schedule", dataclasses.replace(plan, schedule="adaptive")
    yield "specs", dataclasses.replace(plan, specs={**plan.specs, "A": other.specs["A"]})
    yield "residents", dataclasses.replace(plan, residents={"C": MapClause("from", "C")})
    yield "dtypes", dataclasses.replace(
        plan, dtypes={**plan.dtypes, "B": np.dtype(np.float64)}
    )
    yield "shapes", dataclasses.replace(plan, shapes={**plan.shapes, "B": (30, 8, 8)})
    yield "halo_mode", dataclasses.replace(plan, halo_mode="duplicate")


def test_changing_any_field_or_check_misses():
    plan = _base()
    base = compile_plan(plan)
    fields = {f.name for f in dataclasses.fields(plan)}
    changed = set()
    for field, variant in _variants(plan):
        misses = compile_memo().misses
        got = compile_plan(variant)
        assert compile_memo().misses == misses + 1, field
        assert got is not base and got.plan == variant, field
        changed.add(field)
    assert changed == fields
    for checks in [(True,), (False, True), (True, True), (True, False, {"A": [(3, 5)]})]:
        misses = compile_memo().misses
        assert compile_plan(plan, *checks) is not base, checks
        assert compile_memo().misses == misses + 1, checks
    # seams are checked only by checksums, so alone they name the same program
    assert compile_plan(plan, False, False, {"A": [(3, 5)]}) is base
    # an equal plan built anew, its specs equal but not the same objects, hits
    assert compile_plan(copy.deepcopy(plan)) is base


def test_the_memo_keeps_64_entries_least_recently_used_first():
    region, arrays, _kernel = iss._long_stencil(virtual=True)
    plan = region.bind(arrays)
    plans = [plan.with_params(cs, 1) for cs in range(1, 66)]
    first = [compile_plan(p) for p in plans[:64]]
    assert len(compile_memo().entries) == 64
    # touch the oldest: the second-oldest is now the least recently used
    assert compile_plan(plans[0]) is first[0]
    compile_plan(plans[64])
    info = compile_memo()
    assert len(info.entries) == 64
    assert info.entries[0] is first[2] and info.entries[-1].plan == plans[64]
    assert first[1] not in info.entries
    assert (info.hits, info.misses) == (1, 65)
    assert compile_plan(plans[0]) is first[0]
    assert compile_plan(plans[1]) is not first[1]


def test_a_compile_that_raises_keeps_nothing(monkeypatch):
    plan = _base()

    def broken(*args, **kw):
        raise RuntimeError("no program")

    monkeypatch.setattr(pipemodel, "chunk_program", broken)
    with pytest.raises(RuntimeError):
        compile_plan(plan)
    assert compile_memo().entries == ()
    monkeypatch.undo()
    got = compile_plan(plan)
    assert compile_memo().entries == (got,)
    assert compile_plan(plan) is got


def test_mutating_the_callers_plan_leaves_the_entry_unchanged():
    plan = _base()
    before = copy.deepcopy(plan)
    compiled = compile_plan(plan)
    snapshot = copy.deepcopy(compiled)
    assert compiled.plan is not plan
    plan.specs.pop("B")
    plan.shapes["A"] = (99, 8, 8)
    plan.residents.clear()
    plan.chunk_size = 7
    assert compiled == snapshot and compiled.plan == before
    assert compile_plan(before) is compiled


def test_a_dry_run_never_enters_the_memo():
    region, arrays, kernel = iss._stencil()
    plan = region.bind(arrays)
    report = autotune(plan, new_runtime("k40m", virtual=True), arrays, kernel)
    assert report.dry_runs > 0
    assert compile_memo() == ((), 0, 0)
    winner = plan.with_params(report.best.chunk_size, report.best.num_streams)
    assert report.compiled(winner) == compile_plan(winner)


# ----------------------------------------------------------------------
# the rows against the tuple program they replaced
# ----------------------------------------------------------------------
class _TupleRecorder:
    """The tuple program's recorder, as it was: each call appends one
    ``(check, k, piece, label, waits)`` op to the current phase."""

    def __init__(self, names, verify, halo) -> None:
        self.names = names
        self.verify = verify
        self.halo = halo
        self.n = 0
        self.phase: list = []
        self.checks = self.seams = 0

    def issue_h2d(self, book, piece, reuse):
        k = book.lane
        i = self.n
        self.phase.append(
            (None, k, piece, f"h2d:{self.names[k]}[{piece.g_lo}:{piece.g_hi})", tuple(reuse))
        )
        self.n = i + 1
        if self.verify:
            self._check("h2d", book, piece, i)
        return i

    def issue_d2h(self, book, piece):
        k = book.lane
        i = self.n
        self.phase.append(
            (None, k, piece, f"d2h:{self.names[k]}[{piece.g_lo}:{piece.g_hi})", ())
        )
        self.n = i + 1
        if self.verify:
            self._check("d2h", book, piece, i)
        return i

    def _check(self, kind, book, piece, transfer):
        k = book.lane
        var, g_lo, g_hi = self.names[k], piece.g_lo, piece.g_hi
        if kind == "h2d" and any(lo < g_hi and hi > g_lo for lo, hi in self.halo.get(var, ())):
            kind = "halo"
            self.seams += 1
        self.phase.append((kind, k, piece, f"verify:{kind}:{var}[{g_lo}:{g_hi})", (transfer,)))
        book.readers.append((g_lo, g_hi, self.n))
        self.n += 1
        self.checks += 1


def tuple_program(plan, ranges, capacities, verify, vote, halo) -> list:
    """The tuple program of ``plan``: per chunk ``(h2d ops, kernel data
    waits, kernel reuse waits, d2h ops, checks, seams)``."""
    books = [
        Books(spec.clause, capacity, k)
        for k, (spec, capacity) in enumerate(zip(plan.specs.values(), capacities))
    ]
    rec = _TupleRecorder(list(plan.specs), verify, halo or {})
    dedup = plan.halo_mode == "dedup"
    program = []
    for chunk_ranges in ranges:
        rec.phase = []
        rec.checks = rec.seams = 0
        inputs: list = []
        out_reuse: list = []
        stage_inputs(books, chunk_ranges, dedup, rec, inputs, out_reuse)
        h2d = rec.phase
        kernel = rec.n
        rec.n += 1
        rec.phase = []
        drain_outputs(books, chunk_ranges, kernel, rec)
        d2h = rec.phase
        if vote:
            d2h.append(("vote", -1, None, None, (kernel,)))
            for book, (lo, hi) in zip(books, chunk_ranges):
                book.readers.append((lo, hi, rec.n))
            rec.n += 1
            rec.checks += 1
        program.append((
            tuple(h2d), tuple(inputs), tuple(out_reuse), tuple(d2h), rec.checks, rec.seams,
        ))
    return program


_CHECK = {H2D: None, D2H: None, CHECK_H2D: "h2d", CHECK_HALO: "halo", CHECK_D2H: "d2h"}


def decode(program, labels) -> list:
    """The rows of ``program`` and its ``labels`` as the tuple program's steps."""
    out = []
    for i in range(len(program)):
        first, kernel, end, checks, seams = program.step(i)
        phases: list = [[], []]
        reads = reuse = None
        for j in range(first, end):
            kind, k, g_lo, g_hi, pos, data, op_reuse = program.op(j)
            if kind == KERNEL:
                reads, reuse = data, op_reuse
                continue
            phase = phases[j > kernel]
            if kind == VOTE:
                assert labels[j] is None
                phase.append(("vote", -1, None, None, data))
            else:
                piece = RingPiece(g_lo, g_hi, pos)
                phase.append((_CHECK[kind], k, piece, labels[j], data + op_reuse))
        assert labels[kernel] is None
        out.append((tuple(phases[0]), reads, reuse, tuple(phases[1]), checks, seams))
    return out


@pytest.mark.parametrize("first", range(0, 300, 30))
def test_rows_decode_to_the_tuple_programs_ops(first):
    for seed in range(first, first + 30):
        rng, clauses, capacities, dedup, verify, vote, table = _case(seed)
        names = [f"v{k}" for k in range(len(clauses))]
        halo = {
            var: [(lo, lo + rng.randint(1, 4))]
            for var, lo in zip(names, (rng.randint(0, 40) for _ in clauses))
            if verify and rng.random() < 0.5
        }
        plan = SimpleNamespace(
            specs={var: SimpleNamespace(clause=cl) for var, cl in zip(names, clauses)},
            halo_mode="dedup" if dedup else "duplicate",
        )
        program = chunk_program(plan, table, capacities, verify, vote, halo)
        labels = pipemodel._labels(names, program)
        expected = tuple_program(plan, table, capacities, verify, vote, halo)
        assert decode(program, labels) == expected, seed


def test_the_rows_of_every_app_decode_to_the_tuple_programs_ops():
    for name, plan in _app_plans():
        for checks in [(False, False), (True, False), (True, True)]:
            compiled = compile_plan(plan, *checks)
            ranges = dependency_ranges(plan.specs, compiled.chunks.bounds())
            expected = tuple_program(plan, ranges, compiled.capacities, *checks, None)
            assert decode(compiled.program, compiled.labels) == expected, (name, checks)
            assert [compiled.chunks.ranges(i) for i in range(len(compiled.chunks))] == [
                list(r) for r in ranges
            ]
            assert list(compiled.chunks) == plan.chunks(), name


# ----------------------------------------------------------------------
# what a compiled plan costs, and what a hit does
# ----------------------------------------------------------------------
def _tracked(root) -> int:
    """GC-tracked objects reachable from ``root``, its plan left out."""
    seen = {id(root.plan)}
    todo = [root]
    n = 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            n += 1
        todo += gc.get_referents(obj)
    return n


def test_a_compiled_plan_holds_no_object_per_chunk():
    region, arrays, _kernel = iss._long_stencil(virtual=True)
    plan = region.bind(arrays)
    small = compile_plan(dataclasses.replace(plan, loop=Loop("k", 1, 11)), True)
    big = compile_plan(plan, True)
    gc.collect()
    assert len(big.chunks) > 500 and len(small.chunks) < 10
    assert _tracked(big) == _tracked(small)


def test_an_issuer_takes_only_a_compiled_plan_with_its_checks():
    region, arrays, kernel = iss._stencil()
    rt = new_runtime("k40m", virtual=True)
    plan = region.plan_for(rt, arrays)
    with pytest.raises(TypeError, match="compiled must be a CompiledPlan"):
        PipelineIssuer(rt, plan, arrays, kernel)
    for integrity, checks in [("checksum", ()), ("off", (True,)), ("vote", (True,))]:
        with pytest.raises(InvalidValueError, match=f"integrity '{integrity}'"):
            PipelineIssuer(rt, compile_plan(plan, *checks), arrays, kernel, integrity=integrity)
    issuer = PipelineIssuer(rt, compile_for(plan, "vote"), arrays, kernel, integrity="vote")
    assert issuer.compiled is compile_plan(plan, True, True)


def test_plan_cache_hits_format_no_label_and_build_no_program(monkeypatch):
    requests = [
        build_request("stencil", tenant=f"t{i}", config={"nz": 18, "ny": 48, "nx": 48})
        for i in range(6)
    ]
    cache = PlanCache()
    first = RegionScheduler(DevicePool("k40m"), ServeConfig(), cache=cache)
    first.submit_all(requests[:1])
    assert first.run().ok
    calls = {"labels": 0, "programs": 0, "compiles": 0}

    def counted(name, fn):
        def wrapped(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapped

    monkeypatch.setattr(pipemodel, "_labels", counted("labels", pipemodel._labels))
    monkeypatch.setattr(pipemodel, "chunk_program", counted("programs", pipemodel.chunk_program))
    monkeypatch.setattr(pipemodel, "_compile", counted("compiles", pipemodel._compile))
    sched = RegionScheduler(DevicePool("k40m"), ServeConfig(max_active=2), cache=cache)
    sched.submit_all(requests[1:])
    report = sched.run()
    assert report.ok and report.cache["hits"] == 5
    assert calls == {"labels": 0, "programs": 0, "compiles": 0}
