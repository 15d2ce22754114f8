"""Exact analytic dry runs: a pipeline's elapsed time without the simulator.

:func:`~repro.core.autotune.autotune` prices every candidate
``(chunk_size, num_streams)`` by the ``elapsed`` that
:func:`~repro.core.executor.execute_pipeline` would report on a fresh
virtual device of the target profile.  Building that run's commands,
tokens, ring views and runtime calls costs far more than the one float
the search reads, so :func:`dry_run_elapsed` replays the same run on
plain numbers instead:

* **the host clock**, in the runtime's order of ``+=`` steps: stream
  creation, each resident's malloc and blocking H2D, the ring mallocs,
  one scaled API call per issued command, the device synchronize, the
  blocking resident D2H and the frees;
* **the same inputs**, through the code the issuer uses: the schedule's
  chunks, :func:`chunk_work`, :func:`~repro.core.plan.ring_capacity`,
  :func:`~repro.core.ringbuffer.band_geometry`,
  :func:`~repro.core.ringbuffer.ring_pieces`, the link cost model and
  the kernel's ``chunk_cost``;
* **the same out-of-memory failures**: a fresh device's allocator has
  one free block of ``capacity - align(context)`` bytes and nothing is
  freed while a region opens, so first fit places each allocation at
  the block's start, and a plan fits exactly when its aligned
  allocations sum to at most that block.  Where they do not, the model
  raises what the allocator would, at the allocation that fails;
* **the same dependencies**: the member's integrity-off
  :func:`chunk_program`, the one run of the wait policy (:class:`Books`
  with :func:`stage_inputs` and :func:`drain_outputs`) whose program
  :meth:`PipelineIssuer.issue_next
  <repro.core.executor.PipelineIssuer.issue_next>` issues; its op ids
  are the dry run's command ids, so the model only prices its op rows;
* **the same event order**: a flat event loop over command ids with the
  engine's discipline — a ``(time, seq, event)`` heap, per-engine queues
  keyed by ``(ready_time, seq)``, an idle engine starting a ready
  command at once, and retirement resolving token waiters, then the
  stream successor, then the engine queue.

Every dry run is fault-free, unobserved, pinned and alone on its
device, so the replay covers every plan a dry run can see, and its
result is ``==`` to the simulator's.  ``tests/core/test_pipemodel.py``
and ``scripts/check_pipemodel.py`` hold the two bit for bit.

A search prices the members of one :class:`PlanFamily`: the
``with_params`` copies of one bound plan, told apart by ``(chunk_size,
num_streams)`` alone.  The family is built once per search and holds
what its members share (piece times, capacity inputs, resident sizes,
the ``open()`` clocks per stream count, the chunk table per chunk size),
so a member costs a few integer sums until it is priced.  It also
bounds its members from below in closed form, with no event loop, for
the search to decide which candidates the exact model still has to
price.  The bound shares the dry run's ``open()`` and ``finalize()``
phases, so it runs out of memory on exactly the same plans.
``tests/core/test_autotune_bound.py`` and ``scripts/check_pipemodel.py``
hold it at or below the exact time, and ``tests/core/test_plan_family.py``
holds the family's shared parts to the code each one stands for.  A
chunk size's members are bounded once more, together and without their
chunk table (:meth:`PlanFamily.row_bound`, from the row's totals in
closed form), so a search builds the tables of only the chunk sizes
that can hold a winner (``tests/core/test_autotune_walk.py``).

Every issuer runs a compiled plan: a :class:`CompiledPlan` holds what
every run of the plan derives from it alone (chunks and dependency
ranges, ring capacities and layouts, footprint) and its
:func:`chunk_program`: every command the issuer issues, with its waits
as op ids, recorded from one run of the wait policy.  Chunks and
program are flat integer rows (:class:`ChunkRows`,
:class:`ChunkProgram`); the labels of the commands are formatted and
interned only when a compiled plan is assembled, so a dry run, which
prices the same rows (:meth:`PlanFamily.commands`), formats none, and
an issue formats none but its kernel's.  :func:`compile_plan` keeps the
last 64 distinct ``(plan, checks)`` it compiled and hands every later
caller the same one; a :class:`~repro.serve.PlanCache` entry keeps the
one its requests hit.  The family assembles a search's winner from its
own chunk table, ring capacities and the program its dry run priced
(:meth:`PlanFamily.compiled`, outside that memo), the same way
:func:`compile_plan` assembles one from a plan.
``scripts/check_pipemodel.py`` holds each compiled program to the one
this model prices for the same plan, and the family's compiled plan to
:func:`compile_plan`'s.
"""

from __future__ import annotations

import math
from array import array
from collections import OrderedDict
from heapq import heappop, heappush, heappushpop
from itertools import chain
from sys import intern
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.kernel import RegionKernel
from repro.core.plan import Chunk, RegionPlan, max_chunk_size, ring_capacity, stream_count
from repro.core.ringbuffer import RingGeometry, band_geometry, ring_geometry, ring_pieces
from repro.core.scheduler import schedule_bounds
from repro.directives.clauses import Affine
from repro.directives.splitspec import chunk_ranges
from repro.sim.bandwidth import transfer_time_1d, transfer_time_2d
from repro.sim.memory import OutOfDeviceMemory, aligned
from repro.sim.profiles import DeviceProfile

__all__ = [
    "Books", "ChunkProgram", "ChunkRows", "CompiledPlan", "MemoInfo", "PlanFamily",
    "chunk_costs", "chunk_program", "chunk_work", "clear_compile_memo",
    "compile_memo", "compile_plan", "dependency_ranges", "drain_outputs",
    "dry_run_elapsed", "stage_inputs",
]

_new = tuple.__new__

#: heap event tags, in the engine's order (a finish sorts before a ready)
_FINISH = 0
_READY = 1


class _PieceTimes(dict):
    """``extent -> duration`` of one ring piece on a link, filled on demand.

    The duration is what ``Device.submit_copy`` gives a pinned copy of the
    piece's host section, before the region's per-command contention.
    The contention depends on the stream count and is added per command,
    so one table serves every candidate of a search.
    """

    __slots__ = ("link", "rows", "unit_bytes", "unit_row_bytes")

    def __init__(self, link, host_shape, split_dim: int, itemsize: int):
        super().__init__()
        self.link = link
        self.rows, self.unit_row_bytes = band_geometry(host_shape, split_dim, itemsize)
        self.unit_bytes = itemsize * math.prod(
            s for i, s in enumerate(host_shape) if i != split_dim
        )

    def __missing__(self, extent: int) -> float:
        if self.rows is None:
            t = transfer_time_1d(self.link, extent * self.unit_bytes, pinned=True)
        else:
            t = transfer_time_2d(
                self.link, self.rows, extent * self.unit_row_bytes, pinned=True
            )
        d = self[extent] = float(t)
        return d


def chunk_work(
    plan: RegionPlan, kernel: RegionKernel, profile: DeviceProfile
) -> tuple:
    """Per chunk in schedule order: ``(index, t0, t1, ranges, launch, cost)``.

    ``ranges`` are the chunk's dependency ranges in ``plan.specs`` order
    (:func:`dependency_ranges`), ``cost`` is the kernel's ``chunk_cost``
    (:func:`chunk_costs`) and ``launch`` is ``kernel_launch_overhead +
    cost``, the kernel duration before the region's contention is added.
    The dry-run model (:class:`PlanFamily`) prices candidates from this
    table, and the issuer reads the same two columns
    (:class:`~repro.core.executor.PipelineIssuer` takes the ranges from
    its :class:`CompiledPlan` and prices the costs at ``open()``), so
    they cannot drift.  It is a tuple, so a family's members share it
    safely.
    """
    bounds = schedule_bounds(
        plan.schedule, plan.loop, plan.chunk_size, plan.num_streams
    )
    return _chunk_table(plan.specs, kernel, profile, bounds)


def dependency_ranges(specs: Mapping[str, object], bounds) -> tuple:
    """Per chunk ``(t0, t1)`` of ``bounds``, its dependency ranges in
    ``specs`` order: tuples all the way down, so the collector soon stops
    tracking them and any number of issuers can share them."""
    columns = [chunk_ranges(spec.clause, bounds) for spec in specs.values()]
    if not columns:
        return ((),) * len(bounds)
    return tuple(zip(*columns))


def chunk_costs(kernel: RegionKernel, profile: DeviceProfile, bounds) -> List[float]:
    """The kernel's ``chunk_cost`` of each chunk ``(t0, t1)`` of
    ``bounds`` on ``profile``; a uniform kernel's cost depends on the
    chunk length only, so it is priced once per length."""
    chunk_cost = kernel.chunk_cost
    if not kernel.uniform_chunk_cost:
        return [chunk_cost(profile, t0, t1, translated=True) for t0, t1 in bounds]
    costs: Dict[int, float] = {}
    out = []
    for t0, t1 in bounds:
        cost = costs.get(t1 - t0)
        if cost is None:
            cost = costs[t1 - t0] = chunk_cost(profile, t0, t1, translated=True)
        out.append(cost)
    return out


def _chunk_table(specs, kernel, profile, bounds) -> tuple:
    """:func:`chunk_work` over the schedule's ``(t0, t1)`` bounds."""
    klo = profile.kernel_launch_overhead
    return tuple(
        (index, t0, t1, ranges, klo + cost, cost)
        for index, ((t0, t1), ranges, cost) in enumerate(zip(
            bounds, dependency_ranges(specs, bounds),
            chunk_costs(kernel, profile, bounds),
        ))
    )


#: op kinds of a :class:`ChunkProgram` row: a transfer of a ring piece
#: in or out, a chunk's kernel, the checksum of the transfer before it
#: (an input transfer's, one crossing a shard seam, a drain's) and the
#: dual execution of the chunk's kernel
H2D, D2H, KERNEL, CHECK_H2D, CHECK_HALO, CHECK_D2H, VOTE = range(7)
#: the ``array`` type of every row: a C int, 32 bits (a value past its
#: range raises ``OverflowError`` as the row is written)
ROW = "i"
#: ints per op row: ``kind, lane, g_lo, extent, pos, w0, n_data, n_reuse``
OP_WIDTH = 8
#: ints per chunk row: ``first, kernel, end, checks, seams``
STEP_WIDTH = 5


class ChunkProgram:
    """Every command of a :func:`chunk_program`, as flat integer rows.

    The commands are numbered by *op id* in issue order: per chunk its
    input transfers (each followed by its checksum when verified), its
    kernel, then its drains (each followed by its checksum) and its
    vote.  Every command records one event token, and waits name
    earlier commands by op id.

    * ``ops`` holds :data:`OP_WIDTH` ints per op: its kind
      (:data:`H2D` ... :data:`VOTE`), its lane (the pipelined array's
      position in ``plan.specs``, -1 for a kernel or a vote), the ring
      piece it moves or checks (``g_lo`` and ``extent``, so the piece is
      ``[g_lo, g_lo + extent)``) and that piece's buffer position
      ``pos`` (zeros for a kernel or a vote), then its waits: ``w0`` is
      their offset into ``waits``, where its ``n_data`` data waits (the
      transfers a kernel reads, the command a check checks) come first
      and its ``n_reuse`` slot-reuse waits (the previous lap's readers
      and drains of the slots an input transfer or a kernel overwrites,
      the gates stall accounting reads) follow.  An op's waits start
      where the previous op's end.  The fields an issue reads for a
      virtual region (kind, lane, extent, the counts) are small
      integers, which Python reads without allocating;
    * ``waits`` holds every op's waits, in op order;
    * ``steps`` holds :data:`STEP_WIDTH` ints per chunk: its first
      op, its kernel's op, one past its last op, and how many of its
      ops are integrity checks and how many of those check a shard seam.

    Every row is an ``array`` of :data:`ROW` ints, not a Python object
    per op or per chunk, so a program costs 4 bytes a field and the
    collector walks three objects per program; any number of issuers
    share one.
    """

    __slots__ = ("ops", "waits", "steps")

    def __init__(self, ops: array, waits: array, steps: array) -> None:
        self.ops = ops
        self.waits = waits
        self.steps = steps

    def __len__(self) -> int:
        """The number of chunks."""
        return len(self.steps) // STEP_WIDTH

    def step(self, i: int) -> tuple:
        """``(first, kernel, end, checks, seams)`` of chunk ``i``."""
        s = i * STEP_WIDTH
        return tuple(self.steps[s:s + STEP_WIDTH])

    def op(self, j: int) -> tuple:
        """``(kind, lane, g_lo, g_hi, pos, data waits, reuse waits)`` of
        op ``j``, its waits as tuples."""
        kind, lane, g_lo, extent, pos, w0, n_data, n_reuse = (
            self.ops[j * OP_WIDTH:(j + 1) * OP_WIDTH]
        )
        wm = w0 + n_data
        waits = self.waits
        return (
            kind, lane, g_lo, g_lo + extent, pos, tuple(waits[w0:wm]),
            tuple(waits[wm:wm + n_reuse]),
        )

    def __eq__(self, other) -> bool:
        return (
            type(other) is ChunkProgram and self.steps == other.steps
            and self.ops == other.ops and self.waits == other.waits
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ChunkProgram({len(self)} chunks, {len(self.ops) // OP_WIDTH} ops)"


class _Recorder:
    """The wait policy's one production caller: each call appends one
    transfer op row (and its checksum's, when verified) and returns the
    transfer's op id.  Rows are gathered in lists, which take a row in
    one step, and become :data:`ROW` arrays once the program is whole."""

    __slots__ = ("ops", "waits", "names", "verify", "halo", "n", "checks", "seams")

    def __init__(self, names, verify: bool, halo) -> None:
        self.ops: List[int] = []
        self.waits: List[int] = []
        self.names = names
        self.verify = verify
        self.halo = halo
        self.n = 0
        self.checks = self.seams = 0

    def op(self, kind: int, lane: int, g_lo: int, g_hi: int, pos: int, data, reuse) -> int:
        """Append one op row with its waits; returns its op id."""
        waits = self.waits
        self.ops += (kind, lane, g_lo, g_hi - g_lo, pos, len(waits), len(data), len(reuse))
        waits += data
        waits += reuse
        i = self.n
        self.n = i + 1
        return i

    def issue_h2d(self, book: Books, piece, reuse: list) -> int:
        # op(H2D, ...), inlined: every input transfer of every program
        # comes here
        g_lo, g_hi, pos = piece
        waits = self.waits
        self.ops += (H2D, book.lane, g_lo, g_hi - g_lo, pos, len(waits), 0, len(reuse))
        waits += reuse
        i = self.n
        self.n = i + 1
        if self.verify:
            self._check(CHECK_H2D, book, piece, i)
        return i

    def issue_d2h(self, book: Books, piece) -> int:
        # op(D2H, ...), inlined: every drain of every program comes here
        g_lo, g_hi, pos = piece
        self.ops += (D2H, book.lane, g_lo, g_hi - g_lo, pos, len(self.waits), 0, 0)
        i = self.n
        self.n = i + 1
        if self.verify:
            self._check(CHECK_D2H, book, piece, i)
        return i

    def _check(self, kind: int, book: Books, piece, transfer: int) -> None:
        """Append the checksum of transfer ``transfer`` (a ``kind`` piece)."""
        g_lo, g_hi = piece.g_lo, piece.g_hi
        if kind == CHECK_H2D and any(
            lo < g_hi and hi > g_lo for lo, hi in self.halo.get(self.names[book.lane], ())
        ):
            kind = CHECK_HALO
            self.seams += 1
        # the checksum reads the piece: a reader of its slots
        book.readers.append((g_lo, g_hi, self.n))
        self.op(kind, book.lane, g_lo, g_hi, piece.pos, (transfer,), ())
        self.checks += 1


def chunk_program(
    plan: RegionPlan,
    ranges,
    capacities,
    verify: bool = False,
    vote: bool = False,
    halo: Optional[Mapping[str, list]] = None,
) -> ChunkProgram:
    """Every command a :class:`~repro.core.executor.PipelineIssuer`
    issues for ``plan``, with its waits, as a :class:`ChunkProgram`.

    The ring slot a range maps to, and so which earlier transfer,
    kernel or drain each command waits for, is fixed by the plan: this
    runs the one wait policy (:func:`stage_inputs`,
    :func:`drain_outputs`) over ``ranges`` (per chunk, in ``plan.specs``
    order) and rings of ``capacities`` once, recording op ids where the
    issuer would book tokens.  ``verify`` adds a checksum after every
    transfer and ``vote`` a dual execution after every kernel; both
    read ring slots, so both change the reuse waits.  A verified input
    transfer crossing a range of ``halo`` (``{var: [(lo, hi), ...]}``,
    the shard seams) is checked as ``"halo"``.  The program carries no
    labels (:func:`compile_plan` formats them), so a dry run, which
    prices it (:meth:`PlanFamily.commands`), formats none.
    """
    specs = plan.specs
    books = [
        Books(spec.clause, capacity, k)
        for k, (spec, capacity) in enumerate(zip(specs.values(), capacities))
    ]
    rec = _Recorder(list(specs), verify, halo or {})
    dedup = plan.halo_mode == "dedup"
    steps: List[int] = []
    for chunk_ranges in ranges:
        rec.checks = rec.seams = 0
        first = rec.n
        inputs: list = []
        out_reuse: list = []
        stage_inputs(books, chunk_ranges, dedup, rec, inputs, out_reuse)
        kernel = rec.op(KERNEL, -1, 0, 0, 0, inputs, out_reuse)
        drain_outputs(books, chunk_ranges, kernel, rec)
        if vote:
            # the re-execution re-gathers every range it covers
            for book, (lo, hi) in zip(books, chunk_ranges):
                book.readers.append((lo, hi, rec.n))
            rec.op(VOTE, -1, 0, 0, 0, (kernel,), ())
            rec.checks += 1
        steps += (first, kernel, rec.n, rec.checks, rec.seams)
    return ChunkProgram(array(ROW, rec.ops), array(ROW, rec.waits), array(ROW, steps))


class ChunkRows:
    """The chunks of a compiled plan as integer rows, read as
    :class:`~repro.core.plan.Chunk` objects on demand.

    ``rows`` holds ``width`` :data:`ROW` ints per chunk in schedule
    order: its ``t0`` and ``t1``, then the ``(lo, hi)`` dependency range
    of each pipelined array in ``plan.specs`` order
    (:func:`dependency_ranges`).  Indexing and iteration give one
    ``Chunk`` per chunk, built as it is read, so a compiled plan keeps
    no object per chunk.
    """

    __slots__ = ("rows", "width")

    def __init__(self, rows: array, width: int) -> None:
        self.rows = rows
        self.width = width

    def __len__(self) -> int:
        return len(self.rows) // self.width

    def __getitem__(self, i):
        n = len(self.rows) // self.width
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(n))]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"chunk {i} of {n}")
        r = i * self.width
        return _new(Chunk, (i, self.rows[r], self.rows[r + 1]))

    def __iter__(self):
        rows, w = self.rows, self.width
        return (_new(Chunk, (i, rows[r], rows[r + 1])) for i, r in enumerate(range(0, len(rows), w)))

    def bounds(self) -> List[Tuple[int, int]]:
        """Every chunk's ``(t0, t1)``, in schedule order."""
        rows, w = self.rows, self.width
        return list(zip(rows[0::w], rows[1::w]))

    def ranges(self, i: int) -> List[Tuple[int, int]]:
        """Chunk ``i``'s dependency ranges, in ``plan.specs`` order."""
        w = self.width
        row = self.rows[i * w + 2:(i + 1) * w]
        return list(zip(row[0::2], row[1::2]))

    def __eq__(self, other) -> bool:
        return (
            type(other) is ChunkRows and self.width == other.width and self.rows == other.rows
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ChunkRows({len(self)} chunks)"


class CompiledPlan(NamedTuple):
    """What the issuer derives from a tuned plan, derived once.

    Everything here is a function of the plan and the program's checks
    alone, and so of the plan-cache key it was tuned under
    (:meth:`PlanCache.key_for <repro.serve.cache.PlanCache.key_for>`):
    a :class:`~repro.serve.PlanCache` entry keeps one and every request
    that hits the entry opens its issuer from it and issues its
    program.  Nothing in it depends on a kernel or a runtime; the
    kernel's costs are priced per issuer (:func:`chunk_costs`), because
    kernels of one name share a key but not a cost model.  Build one
    with :func:`compile_plan`, which shares it with every caller
    compiling the same plan with the same checks.  Every per-chunk and
    per-command part is integer rows (:class:`ChunkRows`,
    :class:`ChunkProgram`) or interned strings.
    """

    #: the tuned plan
    plan: RegionPlan
    #: :meth:`RegionPlan.device_bytes <repro.core.plan.RegionPlan.device_bytes>`
    device_bytes: int
    #: the schedule's chunks and their dependency ranges
    chunks: ChunkRows
    #: the ring capacity of each pipelined array, in ``plan.specs`` order
    capacities: Tuple[int, ...]
    #: the ring layout of each pipelined array, in ``plan.specs`` order
    rings: Tuple[RingGeometry, ...]
    #: the :func:`chunk_program` its issuers issue
    program: "ChunkProgram"
    #: per op id, the label of a transfer or checksum command (its event
    #: token is named by it too), interned; ``None`` for a kernel or a
    #: vote, which the issuer names after its kernel
    labels: Tuple[Optional[str], ...]
    #: the program's checks: a checksum after every transfer
    #: (``verify``), a dual execution after every kernel (``vote``), and
    #: the shard seams a verified input transfer is checked as ``"halo"``
    #: across (``((var, ((lo, hi), ...)), ...)``, empty unless verified)
    verify: bool
    vote: bool
    halo: tuple


#: how many compiled plans :func:`compile_plan` keeps, as many as
#: :func:`repro.core.region._parse_shared` keeps parsed pragmas
_MEMO_ENTRIES = 64
#: the compiled plans, keyed by a frozen copy of the plan and the
#: checks, least recently used first
_memo: "OrderedDict[tuple, CompiledPlan]" = OrderedDict()
#: the memo's ``[hits, misses]``
_memo_counts = [0, 0]


class MemoInfo(NamedTuple):
    """What :func:`compile_plan`'s memo holds (:func:`compile_memo`)."""

    #: the compiled plans kept, least recently used first
    entries: Tuple[CompiledPlan, ...]
    hits: int
    misses: int


def compile_plan(
    plan: RegionPlan, verify: bool = False, vote: bool = False, halo=None
) -> CompiledPlan:
    """The :class:`CompiledPlan` of ``plan``, whose program has the
    checks ``verify``, ``vote`` and ``halo`` (see :func:`chunk_program`).

    The result is shared: the last :data:`_MEMO_ENTRIES` distinct
    ``(plan, checks)`` compiled in this process are kept, keyed by a
    frozen copy of the plan's fields, so a plan compiled again (a
    standalone region run anew, a shard of a repeated split, an
    integrity open of a cached plan) costs one lookup.  The compiled
    plan holds its own copy of the plan, so mutating the caller's plan
    afterwards changes neither it nor the key.  A compile that raises
    keeps nothing.
    """
    verify = bool(verify)
    key = (_frozen(plan), verify, bool(vote), _frozen_halo(halo) if verify else ())
    got = _memo.get(key)
    if got is not None:
        _memo.move_to_end(key)
        _memo_counts[0] += 1
        return got
    _memo_counts[1] += 1
    got = _compile(*key)
    _memo[key] = got
    if len(_memo) > _MEMO_ENTRIES:
        _memo.popitem(last=False)
    return got


def compile_memo() -> MemoInfo:
    """What :func:`compile_plan` keeps, and its hits and misses."""
    return MemoInfo(tuple(_memo.values()), *_memo_counts)


def clear_compile_memo() -> None:
    """Drop every plan :func:`compile_plan` keeps and zero its counts."""
    _memo.clear()
    _memo_counts[:] = [0, 0]


def _frozen(plan: RegionPlan) -> tuple:
    """A hashable copy of every field of ``plan``; its specs, residents
    and dtypes are frozen objects already."""
    return (
        plan.loop, plan.chunk_size, plan.num_streams, plan.schedule,
        tuple(plan.specs.items()), tuple(plan.residents.items()),
        tuple(plan.dtypes.items()),
        tuple((var, tuple(shape)) for var, shape in plan.shapes.items()),
        plan.halo_mode,
    )


def _frozen_halo(halo) -> tuple:
    """``halo`` (``{var: [(lo, hi), ...]}``) as nested tuples."""
    return tuple(
        (var, tuple((lo, hi) for lo, hi in ranges)) for var, ranges in (halo or {}).items()
    )


def _compile(frozen: tuple, verify: bool, vote: bool, halo: tuple) -> CompiledPlan:
    """A :func:`compile_plan` miss: the plan rebuilt from its frozen
    copy, then compiled."""
    loop, chunk_size, num_streams, schedule, specs, residents, dtypes, shapes, halo_mode = frozen
    plan = RegionPlan(
        loop, chunk_size, num_streams, schedule, dict(specs), dict(residents),
        dict(dtypes), dict(shapes), halo_mode,
    )
    bounds = schedule_bounds(plan.schedule, plan.loop, plan.chunk_size, plan.num_streams)
    ranges = dependency_ranges(plan.specs, bounds)
    capacities = tuple(plan.ring_capacity(var) for var in plan.specs)
    return _assemble(
        plan, plan.device_bytes(), bounds, ranges, capacities,
        chunk_program(plan, ranges, capacities, verify, vote, dict(halo)),
        verify, vote, halo,
    )


def _assemble(
    plan, device_bytes, bounds, ranges, capacities, program,
    verify: bool = False, vote: bool = False, halo: tuple = (),
) -> CompiledPlan:
    """The :class:`CompiledPlan` of ``plan`` from its parts: the one
    assembly :func:`compile_plan` and :meth:`PlanFamily.compiled` share,
    and the only place a program's labels are formatted."""
    rows = array(ROW, chain.from_iterable(
        chain(t, *chunk_ranges) for t, chunk_ranges in zip(bounds, ranges)
    ))
    return CompiledPlan(
        plan,
        device_bytes,
        ChunkRows(rows, 2 + 2 * len(plan.specs)),
        capacities,
        tuple(
            ring_geometry(plan.shapes[var], spec.split_dim, capacity, plan.dtypes[var])
            for (var, spec), capacity in zip(plan.specs.items(), capacities)
        ),
        program,
        _labels(list(plan.specs), program),
        verify,
        vote,
        halo,
    )


#: the label prefix of each op kind that carries a label
_PREFIXES = {
    H2D: "h2d:", D2H: "d2h:", CHECK_H2D: "verify:h2d:", CHECK_HALO: "verify:halo:",
    CHECK_D2H: "verify:d2h:",
}


def _labels(names: List[str], program: "ChunkProgram") -> tuple:
    """Per op id of ``program``, its command's label (``None`` for a
    kernel or a vote), interned: the programs of many plans name the
    same pieces."""
    ops = program.ops
    prefixes = _PREFIXES
    out: List[Optional[str]] = []
    for o in range(0, len(ops), OP_WIDTH):
        prefix = prefixes.get(ops[o])
        if prefix is None:
            out.append(None)
        else:
            g_lo = ops[o + 2]
            out.append(intern(f"{prefix}{names[ops[o + 1]]}[{g_lo}:{g_lo + ops[o + 3]})"))
    return tuple(out)


class Books:
    """One pipelined array's wait books, kept by :func:`stage_inputs` and
    :func:`drain_outputs`: ``(lo, hi, ref)`` records of the transfers into
    its ring, the commands reading it (a caller may append more, as
    checksums and votes do) and the drains out of it.  A ``ref`` is what
    later commands wait on, an op id of the :func:`chunk_program` being
    recorded; ``lane`` is the array's position in ``plan.specs``.
    """

    __slots__ = (
        "capacity", "is_input", "is_output", "h2d", "readers", "d2h",
        "covered_hi", "lane",
    )

    def __init__(self, clause, capacity: int, lane) -> None:
        self.capacity = capacity
        self.is_input = clause.is_input
        self.is_output = clause.is_output
        self.h2d: List[tuple] = []
        self.readers: List[tuple] = []
        self.d2h: List[tuple] = []
        self.covered_hi = None
        self.lane = lane


def stage_inputs(books, ranges, dedup: bool, issue, inputs: list, out_reuse: list) -> None:
    """Stage one chunk's inputs and collect its kernel's waits.

    Per array (``books`` and ``ranges`` in ``plan.specs`` order), each
    input ring piece not yet staged (under ``dedup``) is issued through
    ``issue.issue_h2d(book, piece, reuse)``, which returns its ref;
    ``reuse`` are the previous lap's readers and drains of the slots it
    overwrites.  The staged records the range touches go to ``inputs``;
    for outputs, the previous lap's drains and readers of the slots the
    kernel writes go to ``out_reuse``.  Ranges are monotone, so records
    no later chunk can touch are pruned.
    """
    for book, (lo, hi) in zip(books, ranges):
        cap = book.capacity
        if book.is_input:
            covered = book.covered_hi
            new_lo = max(lo, covered) if dedup and covered is not None else lo
            if new_lo < hi:
                for piece in ring_pieces(new_lo, hi, cap):
                    g_lo, g_hi = piece.g_lo, piece.g_hi
                    r_lo, r_hi = g_lo - cap, g_hi - cap
                    reuse = [c for (a, b, c) in book.readers if a < r_hi and b > r_lo]
                    if book.d2h:
                        reuse += [c for (a, b, c) in book.d2h if a < r_hi and b > r_lo]
                    book.h2d.append((g_lo, g_hi, issue.issue_h2d(book, piece, reuse)))
                book.covered_hi = max(covered or hi, hi)
            h2d = book.h2d
            inputs += [c for (a, b, c) in h2d if a < hi and b > lo]
            book.h2d = [r for r in h2d if r[1] > lo]
        floor = lo - cap
        readers = book.readers
        if book.is_output:
            # a kernel writing positions p must wait until the previous
            # lap's data at p has drained to the host (and, for tofrom
            # arrays, been read by its kernels)
            ceil = hi - cap
            d2h = book.d2h
            if d2h:
                out_reuse += [c for (a, b, c) in d2h if a < ceil and b > floor]
                book.d2h = [r for r in d2h if r[1] > floor]
            if readers:
                out_reuse += [c for (a, b, c) in readers if a < ceil and b > floor]
        # a reader ending at or before this lap's floor never gates a
        # transfer again
        if readers:
            book.readers = [r for r in readers if r[1] > floor]


def drain_outputs(books, ranges, kernel_ref, issue) -> None:
    """Book one chunk's kernel as a reader of its inputs and drain its
    outputs, each ring piece through ``issue.issue_d2h(book, piece)``,
    which returns the drain's ref."""
    for book, (lo, hi) in zip(books, ranges):
        if book.is_input:
            book.readers.append((lo, hi, kernel_ref))
        if book.is_output:
            d2h = book.d2h
            for piece in ring_pieces(lo, hi, book.capacity):
                d2h.append((piece.g_lo, piece.g_hi, issue.issue_d2h(book, piece)))


class PlanFamily:
    """The plans of one search, compiled once, priced exactly or bounded.

    A family is the ``with_params`` copies of one bound plan (one
    ``specs`` mapping, residents, loop, schedule and halo mode) with one
    kernel on one profile.  A member is named by its ``(chunk_size,
    num_streams)``, with the stream count its plan keeps
    (:meth:`streams`); :meth:`device_bytes`, :meth:`bound` and
    :meth:`exact` take that kept count and do not clamp a larger one.
    The family holds what its members share and computes the rest once
    per key:

    * the piece-time tables, each pipelined array's bytes per ring unit
      and the residents' sizes and copy times;
    * per stream count, the host and device clocks after ``open()``
      (:func:`_open`);
    * per chunk size (and stream count, under the adaptive schedule),
      the :func:`chunk_work` table and the sums :meth:`bound` is taken
      over;
    * per member, the ring capacities, :meth:`device_bytes` and whether
      its allocations fit the device (:meth:`check_fit`), and the
      program its :meth:`exact` dry run priced, which
      :meth:`compiled` assembles into the member's compiled plan.

    :meth:`exact` is :func:`dry_run_elapsed`.  :meth:`bound` returns a
    time no greater than it, in closed form, and raises
    ``OutOfDeviceMemory`` exactly where the dry run would: after the dry
    run's own ``open()``, the last command retires no earlier than the
    largest of

    * the host issuing every command, one scaled API call each;
    * the busiest engine, or the busiest stream, running its commands
      back to back from the first enqueue on;
    * the last chunk's kernel, after both its own enqueue and its
      stream's H2D pieces of that chunk, followed by its D2H pieces;

    and then come the dry run's own device synchronize and
    ``finalize()``.  The sums behind these take each piece whole, as if
    the ring never split it, and are taken once per chunk table in
    O(chunks); every stream count of a chunk size shares them under the
    static schedule.  Per member the bound costs a few C-level sums
    over the chunks.

    :meth:`row_bound` bounds every member of one chunk size at once,
    from engine totals taken in closed form, without the chunk table.

    It is a bound because a transfer's time is affine with a
    non-negative latency (a piece the ring splits in two costs at least
    the whole piece, contention included), because whole pieces never
    outnumber issued ones, because a stream or an engine runs one
    command at a time, and because the host clock only moves forward.
    The bound adds the exact model's durations up in another order, so
    it can round an ulp above a tight exact time.
    """

    __slots__ = (
        "profile", "plan", "kernel", "tables", "_inputs", "_outputs", "_units",
        "_residents", "_resident_bytes", "_resident_out", "_room", "_clocks",
        "_tables", "_rings", "_programs", "_affine",
    )

    def __init__(
        self,
        profile: DeviceProfile,
        plan: RegionPlan,
        shapes: Mapping[str, object],
        kernel: RegionKernel,
    ) -> None:
        self.profile = profile
        self.plan = plan
        self.kernel = kernel
        self.tables = _piece_tables(profile, plan, shapes)
        clauses = [spec.clause for spec in plan.specs.values()]
        #: ``(position, piece times)`` of the arrays copied in, and out
        self._inputs = [
            (k, h2d) for k, (c, (h2d, _)) in enumerate(zip(clauses, self.tables)) if c.is_input
        ]
        self._outputs = [
            (k, d2h) for k, (c, (_, d2h)) in enumerate(zip(clauses, self.tables)) if c.is_output
        ]
        #: per pipelined array, the bytes of one ring unit as
        #: ``device_bytes`` counts them and as ``open()`` allocates them
        #: (a ring stages whole planes of its host array)
        self._units = [
            (spec.bytes_per_unit(plan.dtypes[var].itemsize), h2d.unit_bytes)
            for (var, spec), (h2d, _d2h) in zip(plan.specs.items(), self.tables)
        ]
        self._resident_bytes = sum(plan.resident_bytes(var) for var in plan.residents)
        #: ``(bytes, H2D time or None)`` of each resident ``open()``
        #: allocates (and copies in, for ``to``/``tofrom``)
        self._residents: List[tuple] = []
        #: D2H times of the residents ``finalize()`` copies out
        self._resident_out: List[float] = []
        for var, clause in plan.residents.items():
            arr = shapes[var]
            nbytes = math.prod(int(s) for s in arr.shape) * np.dtype(arr.dtype).itemsize
            h2d = None
            if clause.direction in ("to", "tofrom"):
                h2d = transfer_time_1d(profile.h2d, nbytes, pinned=True)
            self._residents.append((nbytes, h2d))
            if clause.direction in ("from", "tofrom"):
                self._resident_out.append(transfer_time_1d(profile.d2h, nbytes, pinned=True))
        # the free block the rings are allocated from; -1 when the
        # context or a resident already fails, so nothing fits
        context = profile.context_overhead_bytes
        room = profile.usable_memory_bytes - aligned(context)
        room -= sum(aligned(nbytes) for nbytes, _ in self._residents)
        if context > profile.usable_memory_bytes or any(
            nbytes <= 0 for nbytes, _ in self._residents
        ):
            room = -1
        self._room = room
        #: per pipelined array, what :meth:`_row_sums` reads of its
        #: affine clause; None where the rows have no closed form
        self._affine: Optional[List[tuple]] = None
        if plan.schedule == "static" and kernel.uniform_chunk_cost and all(
            c.dep_fn is None and type(c.split_iter) is Affine for c in clauses
        ):
            self._affine = []
            for c, (h2d, d2h) in zip(clauses, self.tables):
                d_lo, d_len = c.dims[c.split_dim]
                self._affine.append((
                    c.split_iter.a, c.split_iter.b, c.size, d_lo, d_lo + d_len,
                    c.is_input, c.is_output, h2d, d2h,
                ))
        self._clocks: Dict[int, tuple] = {}
        self._tables: Dict[object, tuple] = {}
        self._rings: Dict[tuple, tuple] = {}
        #: the program each :meth:`exact` dry run priced, per member
        self._programs: Dict[tuple, tuple] = {}

    # ---- members ---------------------------------------------------------
    def streams(self, chunk_size: int, num_streams: int) -> int:
        """The stream count the member ``with_params(chunk_size,
        num_streams)`` keeps (:func:`~repro.core.plan.stream_count`)."""
        plan = self.plan
        return stream_count(plan.schedule, plan.loop, chunk_size, num_streams)

    def _ring(self, cs: int, ns: int) -> tuple:
        """``(capacities, device_bytes, fits)`` of member ``(cs, ns)``."""
        key = (cs, ns)
        got = self._rings.get(key)
        if got is None:
            plan = self.plan
            biggest = max_chunk_size(plan.schedule, plan.loop, cs)
            halo = plan.halo_mode
            caps = [ring_capacity(spec, halo, biggest, ns) for spec in plan.specs.values()]
            nbytes = self._resident_bytes
            need = 0
            for cap, (unit, alloc_unit) in zip(caps, self._units):
                nbytes += cap * unit
                need += aligned(cap * alloc_unit)
            got = self._rings[key] = (caps, nbytes, need <= self._room)
        return got

    def device_bytes(self, chunk_size: int, num_streams: int) -> int:
        """:meth:`RegionPlan.device_bytes
        <repro.core.plan.RegionPlan.device_bytes>` of the member."""
        return self._ring(chunk_size, num_streams)[1]

    def check_fit(self, chunk_size: int, num_streams: int) -> None:
        """Raise what the member's ``open()`` raises on a fresh device
        (``OutOfDeviceMemory``, or the allocator's ``ValueError``), as
        :meth:`bound` and :meth:`exact` do, without a chunk table."""
        caps, _nbytes, fits = self._ring(chunk_size, num_streams)
        if not fits:
            self._fail(caps)

    def compiled(self, plan: RegionPlan) -> CompiledPlan:
        """The integrity-off :class:`CompiledPlan` of member ``plan`` (a
        ``with_params`` copy of the family's plan at a kept stream
        count): ``compile_plan(plan)``, assembled from the family's chunk
        table and ring capacities and the program the member's
        :meth:`exact` dry run priced (built here if it never ran)."""
        key = (plan.chunk_size, plan.num_streams)
        work = self._table(*key)[0]
        caps, nbytes, _fits = self._ring(*key)
        ranges = [w[3] for w in work]
        program = self._programs.get(key)
        if program is None:
            program = chunk_program(plan, ranges, caps)
        return _assemble(
            plan, nbytes, [(w[1], w[2]) for w in work], ranges, tuple(caps), program
        )

    def _table(self, cs: int, ns: int) -> tuple:
        """``(work, sums)`` of member ``(cs, ns)``: its :func:`chunk_work`
        table and the sums :meth:`bound` is taken over, built together
        and shared by every stream count of a chunk size under the
        static schedule."""
        plan = self.plan
        key = cs if plan.schedule == "static" else (cs, ns)
        got = self._tables.get(key)
        if got is None:
            bounds = schedule_bounds(plan.schedule, plan.loop, cs, ns)
            work = _chunk_table(plan.specs, self.kernel, self.profile, bounds)
            got = self._tables[key] = (work, self._take_sums(work))
        return got

    def _opened(self, cs: int, ns: int, streams_n: int) -> tuple:
        """``(call, contention, host, now)`` of member ``(cs, ns)`` on
        ``streams_n`` streams: the region's scaled API call and
        per-command contention, and the host and device clocks after
        ``open()``.  Raises where the member's allocations fail."""
        self.check_fit(cs, ns)
        return self._clocks_at(streams_n)

    def _clocks_at(self, streams_n: int) -> tuple:
        """``(call, contention, host, now)`` on ``streams_n`` streams,
        for a member whose allocations fit (:meth:`_opened`)."""
        got = self._clocks.get(streams_n)
        if got is None:
            call, contention = _scales(self.profile, streams_n)
            host, now = _open(
                self.profile, self._residents, len(self.tables), streams_n, call,
                contention,
            )
            got = self._clocks[streams_n] = (call, contention, host, now)
        return got

    def _fail(self, caps: List[int]) -> None:
        """Raise what a fresh device's allocator raises on ``open()``'s
        allocations (residents, then rings, in plan order)."""
        profile = self.profile
        capacity = profile.usable_memory_bytes
        used = profile.context_overhead_bytes
        if used > capacity:
            raise ValueError("context overhead exceeds device capacity")
        block = capacity - aligned(used)
        sizes = [nbytes for nbytes, _ in self._residents]
        sizes += [cap * alloc_unit for cap, (_, alloc_unit) in zip(caps, self._units)]
        for nbytes in sizes:
            if nbytes <= 0:
                raise ValueError(f"allocation size must be positive, got {nbytes}")
            size = aligned(nbytes)
            if size > block:
                raise OutOfDeviceMemory(size, capacity - used, capacity)
            block -= size
            used += size

    def _finalize(self, host: float, now: float, call: float, contention: float) -> float:
        """The device synchronize after the last command, then
        ``finalize()``: blocking resident copy-out and the frees.

        ``host`` is the host clock after the last enqueue and ``now`` the
        device clock when the last command retires.  The result never
        decreases as either grows, so lower bounds in give a lower bound
        out.
        """
        profile = self.profile
        sync = profile.sync_overhead
        host = max(host, now) + sync
        for d2h in self._resident_out:
            host += call
            now = (host if host > now else now) + float(d2h + contention)
            host = max(host, now) + sync
        for _ in range(len(self._residents) + len(self.tables)):
            host += profile.api_overhead
        return max(host, now)

    # ---- pricing ---------------------------------------------------------
    def bound(self, chunk_size: int, num_streams: int) -> float:
        """A lower bound on :meth:`exact`."""
        work, sums = self._table(chunk_size, num_streams)
        engines, ncmd, chunk_time, chunk_cmds, head, tail = sums
        streams_n = min(num_streams, len(work))
        clocks = self._opened(chunk_size, num_streams, streams_n)
        contention = clocks[1]
        busiest = max([t + n * contention for t, n in engines] + [
            sum(chunk_time[s::streams_n]) + sum(chunk_cmds[s::streams_n]) * contention
            for s in range(streams_n)
        ])
        return self._bounded(busiest, ncmd, head, tail, clocks)

    def _bounded(self, busiest: float, ncmd: int, head: tuple, tail: tuple, clocks) -> float:
        """The bound from its sums: the busiest engine or stream, the
        command count, the last chunk's ``(H2D time, pieces)`` and
        ``(kernel and D2H time, commands)``, at ``open()``'s ``clocks``
        (:meth:`_opened`)."""
        call, contention, host, _now = clocks
        (head, n_head), (tail, n_tail) = head, tail
        before = ncmd - n_tail - n_head  # commands issued before the last chunk's
        kernel_start = max(
            host + (before + n_head + 1) * call,
            host + (before + 1) * call + head + n_head * contention,
        )
        end = max(host + call + busiest, kernel_start + tail + n_tail * contention)
        return self._finalize(host + ncmd * call, end, call, contention)

    def row_bound(self, chunk_size: int, num_streams: int) -> float:
        """A lower bound on :meth:`bound` of every member of chunk size
        ``chunk_size`` with at least ``num_streams`` streams whose
        allocations fit, built without the row's chunk table; ``-inf``
        for a row whose sums have no closed form (:meth:`_row_sums`).

        It is :meth:`bound` with each engine's total standing in for the
        busiest engine or stream, priced at ``num_streams`` streams:
        more streams only raise the host's scaled calls, the
        contention and the ``open()`` clocks, and :meth:`_finalize`
        never decreases as they grow.  The closed form adds the
        durations up in another order than the table's sums, so it can
        round an ulp above a member's bound.
        """
        sums = self._row_sums(chunk_size)
        if sums is None:
            return -math.inf
        engines, ncmd, nchunks, head, tail = sums
        clocks = self._clocks_at(min(num_streams, nchunks))
        contention = clocks[1]
        busiest = max([t + n * contention for t, n in engines])
        return self._bounded(busiest, ncmd, head, tail, clocks)

    def _row_sums(self, cs: int) -> Optional[tuple]:
        """``(engines, commands, chunks, (head, n_head), (tail,
        n_tail))`` of chunk size ``cs``'s static chunk table: the engine
        totals and counts, the last chunk's pieces and the command count
        :meth:`_take_sums` takes, in closed form.

        A full chunk whose affine ranges neither section end clamps moves
        each range by ``a * cs``, so its pieces take one extent per array
        (under dedup halo, the part past the previous chunk's range, when
        that chunk is unclamped at the low end too): a run of such
        chunks costs a count times one piece time.  Only the clamped
        chunks at the section ends and the last chunk are priced one by
        one.  ``None`` where there is no closed form: the adaptive
        schedule, a ``dep_fn`` or non-affine clause, or a kernel whose
        cost depends on the chunk's position.
        """
        arrays = self._affine
        if arrays is None:
            return None
        plan, kernel, profile = self.plan, self.kernel, self.profile
        start, stop = plan.loop.start, plan.loop.stop
        n = -(-(stop - start) // cs)
        t_last = start + (n - 1) * cs
        klo = profile.kernel_launch_overhead
        last_launch = klo + kernel.chunk_cost(profile, t_last, stop, translated=True)
        launches = last_launch
        if n > 1:
            full = klo + kernel.chunk_cost(profile, start, start + cs, translated=True)
            launches += (n - 1) * full
        dedup = plan.halo_mode == "dedup"
        h2d = d2h = head = tail = 0.0
        n_h2d = n_d2h = n_head = n_tail = 0
        for a, b, size, d_lo, d_hi, is_input, is_output, h2d_time, d2h_time in arrays:
            if is_input:
                total, count, last, n_last = _affine_copies(
                    a, b, size, d_lo, d_hi, start, stop, cs, dedup, h2d_time
                )
                h2d += total
                n_h2d += count
                head += last
                n_head += n_last
            if is_output:
                total, count, last, n_last = _affine_copies(
                    a, b, size, d_lo, d_hi, start, stop, cs, False, d2h_time
                )
                d2h += total
                n_d2h += count
                tail += last
                n_tail += n_last
        if profile.dma_engines > 1:
            engines = ((h2d, n_h2d), (d2h, n_d2h), (launches, n))
        else:
            engines = ((h2d + d2h, n_h2d + n_d2h), (launches, n))
        return (
            engines, n_h2d + n_d2h + n, n, (head, n_head), (last_launch + tail, 1 + n_tail),
        )

    def _take_sums(self, work) -> tuple:
        """The bound's sums over ``work``.  Durations leave out the
        region's contention, which :meth:`bound` adds per command.  Under
        dedup halo a chunk copies in only the part of its range no earlier
        chunk copied, as in the dry run."""
        dedup = self.plan.halo_mode == "dedup"
        inputs, outputs = self._inputs, self._outputs
        covered = [None] * len(self.tables)
        h2d = d2h = launches = 0.0
        n_h2d = n_d2h = 0
        chunk_time = []
        chunk_cmds = []
        for _index, _t0, _t1, ranges, launch, _cost in work:
            launches += launch
            c_h2d = c_d2h = 0.0
            c_nh = c_nd = 0
            for k, h2d_time in inputs:
                lo, hi = ranges[k]
                c = covered[k]
                new_lo = max(lo, c) if dedup and c is not None else lo
                if new_lo < hi:
                    c_h2d += h2d_time[hi - new_lo]
                    c_nh += 1
                    covered[k] = max(c or hi, hi)
            for k, d2h_time in outputs:
                lo, hi = ranges[k]
                if lo < hi:
                    c_d2h += d2h_time[hi - lo]
                    c_nd += 1
            h2d += c_h2d
            n_h2d += c_nh
            d2h += c_d2h
            n_d2h += c_nd
            chunk_time.append(c_h2d + launch + c_d2h)
            chunk_cmds.append(c_nh + 1 + c_nd)
        if self.profile.dma_engines > 1:
            engines = ((h2d, n_h2d), (d2h, n_d2h), (launches, len(work)))
        else:
            engines = ((h2d + d2h, n_h2d + n_d2h), (launches, len(work)))
        # the loop leaves the last chunk's pieces in c_*
        return (
            engines, n_h2d + n_d2h + len(work), chunk_time, chunk_cmds,
            (c_h2d, c_nh), (work[-1][4] + c_d2h, 1 + c_nd),
        )

    def commands(self, chunk_size: int, num_streams: int) -> tuple:
        """``(durations, engines, issue times, waits, stream predecessors,
        host clock after the last enqueue)`` of the member's dry run: its
        integrity-off :func:`chunk_program`, whose op ids are the command
        ids, priced row by row.  A piece costs its piece-time entry and a
        kernel its ``launch``, each plus the contention; a command's
        waits are its slice of the program's wait row.  Engines: 0 =
        dma0, 1 = dma1 (D2H, with two DMA engines), 2 = compute0; a
        stream's first command has predecessor -1."""
        work = self._table(chunk_size, num_streams)[0]
        streams_n = min(num_streams, len(work))
        call, contention, host, _now = self._opened(chunk_size, num_streams, streams_n)
        program = self._programs[chunk_size, num_streams] = chunk_program(
            self.plan, [w[3] for w in work], self._ring(chunk_size, num_streams)[0]
        )
        ops, steps = program.ops, program.steps
        # the columns priced, as lists: reading them makes no ints
        kinds = ops[0::OP_WIDTH].tolist()
        lanes = ops[1::OP_WIDTH].tolist()
        extents = ops[3::OP_WIDTH].tolist()
        all_waits = program.waits.tolist()
        # an op's waits run up to where the next op's start
        starts = ops[5::OP_WIDTH].tolist() + [len(all_waits)]
        tables = self.tables
        d2h_engine = 1 if self.profile.dma_engines > 1 else 0
        dur, engine, enq, waits, pred = [], [], [], [], []
        tails = [-1] * streams_n
        s = 0
        for index, _t0, _t1, _ranges, launch, _cost in work:
            first, end = steps[s], steps[s + 2]
            s += STEP_WIDTH
            for c in range(first, end):
                host += call
                kind = kinds[c]
                if kind == KERNEL:
                    dur.append(float(launch + contention))
                    engine.append(2)
                elif kind == H2D:
                    dur.append(tables[lanes[c]][0][extents[c]] + contention)
                    engine.append(0)
                else:
                    dur.append(tables[lanes[c]][1][extents[c]] + contention)
                    engine.append(d2h_engine)
                enq.append(host)
                waits.append(all_waits[starts[c]:starts[c + 1]])
            # one stream per chunk: its commands follow each other in order
            stream = index % streams_n
            pred.append(tails[stream])
            pred.extend(range(first, end - 1))
            tails[stream] = end - 1
        return dur, engine, enq, waits, pred, host

    def exact(self, chunk_size: int, num_streams: int) -> float:
        """:func:`dry_run_elapsed` of the member."""
        dur, engine, enq, waits, pred, host = self.commands(chunk_size, num_streams)
        streams_n = min(num_streams, len(self._table(chunk_size, num_streams)[0]))
        call, contention, _host, now = self._opened(chunk_size, num_streams, streams_n)

        # ---- the event loop, as the engine runs it ---------------------
        # nothing retires while the issuer enqueues (the device clock stands
        # at ``now``), so each command's waits and stream predecessor are
        # all pending: wire them in issue order, then run the loop
        n = len(dur)
        waiters: List[list] = [[] for _ in range(n)]
        successor = [-1] * n
        unresolved = [0] * n
        busy = [-1, -1, -1]
        queues: List[list] = [[], [], []]
        heap: list = []

        def ready(c: int, t: float) -> None:
            """``Simulator._ready_now``: start at once on an idle engine."""
            e = engine[c]
            q = queues[e]
            if busy[e] < 0:
                if q:
                    c = heappushpop(q, (t, c))[1]
                busy[e] = c
                heappush(heap, (t + dur[c], c, _FINISH))
            else:
                heappush(q, (t, c))

        for c in range(n):
            ws = waits[c]
            k = len(ws)
            p = pred[c]
            if p >= 0:
                successor[p] = c
                k += 1
            for w in ws:
                waiters[w].append(c)
            unresolved[c] = k
            if k == 0:
                if enq[c] <= now:
                    ready(c, now)
                else:
                    heappush(heap, (enq[c], c, _READY))

        while heap:
            t, c, ev = heappop(heap)
            now = t
            if ev:
                ready(c, t)
                continue
            e = engine[c]
            busy[e] = -1
            # token waiters first, then the stream successor
            succ = successor[c]
            for w in (waiters[c] + [succ]) if succ >= 0 else waiters[c]:
                k = unresolved[w] = unresolved[w] - 1
                if k == 0:
                    at = enq[w]
                    if at > t:
                        heappush(heap, (at, w, _READY))
                        continue
                    # ready(w, t), inlined: the hottest dispatch site
                    we = engine[w]
                    wq = queues[we]
                    if busy[we] < 0:
                        if wq:
                            w = heappushpop(wq, (t, w))[1]
                        busy[we] = w
                        heappush(heap, (t + dur[w], w, _FINISH))
                    else:
                        heappush(wq, (t, w))
            q = queues[e]
            if busy[e] < 0 and q:
                nxt = heappop(q)[1]
                busy[e] = nxt
                heappush(heap, (t + dur[nxt], nxt, _FINISH))
        return self._finalize(host, now, call, contention)


def _affine_copies(
    a: int, b: int, size: int, d_lo: int, d_hi: int, start: int, stop: int,
    cs: int, dedup: bool, times,
) -> tuple:
    """``(total, count, last, n_last)`` of one array's whole pieces in
    one direction over the static chunks of ``cs`` iterations of
    ``[start, stop)``: the piece times and the pieces
    :meth:`PlanFamily._take_sums` adds, and the last chunk's.  The
    array's clause touches ``[a * k + b, a * k + b + size)`` of its
    section ``[d_lo, d_hi)`` at iteration ``k``."""
    n = -(-(stop - start) // cs)
    step = a * cs
    # chunks from ``p`` on start at or past the section's low end (under
    # dedup, so does the chunk before each); chunks before ``q`` end at
    # or before its high end.  Chunks ``[p, q)`` are full, so their
    # pieces take one extent; the others, the last chunk always among
    # them, are priced one by one, as the table's sums price them.
    p = max(0, -(-(d_lo - b - a * start) // step)) + (1 if dedup else 0)
    m = d_hi - b - size - a * (start + cs - 1)
    q = min(m // step + 1 if m >= 0 else 0, n - 1)
    regular = q - p if q > p else 0
    total = 0.0
    count = 0
    covered = None
    last = 0.0
    n_last = 0
    for i in chain(range(p), range(q, n)) if regular else range(n):
        if regular and i == q:
            extent = a * (cs - 1) + size
            total += regular * times[min(extent, a * cs) if dedup else extent]
            count += regular
            # where the range of chunk ``q - 1``, unclamped, ends
            covered = a * (start + q * cs - 1) + b + size
        lo = a * (start + i * cs) + b
        hi = a * (min(start + (i + 1) * cs, stop) - 1) + b + size
        lo = lo if lo > d_lo else d_lo
        hi = hi if hi < d_hi else d_hi
        new_lo = max(lo, covered) if dedup and covered is not None else lo
        if new_lo < hi:
            t = times[hi - new_lo]
            total += t
            count += 1
            covered = max(covered or hi, hi)
            if i == n - 1:
                last, n_last = t, 1
    return total, count, last, n_last


def _scales(profile: DeviceProfile, streams_n: int):
    """``(call, contention)``: the region's scaled API call and the
    per-command contention, as the issuer imposes them on the runtime
    around every step."""
    call = profile.api_overhead * (1.0 + profile.runtime_stream_factor * (streams_n - 1))
    return call, profile.runtime_stream_contention * (streams_n - 1)


def _open(profile, residents, nrings: int, streams_n: int, call: float, contention: float):
    """``open()``'s clocks: streams, staged residents, ring buffers.

    ``residents`` are ``(bytes, H2D time or None)`` per resident array
    and ``nrings`` counts the ring mallocs.  Returns ``(host, now)``, the
    host and device clocks after it.  The allocations themselves are
    :class:`PlanFamily`'s fit check, which runs first.
    """
    api = profile.api_overhead
    sync = profile.sync_overhead
    host = 0.0
    now = 0.0
    for _ in range(streams_n):
        host += profile.stream_create_overhead
    for _nbytes, h2d in residents:
        host += api
        if h2d is not None:
            # blocking copy on an idle device: it starts when issued
            # (or at the device clock, if that is later)
            host += call
            now = (host if host > now else now) + float(h2d + contention)
            host = max(host, now) + sync
    for _ in range(nrings):
        host += api
    return host, now


def _piece_tables(profile, plan, shapes) -> List[tuple]:
    """The ``(H2D, D2H)`` piece-time tables of each pipelined array, in
    ``plan.specs`` order."""
    tables = []
    for var, spec in plan.specs.items():
        arr = shapes[var]
        host_shape = tuple(int(s) for s in arr.shape)
        itemsize = np.dtype(arr.dtype).itemsize
        tables.append((
            _PieceTimes(profile.h2d, host_shape, spec.split_dim, itemsize),
            _PieceTimes(profile.d2h, host_shape, spec.split_dim, itemsize),
        ))
    return tables


def dry_run_elapsed(
    profile: DeviceProfile,
    plan: RegionPlan,
    shapes: Mapping[str, object],
    kernel: RegionKernel,
) -> float:
    """The ``elapsed`` of ``execute_pipeline`` on a fresh virtual device.

    Parameters
    ----------
    profile:
        The device profile the dry run's scratch device would have.
    plan:
        A resolved (and, if requested, memory-limit-tuned) plan.
    shapes:
        Host arrays keyed by variable name; only their ``shape`` and
        ``dtype`` are read, so real and virtual arrays are equivalent.
    kernel:
        The region kernel (its cost model only).

    Raises
    ------
    OutOfDeviceMemory
        When a resident array or ring buffer does not fit, exactly where
        the real run's allocation would fail.
    """
    return PlanFamily(profile, plan, shapes, kernel).exact(
        plan.chunk_size, plan.num_streams
    )
