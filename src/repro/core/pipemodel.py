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
* **the same dependencies**: the one wait policy both sides run,
  :class:`Books` with :func:`stage_inputs` and :func:`drain_outputs`,
  with command ids where :meth:`PipelineIssuer.issue_next
  <repro.core.executor.PipelineIssuer.issue_next>` books event tokens;
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
holds the family's shared parts to the code each one stands for.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush, heappushpop
from itertools import repeat
from typing import Dict, List, Mapping

import numpy as np

from repro.core.kernel import RegionKernel
from repro.core.plan import RegionPlan, max_chunk_size, ring_capacity, stream_count
from repro.core.ringbuffer import band_geometry, ring_pieces
from repro.core.scheduler import schedule_bounds
from repro.directives.splitspec import chunk_ranges
from repro.sim.bandwidth import transfer_time_1d, transfer_time_2d
from repro.sim.memory import OutOfDeviceMemory, aligned
from repro.sim.profiles import DeviceProfile

__all__ = [
    "Books", "PlanFamily", "chunk_work", "drain_outputs", "dry_run_elapsed",
    "stage_inputs",
]

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
    plan: RegionPlan, kernel: RegionKernel, profile: DeviceProfile, chunks=None
) -> tuple:
    """Per chunk in schedule order: ``(index, t0, t1, ranges, launch, cost)``.

    ``ranges`` are the chunk's dependency ranges in ``plan.specs`` order
    (tuples all the way down, so the collector soon stops tracking them),
    ``cost`` is the kernel's ``chunk_cost`` and ``launch`` is
    ``kernel_launch_overhead + cost``, the kernel duration before the
    region's contention is added.  This table is the one source of the
    dry-run model (:class:`PlanFamily`) and the issuer
    (:class:`~repro.core.executor.PipelineIssuer` reads it at ``open()``),
    so they cannot drift.  It is a tuple, so a family's members share it
    safely.  A caller already holding ``plan.chunks()`` passes it as
    ``chunks``.
    """
    if chunks is None:
        bounds = schedule_bounds(
            plan.schedule, plan.loop, plan.chunk_size, plan.num_streams
        )
    else:
        bounds = [(chunk.t0, chunk.t1) for chunk in chunks]
    return _chunk_table(plan.specs, kernel, profile, bounds)


def _chunk_table(specs, kernel, profile, bounds) -> tuple:
    """:func:`chunk_work` over the schedule's ``(t0, t1)`` bounds."""
    columns = [chunk_ranges(spec.clause, bounds) for spec in specs.values()]
    klo = profile.kernel_launch_overhead
    chunk_cost = kernel.chunk_cost
    # a uniform kernel's cost depends on the chunk length only
    costs: Dict[int, float] = {}
    uniform = kernel.uniform_chunk_cost
    work = []
    for index, ((t0, t1), ranges) in enumerate(
        zip(bounds, zip(*columns) if columns else repeat(()))
    ):
        cost = costs.get(t1 - t0) if uniform else None
        if cost is None:
            cost = chunk_cost(profile, t0, t1, translated=True)
            if uniform:
                costs[t1 - t0] = cost
        work.append((index, t0, t1, ranges, klo + cost, cost))
    return tuple(work)


class Books:
    """One pipelined array's wait books, kept by :func:`stage_inputs` and
    :func:`drain_outputs`: ``(lo, hi, ref)`` records of the transfers into
    its ring, the commands reading it (a caller may append more, as
    checksums and votes do) and the drains out of it.  A ``ref`` is what
    later commands wait on: an event token in the issuer, a command id in
    the dry-run model.  ``lane`` carries the caller's own per-array data.
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


class _Issue:
    """The dry run's side of the wait policy: each call issues one piece
    as a command ``(duration, engine, issue time, waited command ids)``
    and returns its id.  A book's ``lane`` is its ``(H2D, D2H)`` piece
    times; engines: 0 = dma0, 1 = dma1 (D2H, with two DMA engines), 2 =
    compute0."""

    __slots__ = ("cmds", "host", "call", "contention", "d2h_engine")

    def __init__(self, host: float, call: float, contention: float, d2h_engine: int):
        self.cmds: List[tuple] = []
        self.host, self.call, self.contention = host, call, contention
        self.d2h_engine = d2h_engine

    def issue_h2d(self, book: Books, piece, reuse: list) -> int:
        self.host += self.call
        dur = book.lane[0][piece.g_hi - piece.g_lo] + self.contention
        self.cmds.append((dur, 0, self.host, reuse))
        return len(self.cmds) - 1

    def issue_d2h(self, book: Books, piece) -> int:
        self.host += self.call
        dur = book.lane[1][piece.g_hi - piece.g_lo] + self.contention
        self.cmds.append((dur, self.d2h_engine, self.host, ()))
        return len(self.cmds) - 1


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
      its allocations fit the device.

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
        "_tables", "_rings",
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
        self._clocks: Dict[int, tuple] = {}
        self._tables: Dict[object, tuple] = {}
        self._rings: Dict[tuple, tuple] = {}

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
        ring = self._ring(cs, ns)
        if not ring[2]:
            self._fail(ring[0])
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
        engines, ncmd, chunk_time, chunk_cmds, (head, n_head), (tail, n_tail) = sums
        streams_n = min(num_streams, len(work))
        call, contention, host, _now = self._opened(chunk_size, num_streams, streams_n)
        busiest = max([t + n * contention for t, n in engines] + [
            sum(chunk_time[s::streams_n]) + sum(chunk_cmds[s::streams_n]) * contention
            for s in range(streams_n)
        ])
        before = ncmd - n_tail - n_head  # commands issued before the last chunk's
        kernel_start = max(
            host + (before + n_head + 1) * call,
            host + (before + 1) * call + head + n_head * contention,
        )
        end = max(host + call + busiest, kernel_start + tail + n_tail * contention)
        return self._finalize(host + ncmd * call, end, call, contention)

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

    def exact(self, chunk_size: int, num_streams: int) -> float:
        """:func:`dry_run_elapsed` of the member."""
        plan = self.plan
        work = self._table(chunk_size, num_streams)[0]
        streams_n = min(num_streams, len(work))
        call, contention, host, now = self._opened(chunk_size, num_streams, streams_n)
        books = [
            Books(spec.clause, capacity, times)
            for spec, capacity, times in zip(
                plan.specs.values(), self._ring(chunk_size, num_streams)[0], self.tables
            )
        ]

        # ---- issue: one command per H2D piece, kernel and D2H piece -----
        issue = _Issue(host, call, contention, 1 if self.profile.dma_engines > 1 else 0)
        cmds = issue.cmds
        #: each command's predecessor on its stream (-1 for a stream's first)
        pred: List[int] = []
        tails = [-1] * streams_n
        dedup = plan.halo_mode == "dedup"
        for index, t0, t1, ranges, launch, _cost in work:
            first = len(cmds)
            in_ids: list = []
            out_reuse: list = []
            stage_inputs(books, ranges, dedup, issue, in_ids, out_reuse)
            issue.host += call
            kernel_id = len(cmds)
            cmds.append((float(launch + contention), 2, issue.host, in_ids + out_reuse))
            drain_outputs(books, ranges, kernel_id, issue)
            # one stream per chunk: its commands follow each other in order
            stream = index % streams_n
            pred.append(tails[stream])
            pred.extend(range(first, len(cmds) - 1))
            tails[stream] = len(cmds) - 1
        host = issue.host

        # ---- the event loop, as the engine runs it ---------------------
        # nothing retires while the issuer enqueues (the device clock stands
        # at ``now``), so each command's waits and stream predecessor are
        # all pending: wire them in issue order, then run the loop
        dur, engine, enq, waits = zip(*cmds)
        n = len(cmds)
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
