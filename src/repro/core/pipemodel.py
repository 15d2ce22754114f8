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
* **the same inputs**, through the code the issuer uses: ``plan.chunks()``,
  :func:`~repro.directives.splitspec.chunk_ranges`, ``plan.ring_capacity``,
  :func:`~repro.core.ringbuffer.band_geometry`,
  :func:`~repro.core.ringbuffer.ring_pieces`, the link cost model, the
  kernel's ``chunk_cost`` and a real allocator for out-of-memory;
* **the same dependencies**: :meth:`PipelineIssuer.issue_next
  <repro.core.executor.PipelineIssuer.issue_next>`'s per-array books,
  with command ids in place of event tokens, the same filters and the
  same duplicates in the same order;
* **the same event order**: a flat event loop over command ids with the
  engine's discipline — a ``(time, seq, event)`` heap, per-engine queues
  keyed by ``(ready_time, seq)``, an idle engine starting a ready
  command at once, and retirement resolving token waiters, then the
  stream successor, then the engine queue.

Every dry run is fault-free, unobserved, pinned and alone on its
device, so the replay covers every plan a dry run can see, and its
result is ``==`` to the simulator's.  ``tests/core/test_pipemodel.py``
and ``scripts/check_pipemodel.py`` hold the two bit for bit.

:class:`SearchModel` also bounds the same plans from below in closed
form, with no event loop, for the search to decide which candidates the
exact model still has to price.  The bound shares the dry run's
``open()`` and ``finalize()`` phases (:func:`_open`, :func:`_finalize`),
so it runs out of memory on exactly the same plans.
``tests/core/test_autotune_bound.py`` and ``scripts/check_pipemodel.py``
hold it at or below the exact time.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush, heappushpop
from itertools import repeat
from typing import Dict, List, Mapping

import numpy as np

from repro.core.kernel import RegionKernel
from repro.core.plan import RegionPlan
from repro.core.ringbuffer import band_geometry, ring_pieces
from repro.directives.splitspec import chunk_ranges
from repro.sim.bandwidth import transfer_time_1d, transfer_time_2d
from repro.sim.memory import MemoryAllocator
from repro.sim.profiles import DeviceProfile

__all__ = ["SearchModel", "chunk_work", "dry_run_elapsed"]

#: heap event tags, in the engine's order (a finish sorts before a ready)
_FINISH = 0
_READY = 1


class _Lane:
    """One pipelined array: transfer geometry and its issue books."""

    __slots__ = (
        "is_input", "is_output", "capacity", "h2d_time", "d2h_time",
        "h2d", "readers", "d2h", "covered_hi",
    )

    def __init__(self, clause, capacity: int, h2d_time, d2h_time) -> None:
        self.is_input = clause.is_input
        self.is_output = clause.is_output
        self.capacity = capacity
        #: ``extent -> duration`` of one piece in each direction (_PieceTimes)
        self.h2d_time = h2d_time
        self.d2h_time = d2h_time
        #: ``(lo, hi, command id)`` records, as in the issuer's books
        self.h2d: List[tuple] = []
        self.readers: List[tuple] = []
        self.d2h: List[tuple] = []
        self.covered_hi = None


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


#: ``[specs, kernel, profile, key, work]`` of the last :func:`chunk_work`
_last_work: list = [None, None, None, None, None]


def chunk_work(
    plan: RegionPlan, kernel: RegionKernel, profile: DeviceProfile, chunks=None
):
    """Per chunk in schedule order: ``(index, t0, t1, ranges, launch, cost)``.

    ``ranges`` are the chunk's dependency ranges in ``plan.specs`` order
    (tuples all the way down, so the collector soon stops tracking them),
    ``cost`` is the kernel's ``chunk_cost`` and ``launch`` is
    ``kernel_launch_overhead + cost``, the kernel duration before the
    region's contention is added.  This table is the one source of
    :func:`dry_run_elapsed`, :class:`SearchModel` and the issuer
    (:class:`~repro.core.executor.PipelineIssuer` reads it at ``open()``),
    so they cannot drift.  None of it depends on the stream count
    under the static schedule, and autotune bounds every stream count of
    a chunk size in a row, so the last result is kept and reused while
    the plan family (the same ``specs`` mapping, which ``with_params``
    shares), loop, schedule, chunk size, kernel and profile stay the
    same.  Callers must not mutate it.  A caller already holding
    ``plan.chunks()`` passes it as ``chunks``.
    """
    key = (
        plan.loop, plan.schedule, plan.chunk_size,
        plan.num_streams if plan.schedule != "static" else 0,
    )
    last = _last_work
    if (
        last[0] is plan.specs and last[1] is kernel and last[2] is profile
        and last[3] == key
    ):
        return last[4]
    if chunks is None:
        chunks = plan.chunks()
    bounds = [(chunk.t0, chunk.t1) for chunk in chunks]
    columns = [chunk_ranges(spec.clause, bounds) for spec in plan.specs.values()]
    klo = profile.kernel_launch_overhead
    chunk_cost = kernel.chunk_cost
    # a uniform kernel's cost depends on the chunk length only
    costs: Dict[int, float] = {}
    uniform = kernel.uniform_chunk_cost
    work = []
    for chunk, ranges in zip(chunks, zip(*columns) if columns else repeat(())):
        t0, t1 = chunk.t0, chunk.t1
        cost = costs.get(t1 - t0) if uniform else None
        if cost is None:
            cost = chunk_cost(profile, t0, t1, translated=True)
            if uniform:
                costs[t1 - t0] = cost
        work.append((chunk.index, t0, t1, ranges, klo + cost, cost))
    last[:] = [plan.specs, kernel, profile, key, work]
    return work


class SearchModel:
    """Prices the candidates of one search: a lower bound and the exact time.

    One instance serves the plans of one family (``with_params`` copies
    of one bound region, so one ``specs`` mapping and halo mode) on one
    profile, and holds what they share: the piece-time tables and, per
    chunk table, the sums the bound is taken over.  Both methods take a
    plan and that plan's :func:`chunk_work` table.

    :meth:`exact` is :func:`dry_run_elapsed`.  :meth:`bound` returns a
    time no greater than it, in closed form, and raises
    ``OutOfDeviceMemory`` exactly where the dry run would: it runs the
    dry run's own ``open()``, then the last command retires no earlier
    than the largest of

    * the host issuing every command, one scaled API call each;
    * the busiest engine, or the busiest stream, running its commands
      back to back from the first enqueue on;
    * the last chunk's kernel, after both its own enqueue and its
      stream's H2D pieces of that chunk, followed by its D2H pieces;

    and then come the dry run's own device synchronize and
    ``finalize()``.  The sums behind these take each piece whole, as if
    the ring never split it, and are taken once per chunk table in
    O(chunks); every stream count of a chunk size shares them under the
    static schedule.  Per plan the bound costs the allocation phase plus
    a few C-level sums over the chunks.

    It is a bound because a transfer's time is affine with a
    non-negative latency (a piece the ring splits in two costs at least
    the whole piece, contention included), because whole pieces never
    outnumber issued ones, because a stream or an engine runs one
    command at a time, and because the host clock only moves forward.
    The bound adds the exact model's durations up in another order, so
    it can round an ulp above a tight exact time.
    """

    __slots__ = ("profile", "shapes", "tables", "work", "sums")

    def __init__(self, profile: DeviceProfile, plan: RegionPlan, shapes) -> None:
        self.profile = profile
        self.shapes = shapes
        self.tables = _piece_tables(profile, plan, shapes)
        #: the chunk table the cached ``sums`` were taken over
        self.work = None
        self.sums: tuple = ()

    def exact(self, plan: RegionPlan, work) -> float:
        """:func:`dry_run_elapsed` of ``plan``."""
        return _replay(self.profile, plan, self.shapes, work, self.tables)

    def bound(self, plan: RegionPlan, work) -> float:
        """A lower bound on :meth:`exact`."""
        if work is not self.work:
            self.work, self.sums = work, self._take_sums(plan, work)
        engines, ncmd, chunk_time, chunk_cmds, (head, n_head), (tail, n_tail) = self.sums
        profile = self.profile
        streams_n = min(plan.num_streams, len(work))
        call, contention = _scales(profile, streams_n)
        host, _now, resident_out, _ = _open(
            profile, plan, self.shapes, self.tables, streams_n, call, contention
        )
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
        return _finalize(
            profile, plan, host + ncmd * call, end, resident_out, call, contention
        )

    def _take_sums(self, plan: RegionPlan, work) -> tuple:
        """The bound's sums over ``work``.  Durations leave out the
        region's contention, which :meth:`bound` adds per command.  Under
        dedup halo a chunk copies in only the part of its range no earlier
        chunk copied, as in the dry run."""
        dedup = plan.halo_mode == "dedup"
        lanes = list(zip(plan.specs.values(), self.tables))
        inputs = [(k, h2d) for k, (spec, (h2d, _)) in enumerate(lanes) if spec.clause.is_input]
        outputs = [(k, d2h) for k, (spec, (_, d2h)) in enumerate(lanes) if spec.clause.is_output]
        covered = [None] * len(lanes)
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


def _scales(profile: DeviceProfile, streams_n: int):
    """``(call, contention)``: the region's scaled API call and the
    per-command contention, as the issuer imposes them on the runtime
    around every step."""
    call = profile.api_overhead * (1.0 + profile.runtime_stream_factor * (streams_n - 1))
    return call, profile.runtime_stream_contention * (streams_n - 1)


def _open(profile, plan, shapes, tables, streams_n, call, contention):
    """``open()``: streams, staged residents, ring buffers.

    Returns ``(host, now, resident_out, capacities)``: the host and
    device clocks after it, the byte count of every resident copied
    out at ``finalize()`` and each pipelined array's ring capacity in
    ``plan.specs`` order.  Raises ``OutOfDeviceMemory`` exactly where
    the real run's allocation fails, and nowhere later.  A ring holds
    ``capacity`` split-dim units of its host array, of the
    ``unit_bytes`` its piece-time tables (``tables``) already know.
    """
    api = profile.api_overhead
    sync = profile.sync_overhead
    memory = MemoryAllocator(
        capacity=profile.usable_memory_bytes,
        context_overhead=profile.context_overhead_bytes,
    )
    host = 0.0
    now = 0.0
    for _ in range(streams_n):
        host += profile.stream_create_overhead
    resident_out = []
    for var, clause in plan.residents.items():
        arr = shapes[var]
        nbytes = math.prod(int(s) for s in arr.shape) * np.dtype(arr.dtype).itemsize
        memory.allocate(nbytes)
        host += api
        if clause.direction in ("to", "tofrom"):
            # blocking copy on an idle device: it starts when issued
            # (or at the device clock, if that is later)
            host += call
            now = (host if host > now else now) + float(
                transfer_time_1d(profile.h2d, nbytes, pinned=True) + contention
            )
            host = max(host, now) + sync
        if clause.direction in ("from", "tofrom"):
            resident_out.append(nbytes)
    capacities = []
    for var, (h2d_time, _d2h_time) in zip(plan.specs, tables):
        capacity = plan.ring_capacity(var)
        memory.allocate(capacity * h2d_time.unit_bytes)
        host += api
        capacities.append(capacity)
    return host, now, resident_out, capacities


def _finalize(profile, plan, host, now, resident_out, call, contention) -> float:
    """The device synchronize after the last command, then
    ``finalize()``: blocking resident copy-out and the frees.

    ``host`` is the host clock after the last enqueue and ``now`` the
    device clock when the last command retires.  The result never
    decreases as either grows, so lower bounds in give a lower bound out.
    """
    sync = profile.sync_overhead
    host = max(host, now) + sync
    for nbytes in resident_out:
        host += call
        now = (host if host > now else now) + float(
            transfer_time_1d(profile.d2h, nbytes, pinned=True) + contention
        )
        host = max(host, now) + sync
    for _ in range(len(plan.residents) + len(plan.specs)):
        host += profile.api_overhead
    return max(host, now)


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
    return _replay(
        profile, plan, shapes, chunk_work(plan, kernel, profile),
        _piece_tables(profile, plan, shapes),
    )


def _replay(profile, plan, shapes, work, tables) -> float:
    """:func:`dry_run_elapsed` over a given chunk table and piece tables."""
    streams_n = min(plan.num_streams, len(work))
    call, contention = _scales(profile, streams_n)
    host, now, resident_out, capacities = _open(
        profile, plan, shapes, tables, streams_n, call, contention
    )
    lanes = [
        _Lane(spec.clause, capacity, h2d_time, d2h_time)
        for spec, capacity, (h2d_time, d2h_time)
        in zip(plan.specs.values(), capacities, tables)
    ]

    # ---- issue: one command per H2D piece, kernel and D2H piece ---------
    # a command is ``(duration, engine, issue time, waited command ids)``;
    # engines: 0 = dma0, 1 = dma1 (D2H, with two DMA engines), 2 = compute0
    cmds: List[tuple] = []
    #: each command's predecessor on its stream (-1 for a stream's first)
    pred: List[int] = []
    tails = [-1] * streams_n
    d2h_engine = 1 if profile.dma_engines > 1 else 0
    dedup = plan.halo_mode == "dedup"
    for index, t0, t1, ranges, launch, _cost in work:
        first = len(cmds)
        in_ids: list = []
        out_reuse: list = []
        for lane, (lo, hi) in zip(lanes, ranges):
            cap = lane.capacity
            if lane.is_input:
                covered = lane.covered_hi
                new_lo = max(lo, covered) if dedup and covered is not None else lo
                if new_lo < hi:
                    for g_lo, g_hi, _pos in ring_pieces(new_lo, hi, cap):
                        r_lo, r_hi = g_lo - cap, g_hi - cap
                        reuse = [c for (a, b, c) in lane.readers if a < r_hi and b > r_lo]
                        reuse += [c for (a, b, c) in lane.d2h if a < r_hi and b > r_lo]
                        host += call
                        lane.h2d.append((g_lo, g_hi, len(cmds)))
                        cmds.append(
                            (lane.h2d_time[g_hi - g_lo] + contention, 0, host, reuse)
                        )
                    lane.covered_hi = max(covered or hi, hi)
                h2d = lane.h2d
                in_ids += [c for (a, b, c) in h2d if a < hi and b > lo]
                lane.h2d = [r for r in h2d if r[1] > lo]
            floor = lo - cap
            if lane.is_output:
                ceil = hi - cap
                d2h = lane.d2h
                out_reuse += [c for (a, b, c) in d2h if a < ceil and b > floor]
                out_reuse += [c for (a, b, c) in lane.readers if a < ceil and b > floor]
                lane.d2h = [r for r in d2h if r[1] > floor]
            lane.readers = [r for r in lane.readers if r[1] > floor]
        host += call
        kernel_id = len(cmds)
        cmds.append((float(launch + contention), 2, host, in_ids + out_reuse))
        for lane, (lo, hi) in zip(lanes, ranges):
            if lane.is_input:
                lane.readers.append((lo, hi, kernel_id))
            if not lane.is_output:
                continue
            for g_lo, g_hi, _pos in ring_pieces(lo, hi, lane.capacity):
                host += call
                lane.d2h.append((g_lo, g_hi, len(cmds)))
                cmds.append(
                    (lane.d2h_time[g_hi - g_lo] + contention, d2h_engine, host, ())
                )
        # one stream per chunk: its commands follow each other in order
        stream = index % streams_n
        pred.append(tails[stream])
        pred.extend(range(first, len(cmds) - 1))
        tails[stream] = len(cmds) - 1

    # ---- the event loop, as the engine runs it -------------------------
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
    return _finalize(profile, plan, host, now, resident_out, call, contention)
