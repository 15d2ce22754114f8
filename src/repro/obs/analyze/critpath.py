"""Critical-path extraction over the retired command graph.

Every row of a timeline (:class:`~repro.sim.trace.TimelineRow`) keeps
enough dependency metadata to reconstruct *why* its command started
when it did: ``ready_time`` vs ``start_time`` separates engine queueing
from dependency waits, ``pred`` is the seq of the implicit in-order
stream predecessor, and ``waits`` lists the explicit cross-stream event
edges as ``(recorder seq, is_data)`` pairs, ``is_data`` telling true
data dependencies from ordering-only ring-slot-reuse guards.  The walk
resolves those seqs through an index of the rows it was given and
drops an edge to a command outside them: for a region's timeline, that
command retired before the region's measurement window opened.

:func:`extract_critical_path` walks backward from the last completion:
at each command it identifies the *binding* constraint (the edge that
resolved last) and follows it, emitting segments that **partition** the
analysis window ``[t0, t_end]`` exactly — every instant of wall time is
covered by exactly one segment, so any grouping of segments sums to
wall time by construction.  Everything is deterministic: ties break on
``(finish, start, seq)``.

Edge taxonomy (why a segment's successor had to wait):

- ``queue.dma`` / ``queue.compute`` — the engine was busy with earlier
  work (``ready_time < start_time``),
- ``wait.slot_reuse`` — an ordering-only ring-buffer anti-dependency,
- ``wait.stream`` — in-order stream serialization,
- ``wait.data`` — a true data dependency (e.g. kernel on its H2D),
- ``api`` — host-side: the command was enqueued late (API-call
  overhead, planning, backoff),
- ``end`` — the window's last command (no successor).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.trace import TimelineRow

__all__ = [
    "CriticalPath",
    "PathSegment",
    "EDGE_END",
    "EDGE_HOST",
    "EDGE_QUEUE_COMPUTE",
    "EDGE_QUEUE_DMA",
    "EDGE_SLOT",
    "EDGE_STREAM",
    "EDGE_DATA",
    "extract_critical_path",
]

#: tolerance for "same instant" comparisons of virtual timestamps
_EPS = 1e-12

EDGE_END = "end"
EDGE_QUEUE_DMA = "queue.dma"
EDGE_QUEUE_COMPUTE = "queue.compute"
EDGE_SLOT = "wait.slot_reuse"
EDGE_STREAM = "wait.stream"
EDGE_DATA = "wait.data"
EDGE_HOST = "api"


@dataclass(frozen=True)
class PathSegment:
    """One slice of the wall-time partition.

    ``cmd`` is the command executing during the slice (``None`` for a
    pure wait / host gap); ``edge`` is why the slice's *successor* on
    the path could not start earlier; ``waiter`` is that successor.
    """

    start: float
    end: float
    edge: str
    cmd: Optional[TimelineRow] = None
    waiter: Optional[TimelineRow] = None

    @property
    def duration(self) -> float:
        """Slice length in virtual seconds."""
        return self.end - self.start


@dataclass
class CriticalPath:
    """The backward-walk result: segments partitioning ``[t0, t_end]``."""

    segments: List[PathSegment]
    t0: float
    t_end: float
    #: device window: first command start / last command finish
    device_t0: float
    device_t1: float

    @property
    def wall(self) -> float:
        """The analysis window length (sum of all segment durations)."""
        return self.t_end - self.t0

    @property
    def length(self) -> float:
        """Path length clipped to the device window.

        Because the segments partition the window, this equals the
        timeline makespan (last finish minus first start).
        """
        lo, hi = self.device_t0, self.device_t1
        return sum(
            max(0.0, min(s.end, hi) - max(s.start, lo)) for s in self.segments
        )


def _queue_edge(engine: str) -> str:
    return EDGE_QUEUE_DMA if engine.startswith("dma") else EDGE_QUEUE_COMPUTE


def extract_critical_path(
    commands: Sequence[TimelineRow], t0: float, t_end: float
) -> CriticalPath:
    """Walk dependencies backward from the last completion in the window.

    Parameters
    ----------
    commands:
        Retired commands' rows (e.g. ``RegionResult.timeline.rows()``).
        Only finished ones participate.
    t0, t_end:
        The wall window to partition (the region's measurement window).
    """
    done = [c for c in commands if c.finish_time is not None]
    if not done:
        segs = (
            [PathSegment(t0, t_end, EDGE_HOST)] if t_end > t0 + _EPS else []
        )
        return CriticalPath(segs, t0, t_end, t0, t0)

    device_t0 = min(c.start_time for c in done)
    device_t1 = max(c.finish_time for c in done)

    # per-engine occupancy order, for "who held the engine until I
    # started" lookups; ties on finish break by (start, seq) so the
    # *latest* occupant ending at an instant wins
    by_engine: Dict[str, List[TimelineRow]] = {}
    for c in done:
        by_engine.setdefault(c.engine, []).append(c)
    fins_of: Dict[str, List[float]] = {}
    for eng, lst in by_engine.items():
        lst.sort(key=lambda c: (c.finish_time, c.start_time, c.seq))
        fins_of[eng] = [c.finish_time for c in lst]

    # global finish order, for host-gap continuation
    all_sorted = sorted(done, key=lambda c: (c.finish_time, c.start_time, c.seq))
    all_fins = [c.finish_time for c in all_sorted]

    def engine_pred(cur: TimelineRow) -> Optional[TimelineRow]:
        """The command that occupied ``cur``'s engine until ``cur`` started."""
        lst = by_engine[cur.engine]
        i = bisect_right(fins_of[cur.engine], cur.start_time + _EPS) - 1
        while i >= 0:
            cand = lst[i]
            if cand is not cur:
                # a queue wait means the engine was busy right up to
                # cur.start; anything finishing earlier is not the blocker
                if cand.finish_time < cur.start_time - 1e-9:
                    return None
                return cand
            i -= 1
        return None

    by_seq = {c.seq: c for c in done}

    def dep_blocker(cur: TimelineRow) -> Tuple[Optional[TimelineRow], str]:
        """The dependency that resolved last (the binding constraint)."""
        cands = []
        sp = by_seq.get(cur.pred)
        if sp is not None:
            cands.append((sp.finish_time, 0, sp.seq, sp, EDGE_STREAM))
        for seq, is_data in cur.waits:
            rb = by_seq.get(seq)
            if rb is None:
                continue
            cands.append(
                (rb.finish_time, 1, rb.seq, rb, EDGE_DATA if is_data else EDGE_SLOT)
            )
        if not cands:
            return None, EDGE_HOST
        fin, _, _, blocker, cause = max(cands, key=lambda c: c[:3])
        if fin <= cur.enqueue_time + _EPS:
            # every dependency resolved before the host even enqueued
            # the command: the binding constraint is the API call itself
            return None, EDGE_HOST
        return blocker, cause

    def global_pred(cur: TimelineRow) -> Optional[TimelineRow]:
        """Latest-finishing command at or before ``cur``'s start."""
        i = bisect_right(all_fins, cur.start_time + _EPS) - 1
        while i >= 0:
            cand = all_sorted[i]
            if cand is not cur:
                return cand
            i -= 1
        return None

    segments: List[PathSegment] = []  # built backward, reversed at the end
    cur = max(done, key=lambda c: (c.finish_time, c.seq))
    frontier = t_end
    if frontier > cur.finish_time + _EPS:
        # window tail past the last completion: host-side sync/teardown
        segments.append(PathSegment(cur.finish_time, frontier, EDGE_HOST))
        frontier = cur.finish_time

    edge = EDGE_END
    waiter: Optional[TimelineRow] = None
    visited = set()
    while cur is not None and frontier > t0:
        if id(cur) in visited:  # pragma: no cover - defensive
            break
        visited.add(id(cur))
        exec_lo = max(min(cur.start_time, frontier), t0)
        if frontier > exec_lo:
            segments.append(
                PathSegment(exec_lo, frontier, edge, cmd=cur, waiter=waiter)
            )
            frontier = exec_lo
        if frontier <= t0:
            break
        # why did cur start only at frontier?
        blocker: Optional[TimelineRow] = None
        cause = EDGE_HOST
        ready = cur.ready_time if cur.ready_time is not None else cur.start_time
        if cur.start_time > ready + _EPS:
            blocker = engine_pred(cur)
            if blocker is not None:
                cause = _queue_edge(cur.engine)
        if blocker is None:
            blocker, cause = dep_blocker(cur)
        if blocker is None:
            blocker = global_pred(cur)
            cause = EDGE_HOST
        if blocker is None:
            break
        gap_lo = max(min(blocker.finish_time, frontier), t0)
        if frontier > gap_lo:
            segments.append(PathSegment(gap_lo, frontier, cause, waiter=cur))
            frontier = gap_lo
        waiter = cur
        edge = cause
        cur = blocker
    if frontier > t0:
        # window head before the first path command: host lead-in
        segments.append(PathSegment(t0, frontier, EDGE_HOST, waiter=cur))
    segments.reverse()
    return CriticalPath(segments, t0, t_end, device_t0, device_t1)
