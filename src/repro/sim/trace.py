"""Execution timeline capture and analysis.

Every command the simulator retires is recorded as a
:class:`TimelineRecord`.  The analysis helpers here answer the
questions the paper's figures ask of a profiler:

* :func:`time_distribution` — how much busy time went to HtoD, DtoH,
  and kernel work (Figure 3's stacked bars),
* :func:`overlap_fraction` — how much transfer time was hidden under
  compute,
* :func:`audit` — post-run invariant checks (in-order streams,
  exclusive engines, monotone clocks) used by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs.intervals import union_length
from repro.sim.stream import SimStream

__all__ = [
    "TimelineRecord",
    "Timeline",
    "time_distribution",
    "overlap_fraction",
    "audit",
]


@dataclass(frozen=True)
class TimelineRecord:
    """One retired command.

    Attributes
    ----------
    kind:
        Command class (``"h2d"``, ``"d2h"``, ``"kernel"``, ...).
    label:
        Human-readable description.
    stream:
        Stream name, or ``""`` for stream-less commands.
    engine:
        Engine that executed the command.
    enqueue, start, finish:
        Virtual timestamps (seconds).
    nbytes:
        Bytes moved/touched.
    """

    kind: str
    label: str
    stream: str
    engine: str
    enqueue: float
    start: float
    finish: float
    nbytes: int

    @property
    def duration(self) -> float:
        """Command occupancy time."""
        return self.finish - self.start


def _start_finish(r: TimelineRecord):
    return (r.start, r.finish)


class Timeline:
    """An ordered collection of :class:`TimelineRecord` with queries."""

    def __init__(self, records: Sequence[TimelineRecord]) -> None:
        self._records: Optional[List[TimelineRecord]] = sorted(records, key=_start_finish)
        self._commands: Optional[Sequence] = None

    @classmethod
    def from_commands(cls, commands: Sequence) -> "Timeline":
        """The timeline of retired :class:`~repro.sim.engine.Command`\\ s.

        Identical to ``Timeline(records)`` built from the commands, but
        the records are built and sorted on first access to
        :attr:`records`, so a caller that never looks at the timeline
        (one that reads only a result's ``elapsed``) never pays for it.
        The commands must not be mutated or recycled before then.
        """
        tl = cls.__new__(cls)
        tl._records = None
        tl._commands = commands
        return tl

    @property
    def records(self) -> List[TimelineRecord]:
        """The records, ordered by ``(start, finish)``."""
        recs = self._records
        if recs is None:
            recs = self._records = sorted(
                [
                    TimelineRecord(
                        c.kind,
                        c.label,
                        c.stream.name if isinstance(c.stream, SimStream) else "",
                        c.engine,
                        c.enqueue_time,
                        c.start_time,
                        c.finish_time,
                        c.nbytes,
                    )
                    for c in self._commands
                ],
                key=_start_finish,
            )
            self._commands = None
        return recs

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def by_kind(self, kind: str) -> List[TimelineRecord]:
        """All records of one kind."""
        return [r for r in self.records if r.kind == kind]

    def for_streams(self, prefix: str) -> "Timeline":
        """Sub-timeline of records whose stream name starts with ``prefix``.

        Multi-tenant runs name each region's streams with a per-request
        prefix (``t<id>.pipe<i>``), so this slices one tenant's commands
        out of a shared device timeline for attribution and busy-time
        conservation checks.
        """
        return Timeline([r for r in self.records if r.stream.startswith(prefix)])

    @property
    def makespan(self) -> float:
        """End-to-end virtual time (first start to last finish)."""
        if not self.records:
            return 0.0
        return max(r.finish for r in self.records) - min(r.start for r in self.records)

    @property
    def end(self) -> float:
        """Latest finish time."""
        return max((r.finish for r in self.records), default=0.0)

    def busy_time(self, kind: Optional[str] = None) -> float:
        """Total occupancy of all (or one kind of) commands."""
        return sum(r.duration for r in self.records if kind is None or r.kind == kind)

    def engine_utilization(self) -> Dict[str, float]:
        """Fraction of the makespan each engine spent busy."""
        span = self.makespan
        if span <= 0:
            return {}
        busy: Dict[str, float] = {}
        for r in self.records:
            busy[r.engine] = busy.get(r.engine, 0.0) + r.duration
        return {e: b / span for e, b in busy.items()}


def time_distribution(timeline: Timeline, kinds: Iterable[str] = ("h2d", "d2h", "kernel")) -> Dict[str, float]:
    """Busy seconds per command kind — the paper's Figure 3 breakdown."""
    return {k: timeline.busy_time(k) for k in kinds}


def overlap_fraction(timeline: Timeline) -> float:
    """Fraction of transfer busy-time overlapped with kernel execution.

    1.0 means every transferred byte moved while a kernel was running
    (perfect pipelining); 0.0 means fully synchronous behaviour.
    """
    kernels = [(r.start, r.finish) for r in timeline.records if r.kind == "kernel"]
    transfers = [r for r in timeline.records if r.kind in ("h2d", "d2h")]
    if not transfers:
        return 0.0
    kernel_ivs = sorted(kernels)
    hidden = 0.0
    total = 0.0
    for t in transfers:
        total += t.duration
        pieces = []
        for lo, hi in kernel_ivs:
            if hi <= t.start:
                continue
            if lo >= t.finish:
                break
            pieces.append((max(lo, t.start), min(hi, t.finish)))
        hidden += union_length(pieces)
    return hidden / total if total else 0.0


def audit(timeline: Timeline) -> None:
    """Validate simulator output invariants; raises ``AssertionError``.

    Checks: per-engine exclusivity (no two commands overlap on one
    engine), per-stream in-order execution, and that no command started
    before it was enqueued.
    """
    by_engine: Dict[str, List[TimelineRecord]] = {}
    by_stream: Dict[str, List[TimelineRecord]] = {}
    eps = 1e-12
    for r in timeline.records:
        if r.start < r.enqueue - eps:
            raise AssertionError(f"{r} started before enqueue")
        if r.finish < r.start - eps:
            raise AssertionError(f"{r} finished before start")
        by_engine.setdefault(r.engine, []).append(r)
        if r.stream:
            by_stream.setdefault(r.stream, []).append(r)
    for eng, recs in by_engine.items():
        recs.sort(key=lambda r: r.start)
        for a, b in zip(recs, recs[1:]):
            if b.start < a.finish - eps:
                raise AssertionError(f"engine {eng} overlap: {a} / {b}")
    for s, recs in by_stream.items():
        # enqueue order within a stream must match execution order
        in_enqueue_order = sorted(recs, key=lambda r: r.enqueue)
        in_exec_order = sorted(recs, key=lambda r: r.start)
        # ties in enqueue time are possible (same host call burst);
        # require only that finishes are monotone w.r.t. starts
        for a, b in zip(in_exec_order, in_exec_order[1:]):
            if b.start < a.finish - eps:
                raise AssertionError(f"stream {s} commands overlap: {a} / {b}")
        del in_enqueue_order
