"""Execution timeline capture and analysis.

Every command the simulator retires becomes one row of a column store:
``array`` columns for its virtual timestamps and integer metadata,
string columns for its kind, engine, stream and label, and its
dependency edges as recorder sequence numbers.  A
:class:`~repro.sim.device.Device` folds retired commands into its store
in batches (:meth:`~repro.sim.device.Device.compact`), after which the
``Command`` objects themselves can be freed; a :class:`Timeline` is a
row range of such a store.

The analysis helpers here answer the questions the paper's figures ask
of a profiler:

* :func:`time_distribution` — how much busy time went to HtoD, DtoH,
  and kernel work (Figure 3's stacked bars),
* :func:`overlap_fraction` — how much transfer time was hidden under
  compute,
* :func:`audit` — post-run invariant checks (in-order streams,
  exclusive engines, monotone clocks) used by the test suite.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate
from sys import intern
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.obs.intervals import union_length
from repro.sim.stream import SimStream

__all__ = [
    "TimelineColumns",
    "TimelineRecord",
    "TimelineRow",
    "Timeline",
    "time_distribution",
    "overlap_fraction",
    "audit",
]

#: "none" in the chunk and stream-predecessor columns
_NONE = -1


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


class TimelineRow(NamedTuple):
    """One row read back as an object, for post-run analysis.

    It carries the attribute names of a retired
    :class:`~repro.sim.engine.Command` that analysis reads (``kind``,
    ``label``, ``engine``, ``chunk``, ``seq`` and the ``*_time``
    stamps), with the command's dependency edges as sequence numbers:
    ``pred`` is the stream predecessor's (``-1`` for none) and
    ``waits`` holds one ``(recorder seq, is_data)`` pair per waited
    token.  ``chunk`` is ``None`` for non-pipelined work.
    """

    kind: str
    label: str
    engine: str
    seq: int
    enqueue_time: float
    ready_time: float
    start_time: float
    finish_time: float
    chunk: Optional[int]
    pred: int
    waits: Tuple[Tuple[int, bool], ...]


class TimelineColumns:
    """The column store behind :class:`Timeline`.

    One row per retired command, in retirement order.  Times are
    ``array('d')`` columns; ``seq``, ``nbytes``, ``chunk`` and ``pred`` (the stream predecessor's seq) are
    ``array('q')`` columns with ``-1`` for "none"; ``kind``, ``engine``,
    ``stream`` (its name) and ``label`` are lists of ``str``, each label
    interned as it is appended.  The
    ``(recorder seq, is_data)`` pairs of every row's waits lie flat in
    ``wait_seq`` and ``wait_data``, and row ``i``'s end at
    ``wait_end[i]``; a recorder seq of ``-1`` marks a token whose
    recorder was gone (recycled) when the row was made, and reads back
    as no edge.  Rows are only ever appended.
    """

    __slots__ = (
        "enqueue", "ready", "start", "finish", "seq", "nbytes", "chunk",
        "pred", "kind", "engine", "stream", "label",
        "wait_seq", "wait_data", "wait_end",
    )

    def __init__(self) -> None:
        self.enqueue = array("d")
        self.ready = array("d")
        self.start = array("d")
        self.finish = array("d")
        self.seq = array("q")
        self.nbytes = array("q")
        self.chunk = array("q")
        self.pred = array("q")
        self.kind: List[str] = []
        self.engine: List[str] = []
        self.stream: List[str] = []
        self.label: List[str] = []
        self.wait_seq = array("q")
        self.wait_data = array("b")
        self.wait_end = array("q")

    def __len__(self) -> int:
        return len(self.seq)

    def append_commands(self, cmds: Sequence) -> None:
        """Fold retired commands into new rows, in the given order.

        One comprehension per column (``fromlist`` is the fast way into
        an ``array``); the commands are read, not changed.
        """
        self.enqueue.fromlist([c.enqueue_time for c in cmds])
        self.ready.fromlist([c.ready_time for c in cmds])
        self.start.fromlist([c.start_time for c in cmds])
        self.finish.fromlist([c.finish_time for c in cmds])
        self.seq.fromlist([c.seq for c in cmds])
        self.nbytes.fromlist([c.nbytes for c in cmds])
        self.chunk.fromlist([_NONE if c.chunk is None else c.chunk for c in cmds])
        self.pred.fromlist([
            _NONE if c.stream_pred is None else c.stream_pred.seq for c in cmds
        ])
        self.kind += [c.kind for c in cmds]
        self.engine += [c.engine for c in cmds]
        self.stream += [
            c.stream.name if isinstance(c.stream, SimStream) else "" for c in cmds
        ]
        # one object per distinct label: regions of one shape repeat theirs
        self.label += map(intern, [c.label for c in cmds])
        toks = [c.wait_toks for c in cmds]
        self.wait_end.fromlist(
            list(accumulate(map(len, toks), initial=len(self.wait_seq)))[1:]
        )
        self.wait_seq.fromlist([
            _NONE if (rb := t.recorded_by) is None else rb.seq
            for ts in toks for t in ts
        ])
        self.wait_data.fromlist([
            pw is None or id(t) in pw
            for ts, pw in zip(toks, [c._poison_waits for c in cmds]) for t in ts
        ])

    def append_records(self, records: Iterable[TimelineRecord]) -> None:
        """Append records as rows with no edges; a row's seq is its index."""
        for r in records:
            self.seq.append(len(self.seq))
            self.enqueue.append(r.enqueue)
            self.ready.append(r.start)
            self.start.append(r.start)
            self.finish.append(r.finish)
            self.nbytes.append(r.nbytes)
            self.chunk.append(_NONE)
            self.pred.append(_NONE)
            self.kind.append(r.kind)
            self.engine.append(r.engine)
            self.stream.append(r.stream)
            self.label.append(r.label)
            self.wait_end.append(len(self.wait_seq))

    def wait_pairs(self, i: int) -> Tuple[Tuple[int, bool], ...]:
        """Row ``i``'s ``(recorder seq, is_data)`` pairs, gone recorders
        left out."""
        seqs, data = self.wait_seq, self.wait_data
        lo = self.wait_end[i - 1] if i else 0
        return tuple(
            (seqs[j], bool(data[j]))
            for j in range(lo, self.wait_end[i]) if seqs[j] != _NONE
        )


class Timeline:
    """A row range of a :class:`TimelineColumns` store, with queries.

    ``Timeline(records)`` builds a store of its own; a device's store
    hands out views (:meth:`view`), which copy nothing.  The queries
    read rows ordered by ``(start, finish)``, ties in row order, which
    is the order of :attr:`records`.
    """

    __slots__ = ("_cols", "_lo", "_hi", "_records", "_sorted")

    def __init__(self, records: Iterable[TimelineRecord] = ()) -> None:
        cols = TimelineColumns()
        cols.append_records(records)
        self._bind(cols, 0, len(cols))

    def _bind(self, cols: TimelineColumns, lo: int, hi: int) -> None:
        self._cols = cols
        self._lo = lo
        self._hi = hi
        self._records: Optional[List[TimelineRecord]] = None
        self._sorted: Optional[List[int]] = None

    @classmethod
    def view(cls, columns: TimelineColumns, lo: int = 0,
             hi: Optional[int] = None) -> "Timeline":
        """Rows ``[lo, hi)`` of ``columns`` (to the end by default)."""
        tl = cls.__new__(cls)
        tl._bind(columns, lo, len(columns) if hi is None else hi)
        return tl

    @classmethod
    def join(cls, timelines: Iterable["Timeline"]) -> "Timeline":
        """The view spanning ``timelines``: adjacent views of one store,
        in row order (the regions one runtime ran back to back).

        Raises ``ValueError`` for anything else.
        """
        parts = list(timelines)
        if not parts or not all(
            a._cols is b._cols and a._hi == b._lo for a, b in zip(parts, parts[1:])
        ):
            raise ValueError("Timeline.join needs adjacent views of one store")
        return cls.view(parts[0]._cols, parts[0]._lo, parts[-1]._hi)

    def _order(self) -> List[int]:
        """Row indices ordered by ``(start, finish)``, ties in row order."""
        order = self._sorted
        if order is None:
            st, fin = self._cols.start, self._cols.finish
            order = self._sorted = sorted(
                range(self._lo, self._hi), key=lambda i: (st[i], fin[i])
            )
        return order

    @property
    def records(self) -> List[TimelineRecord]:
        """The records, ordered by ``(start, finish)``."""
        recs = self._records
        if recs is None:
            c = self._cols
            recs = self._records = [
                TimelineRecord(
                    c.kind[i], c.label[i], c.stream[i], c.engine[i],
                    c.enqueue[i], c.start[i], c.finish[i], c.nbytes[i],
                )
                for i in self._order()
            ]
        return recs

    def rows(self) -> List[TimelineRow]:
        """The rows in retirement order, as :class:`TimelineRow` objects."""
        c = self._cols
        return [
            TimelineRow(
                c.kind[i], c.label[i], c.engine[i], c.seq[i],
                c.enqueue[i], c.ready[i], c.start[i], c.finish[i],
                None if c.chunk[i] == _NONE else c.chunk[i],
                c.pred[i], c.wait_pairs(i),
            )
            for i in range(self._lo, self._hi)
        ]

    def __len__(self) -> int:
        return self._hi - self._lo

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
        if self._hi == self._lo:
            return 0.0
        lo, hi = self._lo, self._hi
        return max(self._cols.finish[lo:hi]) - min(self._cols.start[lo:hi])

    @property
    def end(self) -> float:
        """Latest finish time."""
        return max(self._cols.finish[self._lo:self._hi], default=0.0)

    def busy_time(self, kind: Optional[str] = None) -> float:
        """Total occupancy of all (or one kind of) commands."""
        c = self._cols
        st, fin, kinds = c.start, c.finish, c.kind
        return sum(
            fin[i] - st[i] for i in self._order() if kind is None or kinds[i] == kind
        )

    def engine_utilization(self) -> Dict[str, float]:
        """Fraction of the makespan each engine spent busy."""
        span = self.makespan
        if span <= 0:
            return {}
        c = self._cols
        st, fin, engines = c.start, c.finish, c.engine
        busy: Dict[str, float] = {}
        for i in self._order():
            e = engines[i]
            busy[e] = busy.get(e, 0.0) + (fin[i] - st[i])
        return {e: b / span for e, b in busy.items()}


def time_distribution(timeline: Timeline, kinds: Iterable[str] = ("h2d", "d2h", "kernel")) -> Dict[str, float]:
    """Busy seconds per command kind — the paper's Figure 3 breakdown."""
    return {k: timeline.busy_time(k) for k in kinds}


def overlap_fraction(timeline: Timeline) -> float:
    """Fraction of transfer busy-time overlapped with kernel execution.

    1.0 means every transferred byte moved while a kernel was running
    (perfect pipelining); 0.0 means fully synchronous behaviour.
    """
    c = timeline._cols
    kinds, st, fin = c.kind, c.start, c.finish
    order = timeline._order()
    kernel_ivs = sorted([(st[i], fin[i]) for i in order if kinds[i] == "kernel"])
    transfers = [i for i in order if kinds[i] in ("h2d", "d2h")]
    if not transfers:
        return 0.0
    hidden = 0.0
    total = 0.0
    for i in transfers:
        t_start, t_finish = st[i], fin[i]
        total += t_finish - t_start
        pieces = []
        for lo, hi in kernel_ivs:
            if hi <= t_start:
                continue
            if lo >= t_finish:
                break
            pieces.append((max(lo, t_start), min(hi, t_finish)))
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
        # ties in enqueue time are possible (same host call burst), so
        # require only that execution order never overlaps
        in_exec_order = sorted(recs, key=lambda r: r.start)
        for a, b in zip(in_exec_order, in_exec_order[1:]):
            if b.start < a.finish - eps:
                raise AssertionError(f"stream {s} commands overlap: {a} / {b}")
