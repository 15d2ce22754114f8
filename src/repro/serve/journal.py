"""Write-ahead journal + snapshots for the serve control plane.

The :class:`~repro.serve.RegionScheduler` is deterministic: the same
workload on the same pool produces a bit-identical event timeline.
The journal leans on that to make the control plane *crash-consistent*
without persisting any simulator state at all:

* **Write-ahead log.**  Every event the scheduler records to its
  :class:`~repro.obs.FlightRecorder` is teed here and appended as one
  canonical JSON line (sorted keys, compact separators), fsync-modelled
  — written and flushed before control returns, with a durability
  counter, at zero virtual-time cost.  Records the ring drops for
  capacity are still journalled, so the log is the complete timeline.
* **Snapshots.**  Every ``snapshot_every`` records the scheduler's
  :meth:`~repro.serve.RegionScheduler.checkpoint` packages its full
  mutable state — queue, reservations, breaker windows, retry budgets,
  per-tenant aging counters, plan-cache contents, journal high-water
  mark — into a JSON-safe dict, writes it atomically to the
  ``<journal>.snap.json`` sidecar, and journals its digest.
* **Resume by verified replay.**  ``RegionScheduler.resume(path, ...)``
  re-runs the workload from virtual t=0 with the writer in *verify*
  mode: each regenerated record is byte-compared against the stored
  prefix (divergence raises :class:`JournalError`), and requests the
  log marks complete are replayed with metadata-only stand-in arrays —
  their outputs come back from the ``<journal>.out/`` sidecar store,
  never from re-execution (exactly-once).  Snapshot digests recomputed
  during replay are byte-compared too, which is the proof that
  :meth:`checkpoint` reconstructs exact state at every cadence point.

The host-crash injector (:class:`~repro.faults.HostCrashError`,
``FaultPlan.crash_after_events``, chaos profile ``hostcrash``) kills
the control plane *after* the k-th record is durable, so a crashed
journal is always a verbatim prefix of the uninterrupted one — the
invariant the crash-at-every-index tests pin down.

Continuous-telemetry events interact with the log the same way
``chunk.issue`` does: per-window ``telemetry.window`` breadcrumbs are
progress telemetry regenerated deterministically on resume, so the
scheduler's sink filters them out unless
``ServeConfig(telemetry_journal=True)`` opts into a crash-consistent
telemetry tee; the SLO state transitions (``slo.breach``,
``slo.burn_spike``, ``slo.budget_exhausted``) are always journalled
and byte-verified on replay like any other control-plane event.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.faults.plan import HostCrashError

__all__ = [
    "JournalError",
    "JournalReader",
    "JournalWriter",
    "encode_record",
    "output_store_path",
    "snapshot_path",
]

#: journal format version, stamped into the header record.  Bumped to
#: 2 when the header gained the telemetry/SLO config keys (``slos``,
#: ``telemetry``, ``telemetry_window``, ``telemetry_journal``): a
#: format-1 journal's header can never byte-verify against a header
#: regenerated by this build, so reject it with a clean format error
#: instead of a confusing record-0 divergence.  Bumped to 3 when
#: snapshots began to hold the plan-cache entries (``cache.plans``),
#: which changes every snapshot digest a journal records.
JOURNAL_FORMAT = 3


class JournalError(ReproError, RuntimeError):
    """The journal is unusable: missing, mismatched, or diverged."""


#: one shared encoder — ``json.dumps`` with non-default options builds
#: a fresh ``JSONEncoder`` per call, measurable at journal rates
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def encode_record(rec: Dict) -> str:
    """Canonical one-line encoding (sorted keys, compact, no newline)."""
    return _ENCODE(rec)


def snapshot_path(path: str) -> str:
    """Sidecar path of the atomic snapshot next to journal ``path``."""
    return path + ".snap.json"


def output_store_path(path: str) -> str:
    """Sidecar directory of per-request output arrays (``r<seq>/<var>.npy``)."""
    return path + ".out"


class JournalWriter:
    """Appender for the serve journal, with verify-mode replay.

    Parameters
    ----------
    path:
        Journal file; always (re)written from scratch — on resume the
        stored prefix is regenerated record by record and
        byte-verified, which also heals any torn tail.
    snapshot_every:
        Trigger ``snapshot_fn`` every this many records (0 = never).
    crash_after_events:
        Raise :class:`~repro.faults.HostCrashError` once this many
        records are durable (``None`` = never).  The triggering record
        is written and flushed *before* the raise.
    resume_lines:
        Canonical stored lines from a :class:`JournalReader`; each
        regenerated record with index inside this prefix must match
        byte-for-byte or :class:`JournalError` is raised.
    """

    def __init__(
        self,
        path: str,
        *,
        snapshot_every: int = 0,
        crash_after_events: Optional[int] = None,
        resume_lines: Optional[List[str]] = None,
    ) -> None:
        self.path = path
        self.snapshot_every = snapshot_every
        self.crash_after_events = crash_after_events
        #: scheduler checkpoint hook, wired after construction
        self.snapshot_fn: Optional[Callable[[], Dict]] = None
        self.records = 0
        self.fsyncs = 0
        self.snapshots = 0
        #: records byte-verified against the stored prefix (resume)
        self.verified = 0
        #: host wall seconds spent in journal work (encode + write +
        #: flush + snapshots) — the real, non-virtual durability cost
        self.wall_s = 0.0
        self._stored = list(resume_lines) if resume_lines else []
        self._in_snapshot = False
        self._fh = open(path, "w", encoding="utf-8")

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def append(self, rec: Dict) -> None:
        """Durably append one record (and verify it against any prefix).

        The record gets the next journal index as ``"i"``; flush is
        the modelled fsync.  After a durable write this may raise
        :class:`~repro.faults.HostCrashError` (crash injection) or
        trigger the snapshot cadence.
        """
        if self._fh.closed:
            return
        # wall accounting: the outer append's span covers any snapshot
        # it triggers, so nested (in-snapshot) appends must not add
        # their own time on top
        t0 = None if self._in_snapshot else time.perf_counter()
        try:
            i = self.records
            line = encode_record({"i": i, **rec})
            if i < len(self._stored) and line != self._stored[i]:
                raise JournalError(
                    f"journal divergence at record {i}: replay produced\n"
                    f"  {line}\nbut the journal holds\n  {self._stored[i]}"
                )
            if i < len(self._stored):
                self.verified += 1
            self._fh.write(line + "\n")
            self._fh.flush()
            self.fsyncs += 1
            self.records += 1
            if (
                self.crash_after_events is not None
                and self.records >= self.crash_after_events
            ):
                self._fh.close()
                raise HostCrashError(self.records)
            if (
                self.snapshot_every > 0
                and self.snapshot_fn is not None
                and not self._in_snapshot
                and self.records % self.snapshot_every == 0
            ):
                self._in_snapshot = True
                try:
                    self.snapshot_fn()
                    self.snapshots += 1
                finally:
                    self._in_snapshot = False
        finally:
            if t0 is not None:
                self.wall_s += time.perf_counter() - t0

    def close(self) -> None:
        """Flush and close the journal file (idempotent)."""
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()


class JournalReader:
    """Parsed view of a journal file, tolerant of a torn tail.

    Lines are accepted while they are canonical JSON records with
    consecutive ``"i"`` indices starting at 0; the first malformed or
    gapped line ends the valid prefix (``dropped`` counts the rest).
    A non-empty journal must start with a ``journal.header`` record.
    """

    def __init__(self, path: str) -> None:
        if not os.path.exists(path):
            raise JournalError(f"no journal at {path!r}")
        self.path = path
        self.records: List[Dict] = []
        self.lines: List[str] = []
        self.dropped = 0
        with open(path, encoding="utf-8") as fh:
            raw = fh.read().split("\n")
        if raw and raw[-1] == "":
            raw.pop()
        for n, line in enumerate(raw):
            rec = self._parse(line, len(self.records))
            if rec is None:
                self.dropped = len(raw) - n
                break
            self.records.append(rec)
            self.lines.append(line)
        if not self.records:
            raise JournalError(f"journal {path!r} holds no valid records")
        if self.records[0].get("kind") != "journal.header":
            raise JournalError(
                f"journal {path!r} does not start with a journal.header record"
            )
        self.header: Dict = self.records[0]
        if self.header.get("format") != JOURNAL_FORMAT:
            raise JournalError(
                f"journal {path!r} has format {self.header.get('format')!r}; "
                f"this build reads format {JOURNAL_FORMAT}"
            )
        #: sidecar snapshot, when present and covered by the valid
        #: prefix (advisory: resume replays the log, the snapshot
        #: cross-checks it)
        self.snapshot: Optional[Dict] = self._load_snapshot()

    @staticmethod
    def _parse(line: str, expect_i: int) -> Optional[Dict]:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(rec, dict) or rec.get("i") != expect_i:
            return None
        if encode_record(rec) != line:
            return None  # non-canonical: treat as torn/foreign
        return rec

    def _load_snapshot(self) -> Optional[Dict]:
        sp = snapshot_path(self.path)
        if not os.path.exists(sp):
            return None
        try:
            with open(sp, encoding="utf-8") as fh:
                snap = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(snap, dict):
            return None
        records = snap.get("records")
        if not isinstance(records, int) or records > len(self.records):
            return None  # snapshot is ahead of the durable log: ignore
        return snap

    @property
    def completed(self) -> Dict[int, Dict]:
        """``request_id -> result state`` for every journalled retirement."""
        done: Dict[int, Dict] = {}
        for rec in self.records:
            if rec.get("kind") == "request.done":
                done[rec["request"]] = rec["result"]
        return done

    @property
    def submits(self) -> Dict[int, Dict]:
        """``request_id -> submit record`` for workload cross-checks."""
        subs: Dict[int, Dict] = {}
        for rec in self.records:
            if rec.get("kind") == "request.submit":
                subs[rec["request"]] = rec
        return subs

    @property
    def complete_run(self) -> bool:
        """Whether the journal reached the run-end record.

        A snapshot on the cadence may legally trail ``run.end`` (the
        final checkpoint), so this scans instead of testing the tail.
        """
        return any(r.get("kind") == "run.end" for r in self.records)
