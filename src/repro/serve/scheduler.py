"""The multi-tenant region scheduler.

One :class:`RegionScheduler` drives many tenants' chunk pipelines over
a shared :class:`~repro.serve.DevicePool`:

- **Admission** is memory-budget-driven: a request enters service only
  when its tuned plan's full device footprint fits the chosen device's
  unreserved budget.  Placement picks the device with the most headroom
  (ties to the lowest index).  An admission index kept across turns
  (fit classes of identically placed requests, lazily aged cohorts;
  see ``docs/serve.md``) makes an admission round cost
  O(classes x devices + cohorts), not O(waiting).
- **Planning** goes through the :class:`~repro.serve.PlanCache`: a hit
  reuses the tuned ``(chunk_size, num_streams)``; a miss runs the
  autotune search (virtual dry runs) and charges a deterministic
  virtual planning cost to the serving device's host clock — which is
  exactly the scheduling overhead warm traffic saves.
- **Fairness** is weighted-fair chunk issue: each scheduling turn
  issues the next chunk of the active region with the smallest
  ``chunks_issued / (priority + 1)`` (ties to admission order), so a
  priority-``p`` tenant gets ``p+1`` issue slots per slot of a
  priority-0 tenant.  Admission order is by *effective* priority with
  starvation aging: every time a fitting request is passed over
  ``aging_every`` times its effective priority rises one step, capped
  at ``max_priority`` — whereupon older requests can no longer be
  overtaken by fitting younger ones (the bound the property tests
  assert).
- **Interleaving** is where the throughput comes from: different
  tenants' H2D/compute/D2H commands queue on the same engines, so a
  transfer-bound region's DMA gaps are filled by a compute-bound
  region's kernels.  ``ServeConfig(max_active=1)`` disables it,
  which is the back-to-back serial baseline the differential tests and
  the throughput benchmark compare against.
- **Sharding**: a request with ``shards > 1`` is placed on up to that
  many in-service devices at once and served by one
  :class:`~repro.core.multidevice.ShardedIssuer` — the region's loop
  split by probed throughput on a shared virtual clock, halo exchange
  and shared-PCIe contention modelled, the plan's footprint reserved
  on every member.  Fewer fitting devices degrade gracefully down to
  ordinary single-device service; a member's death escalates to
  pool-level failover (the whole request re-queues).  On workloads
  with no sharded requests every branch here is inert and the
  schedule bit-identical to the single-device scheduler.

When the pool carries fault injectors the scheduler additionally runs
a **failure-handling state machine** (all of it inert — and the
schedule bit-identical — on fault-free pools):

- **chunk replay in place**: at retirement the issuer's
  :meth:`~repro.core.executor.PipelineIssuer.recover` replays faulted
  chunks under the request's retry budget; one pool-wide
  :class:`~repro.core.executor.FaultRouter` makes sure one tenant's
  recovery never claims another tenant's faults off the shared
  runtime, and feeds the faults it pops to the circuit breaker.
- **failover**: ``DeviceLostError`` is non-terminal at the pool level.
  The dead device is marked lost, its reservations released, and its
  in-flight and waiting requests re-queued (restarting from chunk 0 —
  ring-buffer slots died with the device) to be placed on healthy
  devices; completed migrations report ``migrated=True``.
- **circuit breaker**: ``breaker_threshold`` faults within a sliding
  ``breaker_window`` of a device's virtual time quarantine that device
  for ``breaker_cooldown`` seconds; placement skips it until the
  cooldown expires, then probes it back into service.
- **deadline enforcement**: an in-flight region is cancelled at the
  next chunk boundary once ``elapsed + remaining-chunk lower bound``
  (from the plan's cost model) provably exceeds its deadline, and
  still-waiting requests whose deadline already passed are shed.
- **bounded admission**: ``max_waiting`` caps the queue; overload
  sheds the lowest-effective-priority request deterministically.

Everything is virtual-time deterministic: the loop consults no wall
clock and breaks every tie by submission/admission order, so the same
workload produces the bit-identical schedule, trace, and report every
run.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import os
import time
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.autotune import autotune
from repro.core.executor import FaultRouter, PipelineIssuer
from repro.core.memlimit import MemLimitError, tune_plan
from repro.core.multidevice import ShardedIssuer
from repro.core.plan import RegionPlan
from repro.directives.clauses import DirectiveError
from repro.faults.plan import KIND_DEVICE_LOST, HostCrashError
from repro.faults.policy import FaultPolicy, RegionFailure
from repro.gpu.errors import (
    DeviceLostError,
    InvalidValueError,
    KernelFaultError,
    TransferError,
)
from repro.integrity import INTEGRITY_OFF, validate_integrity
from repro.obs.io import atomic_write_text
from repro.obs.metrics import Histogram
from repro.obs.recorder import FlightRecorder
from repro.obs.telemetry import (
    SLO,
    TelemetrySampler,
    prometheus_text,
    write_telemetry_jsonl,
)
from repro.serve.cache import PlanCache
from repro.serve.journal import (
    JOURNAL_FORMAT,
    JournalError,
    JournalReader,
    JournalWriter,
    encode_record,
    output_store_path,
    snapshot_path,
)
from repro.serve.pool import DevicePool
from repro.serve.request import RegionRequest, RequestResult
from repro.sim.memory import OutOfDeviceMemory

__all__ = ["ServeConfig", "RegionScheduler", "ServeReport"]

#: burn-rate threshold for the ``slo.burn_spike`` event — the classic
#: SRE fast-burn page (2% of a 30-day budget in one hour = 14.4x)
_BURN_SPIKE = 14.4

#: how each request status is announced: ``(event kind, event field
#: carrying the result's error, flight dump reason when the request was
#: in service, dump field carrying the error)``; ``ok`` carries the
#: migration and fault totals instead (see ``RegionScheduler._settle``)
_OUTCOMES: Dict[str, Tuple[str, Optional[str], Optional[str], Optional[str]]] = {
    "ok": ("request.retire", None, None, None),
    "failed": ("request.fail", "error", "region-failure", "error"),
    "shed": ("request.shed", "reason", None, None),
    "cancelled": ("request.cancel", "reason", "deadline-cancel", "cause"),
}


def _describe(exc: Exception) -> str:
    """A result's ``error`` text for an exception."""
    return f"{type(exc).__name__}: {exc}"


@dataclass
class ServeConfig:
    """Scheduler policy knobs (all deterministic).

    Attributes
    ----------
    max_active:
        Maximum regions in service per pool (``None`` = unlimited).
        ``1`` is the serial baseline: each region fully drains before
        the next is admitted.
    aging_every:
        A waiting request's effective priority rises one step each time
        it is passed over this many times while it would have fit.
    max_priority:
        Cap for effective priority; at the cap, a fitting older request
        can no longer be overtaken.
    autotune:
        Tune ``(chunk_size, num_streams)`` by virtual dry runs on cache
        misses.  Off, the request's own pragma parameters are used
        (memory-tuned only).
    plan_charge:
        Virtual seconds charged to the serving device's host clock per
        autotune dry run on a cache miss (the modelled cost of the
        planning work warm traffic skips).
    max_streams:
        Stream-count ceiling for the autotune ladder.
    issue_quantum:
        Chunks issued per scheduling turn for the selected region.
    fault_policy:
        Per-chunk replay policy used when the pool carries fault
        injectors (``None`` = a default :class:`~repro.faults.FaultPolicy`
        when faults are installed; ignored on fault-free pools).
    max_request_retries:
        Total recovery replays (chunk replays + blocking reissues) one
        request may consume across its lifetime, on top of the
        policy's per-chunk cap (``None`` = unlimited).
    breaker_threshold:
        Circuit breaker: quarantine a device after this many faults
        within ``breaker_window`` virtual seconds of its clock.
    breaker_window:
        Sliding window (virtual seconds) for the breaker count.
    breaker_cooldown:
        Quarantine duration (virtual seconds) before the device is
        probed back into service.
    enforce_deadlines:
        Cancel in-flight regions whose deadline is provably
        unreachable (remaining-chunk lower bound) and shed waiting
        requests whose deadline already passed.  Off, deadlines are
        advisory (``deadline_met`` is still recorded).
    max_waiting:
        Admission-queue bound; when full, the lowest-effective-priority
        waiting request is shed deterministically (``None`` = unbounded).
    flight_recorder_capacity:
        Size of the scheduler's bounded flight-recorder ring (events
        kept for post-mortem dumps on device loss, region failure, or
        deadline cancellation).
    integrity:
        Default integrity-verification mode for every request:
        ``"off"`` (default), ``"checksum"`` (chunk-granular transfer
        checksums), or ``"vote"`` (checksums plus dual-execution
        kernel voting).  A request's own ``integrity`` attribute
        overrides it per tenant.  Detected corruptions are recomputed
        in place under the request's retry budget and — on
        single-device service — feed the device's circuit breaker, so
        a device with an elevated silent-corruption rate is
        quarantined exactly like one throwing hard faults.
    straggler_watchdog:
        Enable the sharded-region straggler watchdog: shards' chunk
        completion rates are compared and a shard running slower than
        ``ratio`` of the best has its remaining work re-split over the
        other members (``False`` by default; ``True`` uses
        :class:`~repro.core.multidevice.WatchdogConfig` defaults, or
        pass a ``WatchdogConfig`` to tune it).  Only affects requests
        with ``shards > 1``.
    journal_path:
        Write-ahead journal file for crash-consistent serving
        (``None`` = no journal).  See :mod:`repro.serve.journal` and
        ``docs/serve.md``.
    snapshot_every:
        Checkpoint cadence: write an atomic state snapshot every this
        many journal records (0 = never; requires ``journal_path``).
    crash_after_events:
        Host-crash injection: kill the serve loop with
        :class:`~repro.faults.HostCrashError` once this many journal
        records are durable (``None`` = never).  Overrides any
        ``crash_after_events`` harvested from the pool's fault plans.
    telemetry:
        Enable continuous telemetry: a
        :class:`~repro.obs.TelemetrySampler` aggregates queue depth,
        per-device utilization, memory, PCIe occupancy, cache hit
        rate, breaker state, and request counters into fixed
        virtual-time windows (``report.telemetry`` frames).  Pure
        host-side bookkeeping: every measured result stays
        bit-identical with it on or off.  Implied by
        ``telemetry_path`` or ``slos``.
    telemetry_window:
        Telemetry window length in virtual seconds (> 0).
    telemetry_path:
        Write the telemetry JSONL stream here at the end of the run
        (plus a Prometheus text dump at ``<path>.prom``).
    telemetry_journal:
        Tee per-window ``telemetry.window`` flight-recorder events
        into the write-ahead journal (default off: like
        ``chunk.issue`` they are progress telemetry, regenerated
        deterministically on resume, and would bloat the journal).
    slos:
        Per-tenant :class:`~repro.obs.SLO` objectives (plain dicts
        accepted), usually collected from the workload's ``slo`` keys.
        Enables the SLO engine: rolling per-window compliance, burn
        rate, and error budget per tenant (``report.slo``), with
        ``slo.breach`` / ``slo.burn_spike`` / ``slo.budget_exhausted``
        flight-recorder events.
    """

    max_active: Optional[int] = None
    aging_every: int = 4
    max_priority: int = 8
    autotune: bool = True
    plan_charge: float = 2e-5
    max_streams: int = 4
    issue_quantum: int = 1
    fault_policy: Optional[FaultPolicy] = None
    max_request_retries: Optional[int] = None
    breaker_threshold: int = 3
    breaker_window: float = 0.02
    breaker_cooldown: float = 0.05
    enforce_deadlines: bool = True
    max_waiting: Optional[int] = None
    flight_recorder_capacity: int = 256
    integrity: str = INTEGRITY_OFF
    straggler_watchdog: object = False
    journal_path: Optional[str] = None
    snapshot_every: int = 32
    crash_after_events: Optional[int] = None
    telemetry: bool = False
    telemetry_window: float = 1e-3
    telemetry_path: Optional[str] = None
    telemetry_journal: bool = False
    slos: Optional[Dict[str, SLO]] = None

    def __post_init__(self) -> None:
        validate_integrity(self.integrity)
        if not self.telemetry_window > 0:
            raise InvalidValueError("telemetry_window must be > 0")
        if self.slos is not None:
            if not isinstance(self.slos, dict):
                raise InvalidValueError(
                    "slos must be a {tenant: SLO} mapping (or None)"
                )
            norm: Dict[str, SLO] = {}
            for tenant, slo in self.slos.items():
                try:
                    norm[tenant] = (
                        slo if isinstance(slo, SLO) else SLO.from_dict(slo)
                    )
                except ValueError as exc:
                    raise InvalidValueError(
                        f"slos[{tenant!r}]: {exc}"
                    ) from None
            self.slos = norm
        if self.max_active is not None and self.max_active < 1:
            raise InvalidValueError("max_active must be >= 1 (or None)")
        if self.aging_every < 1:
            raise InvalidValueError("aging_every must be >= 1")
        if self.issue_quantum < 1:
            raise InvalidValueError("issue_quantum must be >= 1")
        if self.plan_charge < 0:
            raise InvalidValueError("plan_charge must be >= 0")
        if self.max_request_retries is not None and self.max_request_retries < 0:
            raise InvalidValueError("max_request_retries must be >= 0 (or None)")
        if self.breaker_threshold < 1:
            raise InvalidValueError("breaker_threshold must be >= 1")
        if self.breaker_window <= 0:
            raise InvalidValueError("breaker_window must be > 0")
        if self.breaker_cooldown < 0:
            raise InvalidValueError("breaker_cooldown must be >= 0")
        if self.max_waiting is not None and self.max_waiting < 1:
            raise InvalidValueError("max_waiting must be >= 1 (or None)")
        if self.flight_recorder_capacity < 1:
            raise InvalidValueError("flight_recorder_capacity must be >= 1")
        if self.snapshot_every < 0:
            raise InvalidValueError("snapshot_every must be >= 0")
        if self.crash_after_events is not None and self.crash_after_events < 1:
            raise InvalidValueError("crash_after_events must be >= 1 (or None)")


@dataclass
class ServeReport:
    """Everything one :meth:`RegionScheduler.run` produced.

    ``makespan`` is the pool's final elapsed virtual time (max over
    devices); per-request details live in ``results`` in submission
    order.
    """

    results: List[RequestResult]
    makespan: float
    device_elapsed: List[float]
    device_peaks: List[int]
    budgets: List[int]
    cache: Dict[str, object]
    plan_seconds: float
    dry_runs: int
    #: per-device health at the end of the run ("ok" / "quarantined" / "lost")
    device_health: List[str] = field(default_factory=list)
    #: per-device circuit-breaker trip counts
    breaker_trips: List[int] = field(default_factory=list)
    #: flight-recorder snapshots produced during the run (device loss,
    #: region failure, deadline cancellation, run-end); excluded from
    #: :meth:`to_dict` — dumps are post-mortem artifacts, not metrics
    flight_dumps: List[Dict] = field(default_factory=list, repr=False)
    #: journal counters when the run carried a write-ahead journal
    #: (path/records/fsyncs/snapshots/resumed/replayed/deduped/
    #: reexecuted); empty without one.  Excluded from :meth:`to_dict`
    #: on purpose — a resumed run's digest must stay byte-identical to
    #: the uninterrupted (and journal-free) run's
    journal: Dict = field(default_factory=dict, repr=False)
    #: per-tenant SLO digest (compliance/budget/burn/breaches); empty
    #: without declared SLOs, and then absent from :meth:`to_dict` so
    #: SLO-free reports stay byte-identical to older builds
    slo: Dict = field(default_factory=dict)
    #: telemetry frames when the run sampled (see
    #: :meth:`repro.obs.TelemetrySampler.finish`); excluded from
    #: :meth:`to_dict` — the frame stream is an artifact with its own
    #: exporters, not part of the report digest
    telemetry: List[Dict] = field(default_factory=list, repr=False)
    #: host wall seconds the sampler spent observing (see
    #: :attr:`repro.obs.TelemetrySampler.wall_s`); never in
    #: :meth:`to_dict` — it is machine-dependent, the report is
    #: deterministic.  The overhead bench gates this.
    telemetry_wall_s: float = field(default=0.0, repr=False)

    @property
    def ok(self) -> bool:
        """Whether every request completed successfully."""
        return all(r.ok for r in self.results)

    def _count(self, status: str) -> int:
        return sum(1 for r in self.results if r.status == status)

    @property
    def failed(self) -> int:
        """Requests that failed terminally."""
        return self._count("failed")

    @property
    def shed(self) -> int:
        """Requests shed while still waiting."""
        return self._count("shed")

    @property
    def cancelled(self) -> int:
        """In-flight requests cancelled at a chunk boundary."""
        return self._count("cancelled")

    @property
    def migrated(self) -> int:
        """Requests that failed over from a lost device."""
        return sum(1 for r in self.results if r.migrated)

    @property
    def deadlines_missed(self) -> int:
        """Deadline-carrying requests that did not provably meet it."""
        return sum(
            1 for r in self.results
            if r.deadline is not None and r.deadline_met is not True
        )

    @property
    def faults(self) -> int:
        """Total faulted commands absorbed across all requests."""
        return sum(r.faults for r in self.results)

    @property
    def retries(self) -> int:
        """Total recovery replays across all requests."""
        return sum(r.retries for r in self.results)

    @property
    def verified(self) -> int:
        """Total integrity checks performed across all requests."""
        return sum(r.verified for r in self.results)

    @property
    def corruptions(self) -> int:
        """Total silent corruptions detected across all requests."""
        return sum(r.corruptions for r in self.results)

    @property
    def resplits(self) -> int:
        """Total sharded-loop re-splits (device loss + stragglers)."""
        return sum(r.resplits for r in self.results)

    @property
    def tenants(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant outcome / fault / failover / deadline counters."""
        out: Dict[str, Dict[str, int]] = {}
        for r in self.results:
            t = out.setdefault(r.tenant, {
                "ok": 0, "failed": 0, "shed": 0, "cancelled": 0,
                "migrated": 0, "deadlines_missed": 0,
                "faults": 0, "retries": 0,
            })
            t[r.status] += 1
            if r.migrated:
                t["migrated"] += 1
            if r.deadline is not None and r.deadline_met is not True:
                t["deadlines_missed"] += 1
            t["faults"] += r.faults
            t["retries"] += r.retries
        return out

    @property
    def tenant_latency(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant latency percentiles over completed requests.

        ``queue_wait`` and ``service`` p50/p95/p99 (nearest-rank, via
        :meth:`~repro.obs.metrics.Histogram.percentile`) for each
        tenant's ``ok`` requests.  Tenants with no completed request
        are omitted.  Deterministic: same workload, same digits.
        """
        waits: Dict[str, Histogram] = {}
        svcs: Dict[str, Histogram] = {}
        for r in self.results:
            if r.status != "ok":
                continue
            waits.setdefault(r.tenant, Histogram("queue_wait")).observe(r.queue_wait)
            svcs.setdefault(r.tenant, Histogram("service")).observe(r.service)
        out: Dict[str, Dict[str, object]] = {}
        for tenant in sorted(waits):
            w, s = waits[tenant], svcs[tenant]
            out[tenant] = {
                "count": w.count,
                "queue_wait": {
                    "p50": w.percentile(50),
                    "p95": w.percentile(95),
                    "p99": w.percentile(99),
                },
                "service": {
                    "p50": s.percentile(50),
                    "p95": s.percentile(95),
                    "p99": s.percentile(99),
                },
            }
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe digest (stable key order for golden comparison)."""
        return {
            "makespan_s": self.makespan,
            "device_elapsed_s": list(self.device_elapsed),
            "device_peak_bytes": [int(p) for p in self.device_peaks],
            "budget_bytes": [int(b) for b in self.budgets],
            "cache": dict(self.cache),
            "plan_seconds": self.plan_seconds,
            "dry_runs": self.dry_runs,
            "requests": [r.to_dict() for r in self.results],
            "failed": self.failed,
            "shed": self.shed,
            "cancelled": self.cancelled,
            "migrated": self.migrated,
            "deadlines_missed": self.deadlines_missed,
            "faults": self.faults,
            "retries": self.retries,
            "verified": self.verified,
            "corruptions": self.corruptions,
            "resplits": self.resplits,
            "device_health": list(self.device_health),
            "breaker_trips": [int(n) for n in self.breaker_trips],
            "tenants": {t: dict(c) for t, c in sorted(self.tenants.items())},
            "tenant_latency": {
                t: dict(d) for t, d in sorted(self.tenant_latency.items())
            },
            **(
                {"slo": {t: dict(d) for t, d in sorted(self.slo.items())}}
                if self.slo else {}
            ),
        }

    def summary(self) -> str:
        """Multi-line human-readable digest."""
        lines = [
            f"requests         {len(self.results)} "
            f"({sum(1 for r in self.results if r.ok)} ok, "
            f"{self.failed} failed, {self.shed} shed, "
            f"{self.cancelled} cancelled)",
            f"makespan         {self.makespan * 1e3:.3f} ms",
            f"plan cache       {self.cache.get('hits', 0)} hit(s), "
            f"{self.cache.get('misses', 0)} miss(es) "
            f"(hit rate {float(self.cache.get('hit_rate', 0.0)):.0%}), "
            f"{self.dry_runs} dry run(s)",
        ]
        if self.journal:
            j = self.journal
            lines.append(
                f"journal          {j.get('records', 0)} record(s), "
                f"{j.get('snapshots', 0)} snapshot(s), "
                f"{j.get('fsyncs', 0)} fsync(s), "
                f"resumed={j.get('resumed', 0)}, "
                f"replayed={j.get('replayed', 0)}, "
                f"deduped={j.get('deduped', 0)}, "
                f"re-executed={j.get('reexecuted', 0)}"
            )
        if any(r.deadline is not None for r in self.results):
            tracked = sum(1 for r in self.results if r.deadline is not None)
            lines.append(
                f"deadlines        {tracked} tracked, "
                f"{self.deadlines_missed} missed"
            )
        if self.migrated or self.faults or any(
            h != "ok" for h in self.device_health
        ):
            lines.append(
                f"fault tolerance  {self.faults} fault(s) absorbed, "
                f"{self.retries} replay(s), {self.migrated} migration(s)"
            )
        if self.verified or self.corruptions:
            lines.append(
                f"integrity        {self.verified} check(s), "
                f"{self.corruptions} corruption(s) detected"
            )
        if self.resplits:
            lines.append(
                f"stragglers       {self.resplits} loop re-split(s)"
            )
        for i, (el, pk, bd) in enumerate(
            zip(self.device_elapsed, self.device_peaks, self.budgets)
        ):
            health = (
                self.device_health[i] if i < len(self.device_health) else "ok"
            )
            tag = f" [{health}]" if health != "ok" else ""
            lines.append(
                f"device {i}         elapsed {el * 1e3:.3f} ms, "
                f"peak {pk / 1e6:.1f} MB of {bd / 1e6:.1f} MB budget{tag}"
            )
        for tenant in sorted(self.slo):
            d = self.slo[tenant]
            lines.append(
                f"slo {tenant:<12.12} target {d['target']:.4%}  "
                f"compliance {d['compliance']:.4%}  "
                f"budget {d['budget']:.0%}  "
                f"max burn {d['max_burn']:.3g}  "
                f"breaches {d['breaches']}"
            )
        latency = self.tenant_latency
        for tenant in sorted(latency):
            d = latency[tenant]
            qw, sv = d["queue_wait"], d["service"]
            lines.append(
                f"tenant {tenant:<10.10} {d['count']:>3} ok  "
                f"wait p50/p95/p99 "
                f"{qw['p50'] * 1e3:.3f}/{qw['p95'] * 1e3:.3f}/"
                f"{qw['p99'] * 1e3:.3f} ms  service "
                f"{sv['p50'] * 1e3:.3f}/{sv['p95'] * 1e3:.3f}/"
                f"{sv['p99'] * 1e3:.3f} ms"
            )
        hdr = (
            f"{'id':>3} {'tenant':<10} {'label':<10} {'prio':>4} {'dev':>3} "
            f"{'wait(ms)':>9} {'service(ms)':>12} {'cache':>5}  status"
        )
        lines.append(hdr)
        for r in self.results:
            status = r.status + (" (migrated)" if r.migrated else "")
            lines.append(
                f"{r.request_id:>3} {r.tenant:<10.10} {r.label:<10.10} "
                f"{r.priority:>4} {r.device:>3} "
                f"{r.queue_wait * 1e3:>9.3f} {r.service * 1e3:>12.3f} "
                f"{'hit' if r.cache_hit else 'miss':>5}  {status}"
            )
        return "\n".join(lines)


#: where a waiting request sits in the admission index (besides a
#: :class:`_FitClass`; ``None`` while it is out of the index)
_UNPLANNED = "unplanned"
_DEFERRED = "deferred"

_seq_of = attrgetter("seq")


def _footprint(planned: Tuple[RegionPlan, int]) -> Tuple[int, int]:
    """``(nbytes, loop trip)`` of one ``(plan, nbytes)`` planning result."""
    plan, nbytes = planned
    return nbytes, plan.loop.stop - plan.loop.start


class _Cohort:
    """Members of one fit class that joined with the same
    ``(priority, passed_over - class rounds)``.

    Their effective priorities stay equal while they wait, so only the
    oldest can be picked.  ``heap`` holds ``(seq, ticket, waiting)``; an
    entry whose ticket is no longer its waiter's is stale and dropped
    when it surfaces.
    """

    __slots__ = ("priority", "offset", "heap", "live")

    def __init__(self, priority: int, offset: int) -> None:
        self.priority = priority
        self.offset = offset
        self.heap: List[Tuple[int, int, "_Waiting"]] = []
        self.live = 0


class _FitClass:
    """Waiting requests planned on every live device with the same
    placement inputs: the shard count and, per device, the footprint
    (and the loop trip, which only a sharded placement reads).

    Every member gets the same placement for any headroom snapshot and
    device order, so an admission round tests the class once.  Aging is
    lazy: ``rounds`` counts the rounds the class fit, so a member was
    passed over once per round since it joined; ``picks`` holds, sorted,
    the seqs picked in those rounds (only those younger than some
    member), so a member was overtaken once per pick younger than
    itself since it joined.
    """

    __slots__ = ("key", "shards", "footprints", "rounds", "picks",
                 "cohorts", "size")

    def __init__(self, key, shards: int, footprints: Dict[int, Tuple[int, int]]) -> None:
        self.key = key
        self.shards = shards
        #: device -> (nbytes, loop trip)
        self.footprints = footprints
        self.rounds = 0
        self.picks: List[int] = []
        self.cohorts: Dict[Tuple[int, int], _Cohort] = {}
        self.size = 0

    def picks_after(self, seq: int) -> int:
        """Picks recorded with a seq younger than ``seq``."""
        return len(self.picks) - bisect.bisect_right(self.picks, seq)


@dataclass(eq=False)
class _Waiting:
    """Bookkeeping for a submitted, not-yet-admitted request (compared
    by identity: membership tests on ``_waiting`` never walk its
    fields)."""

    seq: int
    req: RegionRequest
    passed_over: int = 0
    overtaken: int = 0
    oom_deferred: bool = False
    dry_runs: int = 0
    cache_hit: bool = False
    ever_planned: bool = False
    #: the region bound to the request's arrays, once, at its first plan
    bound: Optional[RegionPlan] = None
    #: device index -> (tuned plan, its device footprint in bytes),
    #: filled lazily by the placement pass
    planned: Dict[int, Tuple[RegionPlan, int]] = field(default_factory=dict)
    #: whether this request was re-queued off a lost device
    migrated: bool = False
    #: faults/replays accumulated on earlier (abandoned) attempts
    faults_seen: int = 0
    retries_used: int = 0
    #: resume: journalled result state when the request already
    #: completed before the crash — it is replayed with stand-in
    #: arrays, never re-executed (exactly-once)
    replay: Optional[Dict] = None
    #: resume: the request's real arrays, to receive the journalled
    #: outputs back from the sidecar store at retirement
    restore: Optional[Dict] = None
    #: resume: the request completed before the crash but must run
    #: again with real payloads (its outputs were never persisted, or
    #: integrity recomputation needs real data); counted, not hidden
    reexecute: bool = False
    #: admission index: the :class:`_FitClass`, ``_UNPLANNED`` or
    #: ``_DEFERRED`` (``None`` out of the index); in a class
    #: ``passed_over``/``overtaken`` are as of ``joined_rounds`` and
    #: ``joined_picks`` (see :meth:`RegionScheduler._materialize`)
    slot: object = field(default=None, repr=False)
    cohort: Optional[_Cohort] = field(default=None, repr=False)
    ticket: Optional[int] = field(default=None, repr=False)
    joined_rounds: int = field(default=0, repr=False)
    joined_picks: int = field(default=0, repr=False)


@dataclass(eq=False)
class _Active:
    """An admitted request with its live pipeline issuer (compared by
    identity: membership tests on ``_active`` never walk its fields)."""

    admit_seq: int
    waiting: _Waiting
    issuer: PipelineIssuer
    device: int
    plan: RegionPlan
    reserved: int
    admit_t: float
    #: member device indices when the region is sharded across several
    #: devices (``None`` = ordinary single-device service; ``device``
    #: is then the primary member and ``reserved`` is per member)
    devices: Optional[List[int]] = None


class RegionScheduler:
    """Deterministic weighted-fair scheduler over a device pool.

    Parameters
    ----------
    pool:
        The shared :class:`~repro.serve.DevicePool`.
    config:
        Policy knobs; defaults to :class:`ServeConfig`'s defaults.
    cache:
        A :class:`~repro.serve.PlanCache` to consult; a private one is
        created when omitted.  Pass a shared instance to model warm
        repeat traffic across :meth:`run` calls.
    """

    def __init__(
        self,
        pool: DevicePool,
        config: Optional[ServeConfig] = None,
        cache: Optional[PlanCache] = None,
        *,
        _resume: Optional[JournalReader] = None,
    ) -> None:
        self.pool = pool
        self.config = config or ServeConfig()
        self.cache = cache if cache is not None else PlanCache()
        self.obs = pool.obs
        self._waiting: List[_Waiting] = []
        # the admission index over _waiting (see _index): every waiting
        # request sits in exactly one of these between admission rounds
        #: non-lost devices, in index order (fit-class keys follow it)
        self._live: Tuple[int, ...] = tuple(
            i for i in range(len(pool)) if not pool.is_lost(i)
        )
        self._classes: Dict[tuple, _FitClass] = {}
        #: not yet planned on every live device, in waiting (seq) order
        self._unplanned: List[_Waiting] = []
        self._deferred: List[_Waiting] = []
        self._tickets = 0
        #: in-service regions, always in increasing ``admit_seq`` (only
        #: ever appended at admission; removals keep the order)
        self._active: List[_Active] = []
        #: weighted-fair issue heap of ``(key, admit_seq, active)``: one
        #: entry per active region with chunks left, plus stale entries
        #: of regions that left service, dropped when they surface
        self._issue_heap: List[Tuple[float, int, _Active]] = []
        #: whether any submitted request carries a deadline
        self._deadlines = False
        self._results: List[RequestResult] = []
        self._seq = 0
        self._admit_seq = 0
        self.plan_seconds = 0.0
        self.dry_runs = 0
        # fault-tolerance state (inert on fault-free pools)
        self._policy: Optional[FaultPolicy] = self.config.fault_policy
        self._fault_mode = False
        n = len(pool)
        #: per-device recent fault times (sliding breaker window)
        self._fault_times: List[List[float]] = [[] for _ in range(n)]
        #: per-device quarantine expiry on that device's clock (None = in service)
        self._quarantined_until: List[Optional[float]] = [None] * n
        self._breaker_trips: List[int] = [0] * n
        #: every issuer claims its faults through this router
        self._router = FaultRouter(on_fault=self._on_fault)
        #: bounded post-mortem event ring; dumped on failures
        self.recorder = FlightRecorder(
            capacity=self.config.flight_recorder_capacity, clock=self._clock
        )
        # continuous telemetry (pure host bookkeeping; never touches
        # the simulators, so results are bit-identical on or off)
        cfg = self.config
        self._sampler: Optional[TelemetrySampler] = None
        if cfg.telemetry or cfg.telemetry_path is not None or cfg.slos:
            self._sampler = TelemetrySampler(
                cfg.telemetry_window,
                slos=cfg.slos,
                on_window=self._on_telemetry_window,
            )
            self._register_gauges()
        # write-ahead journal (crash consistency; see repro.serve.journal)
        self._journal: Optional[JournalWriter] = None
        self._resumed = _resume is not None
        self._deduped = 0
        self._reexecuted = 0
        if self.config.journal_path is not None:
            crash = self.config.crash_after_events
            if _resume is None and crash is None:
                # harvest a hostcrash chaos profile installed on the pool;
                # a resumed run deliberately ignores it (re-arming the
                # same crash index would make resume loop forever)
                crash = pool.crash_after_events
            self._journal = JournalWriter(
                self.config.journal_path,
                snapshot_every=self.config.snapshot_every,
                crash_after_events=crash,
                resume_lines=_resume.lines if _resume is not None else None,
            )
            self._journal.snapshot_fn = self.checkpoint
            self._journal.append(self._header_record())
            self.recorder.sink = self._journal_sink

    # ------------------------------------------------------------------
    # continuous telemetry
    # ------------------------------------------------------------------
    def _register_gauges(self) -> None:
        """Register the sampler's gauge sources.

        All of them read scheduler/pool host state that is constant
        while a simulator advances, so samples are identical whether a
        window closes from the retirement clock hook (mid-drain) or
        from the scheduler loop — the hook-timing independence the
        determinism tests pin.
        """
        s = self._sampler
        s.register_gauge("serve.queue_depth", lambda: len(self._waiting))
        s.register_gauge("serve.active", lambda: len(self._active))
        s.register_gauge(
            "serve.cache.hit_rate",
            lambda: float(self.cache.stats()["hit_rate"]),
        )
        s.register_gauge(
            "serve.corruptions",
            lambda: sum(r.corruptions for r in self._results)
            + sum(a.issuer.corruptions_n for a in self._active),
        )
        pool = self.pool
        for i in range(len(pool)):
            s.register_gauge(
                f"dev{i}.mem_used_bytes", lambda i=i: pool.data_used(i)
            )
            s.register_gauge(
                f"dev{i}.mem_peak_bytes", lambda i=i: pool.data_peak(i)
            )
            s.register_gauge(
                f"dev{i}.link_sharers", lambda i=i: pool.link_sharers(i)
            )
            s.register_gauge(
                f"dev{i}.breaker", lambda i=i: self._breaker_state(i)
            )

    def _breaker_state(self, device: int) -> int:
        """Gauge encoding of device health: 0 ok, 1 quarantined, 2 lost."""
        if self.pool.is_lost(device):
            return 2
        if self._quarantined_until[device] is not None:
            return 1
        return 0

    def _on_telemetry_window(
        self, index: int, t_end: float, gauges: Dict[str, float]
    ) -> None:
        """Per-window flight-recorder breadcrumb (capacity-bounded)."""
        self.recorder.record(
            "telemetry.window",
            t=t_end,
            window=index,
            queue=gauges.get("serve.queue_depth"),
            active=gauges.get("serve.active"),
        )

    def _harvest_telemetry(self, a: _Active) -> None:
        """Feed a finished region's busy intervals into the sampler.

        Per-device ``h2d``/``d2h``/``kernel`` channels; a sharded
        region's commands are attributed to the member device that ran
        them (via each shard's runtime).  Intervals carry explicit
        times, so harvesting at retirement — after the windows they
        fall into may have closed — is exact.
        """
        s = self._sampler
        if s is None:
            return
        t0 = time.perf_counter()
        if a.devices:
            rt_dev = {id(rt): i for i, rt in enumerate(self.pool.runtimes)}
            groups = [
                (rt_dev.get(id(sh.runtime), a.device), sh.issuer.commands)
                for sh in a.issuer._shards
            ]
        else:
            groups = [(a.device, a.issuer.commands)]
        for di, commands in groups:
            for cmd in commands:
                if cmd.state == "done" and cmd.kind in ("h2d", "d2h", "kernel"):
                    s.add_interval(
                        f"dev{di}.{cmd.kind}", cmd.start_time, cmd.finish_time
                    )
        s.wall_s += time.perf_counter() - t0

    def _emit_slo_events(self, frames: List[Dict]) -> None:
        """Record SLO breach / burn-spike / budget-exhaustion events.

        One ``slo.breach`` per breached window, one ``slo.burn_spike``
        per window whose burn rate reaches :data:`_BURN_SPIKE` (the SRE
        fast-burn page threshold), and one ``slo.budget_exhausted`` per
        tenant at the first window whose error budget hits zero.  All
        carry explicit window-end times, regenerate deterministically,
        and land before the run-end flight dump (and in the journal,
        when one is attached).
        """
        slos = self.config.slos or {}
        exhausted = set()
        for i, frame in enumerate(frames):
            t_end = frame["t1_s"]
            for tenant in sorted(frame.get("slo", {})):
                cell = frame["slo"][tenant]
                target = slos[tenant].target
                if cell["total"] and cell["compliance"] < target:
                    self.recorder.record(
                        "slo.breach",
                        t=t_end,
                        tenant=tenant,
                        window=i,
                        compliance=cell["compliance"],
                        target=target,
                        burn=cell["burn"],
                    )
                if cell["burn"] >= _BURN_SPIKE:
                    self.recorder.record(
                        "slo.burn_spike",
                        t=t_end,
                        tenant=tenant,
                        window=i,
                        burn=cell["burn"],
                    )
                if cell["budget"] <= 0.0 and tenant not in exhausted:
                    exhausted.add(tenant)
                    self.recorder.record(
                        "slo.budget_exhausted",
                        t=t_end,
                        tenant=tenant,
                        window=i,
                        bad=cell["bad"],
                    )

    # ------------------------------------------------------------------
    # journal: checkpoint and resume
    # ------------------------------------------------------------------
    def _journal_sink(self, ev: Dict) -> None:
        """Tee a flight-recorder event into the write-ahead journal.

        ``chunk.issue`` is per-turn progress telemetry, not a
        control-plane state transition: replay regenerates it
        deterministically and any divergence it could reveal is caught
        at the next journalled transition's byte-compare.  Filtering it
        keeps the journal compact — its volume stays proportional to
        requests, not chunks.  ``telemetry.window`` is filtered for the
        same reason (volume proportional to windows) unless
        ``telemetry_journal`` opts into crash-consistent telemetry;
        the ``slo.*`` events are always journalled — they regenerate
        deterministically on resume and the byte-compare vouches for
        the SLO state.
        """
        kind = ev.get("kind")
        if kind == "chunk.issue":
            return
        if kind == "telemetry.window" and not self.config.telemetry_journal:
            return
        self._journal.append(ev)
    def _header_record(self) -> Dict:
        """Journal record 0: environment + config fingerprint.

        A resumed run regenerates it and the byte-compare rejects a
        journal taken under different devices, budgets, payload mode,
        or policy knobs.  ``journal_path`` and ``crash_after_events``
        are excluded — they are where/how the journal is kept, not what
        the run computes — as is ``telemetry_path`` (where the frame
        stream lands, not what it contains).
        """
        from dataclasses import fields as _fields

        skip = {"journal_path", "crash_after_events", "telemetry_path"}
        conf: Dict[str, object] = {}
        for f in _fields(self.config):
            if f.name in skip:
                continue
            v = getattr(self.config, f.name)
            if not isinstance(v, (bool, int, float, str, type(None))):
                v = repr(v)
            conf[f.name] = v
        return {
            "kind": "journal.header",
            "format": JOURNAL_FORMAT,
            "devices": [p.name for p in self.pool.profiles],
            "budgets": [int(b) for b in self.pool.budgets],
            "virtual": all(rt.virtual for rt in self.pool.runtimes),
            "config": conf,
        }

    def checkpoint(self) -> Dict:
        """Package the scheduler's full mutable state, JSON-safe.

        With a journal attached the snapshot is atomically written to
        the ``<journal>.snap.json`` sidecar and its digest journalled
        as a ``journal.snapshot`` record — during a resume the digest
        is regenerated and byte-compared, which is the proof that this
        state is reconstructed exactly at every cadence point.
        """
        for w in self._waiting:
            self._materialize(w)
        state: Dict[str, object] = {
            "clock": self._clock(),
            "seq": self._seq,
            "admit_seq": self._admit_seq,
            "waiting": [
                [w.seq, w.req.tenant, w.req.label, w.req.priority,
                 self._effective_priority(w), w.passed_over, w.overtaken,
                 bool(w.oom_deferred), bool(w.migrated),
                 w.faults_seen, w.retries_used]
                for w in self._waiting
            ],
            "active": [
                [a.waiting.seq, a.admit_seq, a.device,
                 list(a.devices) if a.devices else None,
                 int(a.reserved), a.issuer.issued, a.issuer.remaining,
                 a.issuer.retries_n]
                for a in self._active
            ],
            "completed": sorted(r.request_id for r in self._results),
            "reserved": [int(b) for b in self.pool.reserved],
            "health": list(self.pool.health),
            "quarantined_until": list(self._quarantined_until),
            "breaker_windows": [list(ts) for ts in self._fault_times],
            "breaker_trips": list(self._breaker_trips),
            "cache": {
                "entries": self.cache.dump_entries(),
                **self.cache.stats(),
            },
            "plan_seconds": self.plan_seconds,
            "dry_runs": self.dry_runs,
            "device_elapsed": [rt.elapsed for rt in self.pool.runtimes],
        }
        if self._journal is not None:
            text = encode_record(state)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
            hwm = self._journal.records
            # encode_record({"digest", "records", "state"}) built around
            # the one encoding of ``state`` (keys in sorted order)
            atomic_write_text(
                snapshot_path(self._journal.path),
                f'{{"digest":"{digest}","records":{hwm},"state":{text}}}',
            )
            self.recorder.record("journal.snapshot", records=hwm, digest=digest)
        return state

    def _journal_done(self, result: RequestResult) -> None:
        """Journal a request's terminal outcome, full fidelity.

        This is the exactly-once commit point: a resume treats every
        ``request.done`` record as settled and never re-executes the
        request (completed-``ok`` outputs come back from the sidecar
        store instead).
        """
        if self._journal is None:
            return
        self._journal.append({
            "kind": "request.done",
            "request": result.request_id,
            "status": result.status,
            "result": result.to_state(),
        })

    def _save_outputs(self, seq: int, req) -> None:
        """Persist a completed request's written arrays to the store.

        Only arrays a ``from``/``tofrom`` clause writes back are saved —
        input-only arrays are never mutated by the run, so on resume the
        caller's own copies are already exact.
        """
        import numpy as np

        region = req.region
        written = {c.var for c in region.pipeline_maps if c.is_output}
        written |= {
            c.var for c in region.maps if c.direction in ("from", "tofrom")
        }
        payload = {
            k: v for k, v in req.arrays.items()
            if k in written and isinstance(v, np.ndarray)
        }
        if not payload:
            return  # virtual payloads: nothing to persist, nothing lost
        # one raw .npy per array: ~4x cheaper than a .npz bundle (no
        # zip framing/CRC), and the journal record that marks the
        # request done is only appended after every save returned
        rdir = os.path.join(output_store_path(self._journal.path), f"r{seq}")
        os.makedirs(rdir, exist_ok=True)
        for k, v in payload.items():
            np.save(os.path.join(rdir, f"{k}.npy"), v)

    def _restore_outputs(self, w: _Waiting) -> None:
        """Copy journalled outputs back into the request's real arrays."""
        import numpy as np

        rdir = os.path.join(
            output_store_path(self._journal.path), f"r{w.seq}"
        )
        for k, arr in w.restore.items():
            path = os.path.join(rdir, f"{k}.npy")
            if isinstance(arr, np.ndarray) and os.path.exists(path):
                np.copyto(arr, np.load(path))

    @classmethod
    def resume(
        cls,
        path: str,
        pool: DevicePool,
        requests,
        *,
        config: Optional[ServeConfig] = None,
        cache: Optional[PlanCache] = None,
    ) -> "RegionScheduler":
        """Rebuild a scheduler from journal ``path`` ready to re-run.

        The caller supplies the same workload and an equivalent pool;
        the journal is replayed by *verified re-simulation*: the run
        restarts from virtual t=0, every regenerated record is
        byte-compared against the stored prefix (any divergence raises
        :class:`~repro.serve.JournalError`), requests the journal marks
        complete are replayed with metadata-only stand-in arrays and
        their outputs restored from the sidecar store (exactly-once),
        and in-flight regions restart and re-run their pipelines —
        chunk replay going through the issuers'
        :meth:`~repro.core.executor.PipelineIssuer.recover` machinery
        exactly as in the original run.  Call :meth:`run` on the
        result; its report is byte-identical to the uninterrupted run's.
        """
        import numpy as np

        from repro.sim.varray import VirtualArray

        reader = JournalReader(path)
        cfg = dc_replace(config or ServeConfig(), journal_path=path)
        sched = cls(pool, cfg, cache, _resume=reader)
        requests = list(requests)
        for seq, rec in sorted(reader.submits.items()):
            if seq >= len(requests):
                raise JournalError(
                    f"journal knows request {seq} but only "
                    f"{len(requests)} request(s) were supplied"
                )
            req = requests[seq]
            got = (req.tenant, req.label, req.priority)
            want = (rec["tenant"], rec.get("label", ""), rec["priority"])
            if got != want:
                raise JournalError(
                    f"workload mismatch at request {seq}: journal holds "
                    f"{want!r}, caller supplied {got!r}"
                )
        completed = reader.completed
        store = output_store_path(path)
        sched.submit_all(requests)
        for w in sched._waiting:
            state = completed.get(w.seq)
            if state is None:
                continue
            if state["status"] != "ok":
                # failed/cancelled/shed: not settled work — re-run with
                # real payloads so partial effects are reproduced
                continue
            arrays = w.req.arrays
            if not any(isinstance(a, np.ndarray) for a in arrays.values()):
                w.replay = state  # already virtual: trivially deduped
                continue
            rdir = os.path.join(store, f"r{w.seq}")
            if int(state.get("corruptions", 0)) == 0 and os.path.isdir(rdir):
                # exactly-once: replay with stand-in arrays, restore the
                # journalled outputs at retirement
                w.restore = arrays
                shadow = {
                    k: VirtualArray(a.shape, a.dtype)
                    if isinstance(a, np.ndarray) else a
                    for k, a in arrays.items()
                }
                w.req = dc_replace(w.req, arrays=shadow)
                w.replay = state
            else:
                # detected-corruption recomputation altered the timeline
                # through real data, or the outputs were never persisted:
                # honest re-execution, counted in ``reexecuted``
                w.reexecute = True
        return sched

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, request: RegionRequest) -> int:
        """Queue a request; returns its request id (submission order).

        With ``max_waiting`` set, submitting to a full queue sheds the
        lowest-effective-priority request (the incoming one included;
        ties shed the youngest) — deterministic load shedding.
        """
        seq = self._seq
        self._seq += 1
        w = _Waiting(seq=seq, req=request)
        if request.deadline is not None:
            self._deadlines = True
        self.recorder.record(
            "request.submit",
            request=seq,
            tenant=request.tenant,
            label=request.label,
            priority=request.priority,
        )
        if self._sampler is not None:
            t = self._clock()
            self._sampler.inc("serve.submitted", t)
            self._sampler.slo.submit(request.tenant, t)
        limit = self.config.max_waiting
        if limit is not None and len(self._waiting) >= limit:
            victim = min(
                self._waiting + [w],
                key=lambda x: (self._effective_priority(x), -x.seq),
            )
            if victim is not w:
                self._waiting.append(w)
                self._index(w)
            self._settle_waiting(
                victim, "shed", f"admission queue full (max_waiting={limit})"
            )
        else:
            self._waiting.append(w)
            self._index(w)
        return seq

    def submit_all(self, requests) -> List[int]:
        """Queue many requests in order; returns their ids."""
        return [self.submit(r) for r in requests]

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _limit_for(self, req: RegionRequest, device: int) -> int:
        """Memory limit for planning: explicit clause, else the budget."""
        if req.region.mem_limit is not None:
            return min(req.region.mem_limit.limit_bytes, self.pool.budgets[device])
        return self.pool.budgets[device]

    def _plan(self, w: _Waiting, device: int) -> Tuple[RegionPlan, int]:
        """Tuned plan for ``w`` on ``device`` and its device footprint
        (both cached per device, so the footprint is computed once).

        Cache misses run the autotune search and record its dry-run
        count; the virtual planning charge is applied at admission.
        """
        planned = w.planned.get(device)
        if planned is not None:
            return planned
        req = w.req
        rt = self.pool.runtimes[device]
        limit = self._limit_for(req, device)
        bound = w.bound
        if bound is None:
            bound = w.bound = req.region.bind(req.arrays)
        key = PlanCache.key_for(bound, req.kernel, rt.profile.name, limit)
        params = self.cache.get(key)
        if params is not None:
            plan = tune_plan(bound.with_params(*params), limit)
            if not w.ever_planned:
                w.cache_hit = True
        else:
            if not w.ever_planned:
                w.cache_hit = False
            if self.config.autotune:
                clause = req.region.mem_limit
                report = autotune(
                    bound, rt, req.arrays, req.kernel,
                    mem_limit=None if clause is None else clause.limit_bytes,
                    max_streams=self.config.max_streams,
                )
                w.dry_runs += report.dry_runs
                self.dry_runs += report.dry_runs
                plan = tune_plan(
                    bound.with_params(
                        report.best.chunk_size, report.best.num_streams
                    ),
                    limit,
                )
            else:
                plan = tune_plan(bound, limit)
            self.cache.put(key, plan.chunk_size, plan.num_streams)
        w.ever_planned = True
        planned = w.planned[device] = (plan, plan.device_bytes())
        return planned

    # ------------------------------------------------------------------
    # device health: loss, quarantine, fault routing
    # ------------------------------------------------------------------
    def _in_service(self, device: int) -> bool:
        """Whether placement may use ``device`` right now.

        Lost devices never return; a quarantined device is probed back
        into service once its own clock passes the quarantine expiry.
        """
        if self.pool.is_lost(device):
            return False
        until = self._quarantined_until[device]
        if until is not None:
            if self.pool.runtimes[device].elapsed >= until:
                # cooldown over: probe the device back into service
                self._quarantined_until[device] = None
                self._fault_times[device] = []
                self.recorder.record(
                    "breaker.close",
                    t=self.pool.runtimes[device].elapsed,
                    device=device,
                )
                if self.obs.metrics.enabled:
                    self.obs.metrics.counter("serve.breaker.closes").inc()
            else:
                return False
        return True

    def _record_device_fault(
        self, device: int, t: float, *, cause: str = "fault"
    ) -> None:
        """Feed one fault into the device's circuit-breaker window.

        ``cause`` is ``"fault"`` for hard faults (the historical path)
        or ``"corruption"`` for detected silent corruptions; both
        count toward the same breaker threshold, so a device with an
        elevated SDC rate is quarantined like a hard-faulting one.
        Corruption-driven trips record a ``"quarantine"`` event
        (the corruptions themselves are already in the ring).
        """
        cfg = self.config
        times = self._fault_times[device]
        times.append(t)
        if cause == "fault":
            self.recorder.record("device.fault", t=t, device=device)
        cutoff = t - cfg.breaker_window
        while times and times[0] < cutoff:
            times.pop(0)
        if (
            len(times) >= cfg.breaker_threshold
            and self._quarantined_until[device] is None
        ):
            rt = self.pool.runtimes[device]
            self._quarantined_until[device] = rt.elapsed + cfg.breaker_cooldown
            self._breaker_trips[device] += 1
            times.clear()
            self.recorder.record(
                "quarantine" if cause == "corruption" else "breaker.trip",
                t=rt.elapsed,
                device=device,
                until=self._quarantined_until[device],
            )
            if self.obs.metrics.enabled:
                self.obs.metrics.counter("serve.breaker.trips").inc()
            if self.obs.tracer.enabled:
                self.obs.tracer.instant(
                    f"breaker:dev{device}", "serve",
                    device=device, until=self._quarantined_until[device],
                )

    def _on_fault(self, rt, cmd) -> None:
        """Fault-router hook: a popped fault counts toward its device's
        breaker (device loss has its own failover path)."""
        err = cmd.error
        if err is not None and err.kind != KIND_DEVICE_LOST:
            self._record_device_fault(
                self.pool.runtimes.index(rt), cmd.finish_time
            )

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _integrity_for(self, req: RegionRequest) -> str:
        """Effective integrity mode: the request's override, else the
        pool-wide ``ServeConfig.integrity`` default."""
        return (
            req.integrity if req.integrity is not None
            else self.config.integrity
        )

    def _effective_priority(self, w: _Waiting) -> int:
        self._materialize(w)
        return min(
            w.req.priority + w.passed_over // self.config.aging_every,
            self.config.max_priority,
        )

    # -- the admission index.  Between rounds every waiting request sits
    # -- in one place: the deferred list (oom_deferred), its fit class
    # -- (planned on every live device) or the unplanned list.  Every
    # -- change to _waiting goes through _index/_unindex (via _drop,
    # -- _defer, _undefer, _reindex), so a round never rescans the queue
    def _index(self, w: _Waiting) -> None:
        """Enter a waiting request (currently out of the index)."""
        if w.oom_deferred:
            w.slot = _DEFERRED
            self._deferred.append(w)
        elif all(di in w.planned for di in self._live):
            self._join(w)
        else:
            w.slot = _UNPLANNED
            bisect.insort(self._unplanned, w, key=_seq_of)

    def _join(self, w: _Waiting) -> None:
        """Put a request planned on every live device in its fit class
        and cohort."""
        shards = w.req.shards
        footprints = {di: _footprint(w.planned[di]) for di in self._live}
        key = (
            shards,
            tuple(nb for nb, _trip in footprints.values()),
            tuple(trip for _nb, trip in footprints.values()) if shards > 1 else None,
        )
        c = self._classes.get(key)
        if c is None:
            c = self._classes[key] = _FitClass(key, shards, footprints)
        ckey = (w.req.priority, w.passed_over - c.rounds)
        cohort = c.cohorts.get(ckey)
        if cohort is None:
            cohort = c.cohorts[ckey] = _Cohort(*ckey)
        self._tickets += 1
        w.ticket = self._tickets
        heapq.heappush(cohort.heap, (w.seq, w.ticket, w))
        cohort.live += 1
        c.size += 1
        w.slot, w.cohort = c, cohort
        w.joined_rounds, w.joined_picks = c.rounds, c.picks_after(w.seq)

    def _materialize(self, w: _Waiting) -> None:
        """Bring a class member's ``passed_over`` and ``overtaken`` up to
        date (outside a class they are kept eagerly)."""
        c = w.slot
        if not isinstance(c, _FitClass):
            return
        after = c.picks_after(w.seq)
        w.passed_over += c.rounds - w.joined_rounds
        w.overtaken += after - w.joined_picks
        w.joined_rounds, w.joined_picks = c.rounds, after

    def _unindex(self, w: _Waiting) -> None:
        """Take a request out of the index, its aging materialized."""
        slot = w.slot
        if slot is None:
            return
        if slot is _UNPLANNED:
            self._unplanned.remove(w)
        elif slot is _DEFERRED:
            self._deferred.remove(w)
        else:
            self._materialize(w)
            cohort = w.cohort
            cohort.live -= 1
            if not cohort.live:
                del slot.cohorts[(cohort.priority, cohort.offset)]
            slot.size -= 1
            if not slot.size:
                del self._classes[slot.key]
            w.cohort = w.ticket = None
        w.slot = None

    def _drop(self, w: _Waiting) -> None:
        """Remove a request from the queue for good (fail / shed)."""
        self._unindex(w)
        if w in self._waiting:
            self._waiting.remove(w)

    def _defer(self, w: _Waiting) -> None:
        """Hold the pick (out of the index) whose allocation failed on a
        fragmented device out of admission until memory is released."""
        w.oom_deferred = True
        self._index(w)

    def _undefer(self) -> None:
        """Memory was released: deferred requests may fit again."""
        deferred, self._deferred = self._deferred, []
        for w in deferred:
            w.oom_deferred = False
            w.slot = None
            self._index(w)

    def _reindex(self) -> None:
        """Rebuild the index from ``_waiting``: a device was lost, so the
        live set, and with it every class key, changed."""
        for w in self._waiting:
            self._materialize(w)
            w.slot = w.cohort = w.ticket = None
        pool = self.pool
        self._live = tuple(i for i in range(len(pool)) if not pool.is_lost(i))
        self._classes, self._unplanned, self._deferred = {}, [], []
        for w in self._waiting:
            self._index(w)

    @staticmethod
    def _head(cohort: _Cohort) -> _Waiting:
        """A cohort's oldest member (stale entries dropped on the way)."""
        heap = cohort.heap
        while True:
            _seq, ticket, w = heap[0]
            if w.ticket == ticket:
                return w
            heapq.heappop(heap)

    @staticmethod
    def _place(
        shards: int,
        footprint: Callable[[int], Tuple[int, int]],
        order: List[int],
        headroom: List[int],
    ) -> Optional[Tuple[int, int, Optional[List[int]]]]:
        """``(device, plan device, members)`` for a request, or None if
        it fits nowhere; ``footprint(di)`` is ``(nbytes, loop trip)`` of
        its plan for device ``di``, and ``members`` is None for ordinary
        single-device service.

        A ``shards > 1`` request takes up to ``shards`` devices of the
        order whose headroom fits the footprint planned for the order's
        first device, capped at the loop trip (each shard needs an
        iteration).  Fewer than two such members degrade to ordinary
        placement: the first device of the order whose headroom fits
        its own footprint.
        """
        if shards > 1 and order:
            nbytes, trip = footprint(order[0])
            members = [di for di in order if nbytes <= headroom[di]]
            members = members[: max(1, min(shards, trip))]
            if len(members) >= 2:
                return members[0], order[0], members
        for di in order:
            if footprint(di)[0] <= headroom[di]:
                return di, di, None
        return None

    def _pick(self):
        """One admission round's pick: ``(placement, fit_classes,
        fit_unplanned)``, or None when nothing fits.

        ``placement`` is ``(waiting, device, plan, nbytes, members)`` for
        the fitting request with the highest ``(effective priority,
        -seq)``; the two fit lists are what :meth:`_age` charges.
        Nothing in a round reserves or releases memory, so the device
        order (in service, most headroom first, ties to the lowest
        index) and the headroom snapshot are taken once, and only when
        some request is not deferred, because :meth:`_in_service` may
        close a breaker (and record it) right there.

        The unplanned list is walked in waiting order with the
        per-request placement, so ``_plan`` sees exactly the (request,
        device) pairs, in the order, that a scan of the whole queue
        would plan; a request that ends up planned on every live device
        joins its class and is tested with it.  Each fitting class
        offers the oldest member of each of its cohorts.
        """
        if len(self._waiting) == len(self._deferred):
            return None
        pool = self.pool
        headroom = [pool.headroom(i) for i in range(len(pool))]
        order = sorted(
            (i for i in range(len(pool)) if self._in_service(i)),
            key=lambda i: (-headroom[i], i),
        )
        every, cap = self.config.aging_every, self.config.max_priority
        best, best_key = None, None
        fit_unplanned: List[_Waiting] = []
        joined = False
        for w in list(self._unplanned):
            try:
                placed = self._place(
                    w.req.shards,
                    lambda di, w=w: _footprint(self._plan(w, di)),
                    order,
                    headroom,
                )
            except (MemLimitError, DirectiveError) as exc:
                self._settle_waiting(w, "failed", _describe(exc))
                continue
            if all(di in w.planned for di in self._live):
                self._join(w)  # tested with its class below
                joined = True
            elif placed is not None:
                fit_unplanned.append(w)
                key = (min(w.req.priority + w.passed_over // every, cap), -w.seq)
                if best_key is None or key > best_key:
                    best, best_key = (w, placed), key
        if joined:
            self._unplanned = [w for w in self._unplanned if w.slot is _UNPLANNED]
        fit_classes: List[Tuple[_FitClass, int]] = []
        for c in self._classes.values():
            placed = self._place(c.shards, c.footprints.__getitem__, order, headroom)
            if placed is None:
                continue
            oldest = None
            for cohort in c.cohorts.values():
                w = self._head(cohort)
                if oldest is None or w.seq < oldest:
                    oldest = w.seq
                key = (
                    min(cohort.priority + (cohort.offset + c.rounds) // every, cap),
                    -w.seq,
                )
                if best_key is None or key > best_key:
                    best, best_key = (w, placed), key
            fit_classes.append((c, oldest))
        if best is None:
            return None
        w, (device, plan_device, members) = best
        plan, nbytes = w.planned[plan_device]
        return (w, device, plan, nbytes, members), fit_classes, fit_unplanned

    @staticmethod
    def _age(
        w: _Waiting,
        fit_classes: List[Tuple[_FitClass, int]],
        fit_unplanned: List[_Waiting],
    ) -> None:
        """Starvation accounting for every fitting request the pick
        ``w`` (already out of the index) passed over: each fitting class
        counts one more round and records the pick if it is younger
        than some member."""
        seq = w.seq
        for c, oldest in fit_classes:
            c.rounds += 1
            if seq > oldest:
                bisect.insort(c.picks, seq)
        for other in fit_unplanned:
            if other is not w:
                other.passed_over += 1
                if other.seq < seq:
                    other.overtaken += 1

    def _admit(self) -> bool:
        """Admit fitting requests by effective priority; True if any."""
        cfg = self.config
        admitted_any = False
        while self._waiting:
            if cfg.max_active is not None and len(self._active) >= cfg.max_active:
                break
            picked = self._pick()
            if picked is None:
                break
            placement, fit_classes, fit_unplanned = picked
            w = placement[0]
            self._unindex(w)  # the pick itself is not passed over
            self._age(w, fit_classes, fit_unplanned)
            # a failed open re-enters w itself if it stays waiting
            # (_defer, or _device_lost's _reindex)
            if self._open(*placement):
                admitted_any = True
        return admitted_any

    def _enlist(self, a: _Active) -> None:
        """Put an opened region in service and in the issue heap."""
        self._active.append(a)
        self._admit_seq += 1
        self._push_issuable(a)

    def _open(
        self,
        w: _Waiting,
        device: int,
        plan: RegionPlan,
        nbytes: int,
        members: Optional[List[int]] = None,
    ) -> bool:
        """Reserve, charge planning, and open the pipeline for ``w``.

        With two or more ``members`` (``device`` first) the region is
        sharded: its loop is split over the member devices by probed
        throughput on a shared virtual clock (halo exchange and shared
        PCIe contention modelled by the :class:`ShardedIssuer`), and the
        plan's full footprint is reserved on each member.  Device loss
        is *not* self-healed there — it escalates to pool-level failover
        so the whole request re-queues onto healthy devices.
        """
        sharded = members is not None and len(members) > 1
        members = list(members) if sharded else [device]
        rt = self.pool.runtimes[device]
        reserved: List[int] = []
        try:
            for di in members:
                self.pool.reserve(di, nbytes)
                reserved.append(di)
        except Exception:
            for di in reserved:
                self.pool.release(di, nbytes)
            raise
        admit_t = rt.elapsed
        if w.dry_runs:
            charge = w.dry_runs * self.config.plan_charge
            rt.host_now += charge
            self.plan_seconds += charge
            w.dry_runs = 0  # charge once
        policy = self._policy if self._fault_mode else None
        common = dict(
            policy=policy, router=self._router, recorder=self.recorder,
            integrity=self._integrity_for(w.req),
        )
        issuer = None
        try:
            if sharded:
                issuer = ShardedIssuer(
                    [self.pool.runtimes[di] for di in members],
                    plan, w.req.arrays, w.req.kernel,
                    stream_prefix=f"t{w.seq}.shard",
                    self_heal=False,
                    measure=False,
                    watchdog=self.config.straggler_watchdog,
                    **common,
                )
            else:
                issuer = PipelineIssuer(
                    rt, plan, w.req.arrays, w.req.kernel,
                    stream_prefix=f"t{w.seq}.pipe", region_span=False,
                    **common,
                )
            issuer.open()
        except HostCrashError:
            raise  # the injected host crash must not become a request failure
        except Exception as exc:
            # a constructor error fails the request; open() errors
            # first tear the half-open pipeline down
            if issuer is not None:
                issuer.abort()
            for di in members:
                self.pool.release(di, nbytes)
            if issuer is not None and isinstance(exc, OutOfDeviceMemory):
                # budget fits but the allocator is fragmented: retire
                # something first, then retry this request
                for di in members:
                    w.planned.pop(di, None)
                if self._active:
                    self._defer(w)
                else:
                    exc = MemLimitError(nbytes, self.pool.budgets[device])
                    self._settle_waiting(w, "failed", _describe(exc))
            elif issuer is not None and isinstance(exc, DeviceLostError):
                # a member died while staging: fail over, not fail
                w.faults_seen += issuer.faults_n
                w.retries_used += issuer.retries_n
                w.migrated = True
                self._fail_over(members)
            else:
                self._settle_waiting(w, "failed", _describe(exc))
            return False
        self._waiting.remove(w)
        self.recorder.record(
            "request.admit",
            t=admit_t,
            request=w.seq,
            tenant=w.req.tenant,
            device=device,
            devices=list(members) if sharded else None,
            shards=len(members) if sharded else None,
            chunk_size=plan.chunk_size,
            num_streams=plan.num_streams,
            migrated=True if w.migrated else None,
        )
        if sharded and self.obs.metrics.enabled:
            self.obs.metrics.counter("serve.sharded").inc()
        self._enlist(_Active(
            admit_seq=self._admit_seq,
            waiting=w,
            issuer=issuer,
            device=device,
            plan=plan,
            reserved=nbytes,
            admit_t=admit_t,
            devices=members if sharded else None,
        ))
        return True

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    @staticmethod
    def _members_of(a: _Active) -> List[int]:
        """All devices serving ``a`` (just its own for ordinary service)."""
        return a.devices or [a.device]

    def _elapsed_of(self, a: _Active) -> float:
        """Finish clock for ``a``: the latest member device's elapsed."""
        return max(
            self.pool.runtimes[di].elapsed for di in self._members_of(a)
        )
    def _clock(self) -> float:
        """Least-advanced healthy device clock (decision time for
        queue-side outcomes, which belong to no single device)."""
        alive = self.pool.alive()
        if not alive:
            return self.pool.elapsed
        return min(self.pool.runtimes[i].elapsed for i in alive)

    def _waiting_result(self, w: _Waiting, status: str, error: str) -> RequestResult:
        """Result of a request settled before it entered service."""
        req = w.req
        finished = self._clock()
        return RequestResult(
            request_id=w.seq,
            tenant=req.tenant,
            label=req.label,
            status=status,
            priority=req.priority,
            finished=finished,
            queue_wait=max(0.0, finished - req.arrival),
            overtaken=w.overtaken,
            deadline=req.deadline,
            deadline_met=False if req.deadline is not None else None,
            error=error,
            migrated=w.migrated,
            faults=w.faults_seen,
            retries=w.retries_used,
        )

    def _active_result(
        self, a: _Active, status: str, finish_t: float, **fields
    ) -> RequestResult:
        """Result of an in-service request leaving at ``finish_t``: a
        completed one counts every chunk and may meet its deadline, a
        cut one counts the chunks it issued.  ``fields`` adds ``busy``
        or ``error``."""
        w, req, issuer = a.waiting, a.waiting.req, a.issuer
        done = status == "ok"
        return RequestResult(
            request_id=w.seq,
            tenant=req.tenant,
            label=req.label,
            status=status,
            priority=req.priority,
            device=a.device,
            admitted=a.admit_t,
            finished=finish_t,
            queue_wait=max(0.0, a.admit_t - req.arrival),
            service=finish_t - a.admit_t,
            cache_hit=w.cache_hit,
            chunk_size=a.plan.chunk_size,
            num_streams=issuer.streams_n,
            nchunks=len(issuer.chunks) if done else issuer.issued,
            device_bytes=a.reserved,
            overtaken=w.overtaken,
            commands=len(issuer.commands),
            deadline=req.deadline,
            deadline_met=(done and finish_t <= req.deadline)
            if req.deadline is not None else None,
            migrated=w.migrated,
            faults=w.faults_seen + issuer.faults_n,
            retries=w.retries_used + issuer.retries_n,
            verified=issuer.verified_n,
            corruptions=issuer.corruptions_n,
            resplits=issuer.resplits if a.devices else 0,
            shards=len(a.devices) if a.devices else 1,
            devices=tuple(a.devices or ()),
            **fields,
        )

    def _settle(
        self, result: RequestResult, retired: Optional[_Active] = None
    ) -> None:
        """Report a final result: its event (and dump), the results
        list, observers, the output store and the journal.

        The event and dump come from the result through
        :data:`_OUTCOMES`.  ``retired`` is a region completing ``ok``:
        it leaves service only after its event is recorded, so a
        snapshot the journal takes at that record still counts it
        active, and its outputs are stored before the journal commits.
        """
        kind, key, dump, dump_key = _OUTCOMES[result.status]
        device = result.device if result.device >= 0 else None
        fields = {key: result.error} if key is not None else {
            "migrated": True if result.migrated else None,
            "faults": result.faults or None,
            "retries": result.retries or None,
        }
        self.recorder.record(
            kind, t=result.finished, request=result.request_id,
            tenant=result.tenant, device=device, **fields,
        )
        if dump is not None and device is not None:
            self.recorder.dump(
                dump, request=result.request_id, tenant=result.tenant,
                device=device, **{dump_key: result.error},
            )
        if retired is not None:
            self._active.remove(retired)
            # memory was released: blocked requests may fit now
            self._undefer()
        self._results.append(result)
        self._observe(result)
        w = retired.waiting if retired is not None else None
        if w is not None and w.replay is not None:
            # resume dedup: the journal had this request settled — the
            # pipeline replayed with stand-in arrays; hand the
            # journalled outputs back to the caller's real arrays
            self._deduped += 1
            if w.restore is not None:
                self._restore_outputs(w)
        elif w is not None:
            if w.reexecute:
                self._reexecuted += 1
            if self._journal is not None:
                self._save_outputs(w.seq, w.req)
        self._journal_done(result)

    def _settle_waiting(self, w: _Waiting, status: str, error: str) -> None:
        """End a request that never entered service (failed or shed)."""
        self._drop(w)
        self._settle(self._waiting_result(w, status, error))

    def _leave_service(self, a: _Active) -> None:
        """Abort an in-flight region and hand its memory back."""
        a.issuer.abort()
        for di in self._members_of(a):
            self.pool.release(di, a.reserved)
        self._active.remove(a)

    def _settle_active(self, a: _Active, status: str, error: str) -> None:
        """End an in-flight region at the current chunk boundary
        (cancelled, or failed once its retry budget is spent)."""
        self._leave_service(a)
        # memory was released: blocked requests may fit now
        self._undefer()
        self._harvest_telemetry(a)
        self._settle(self._active_result(a, status, self._elapsed_of(a), error=error))

    def _device_lost(self, device: int) -> None:
        """Pool-level failover: quarantine the device, re-queue its work.

        Every in-flight region on the device is aborted (its ring
        slots died with the device), its reservation released, and its
        request re-queued to restart from chunk 0 on a healthy device.
        Restarting is exact: resident arrays only copy back at
        finalize (which never ran) and pipelined outputs are pure
        functions of unmodified inputs.
        """
        self.pool.mark_lost(device)
        self.recorder.record(
            "device.lost",
            t=self.pool.runtimes[device].elapsed,
            device=device,
            error="DeviceLostError",
        )
        self._quarantined_until[device] = None
        if self.obs.metrics.enabled:
            self.obs.metrics.counter("serve.device_lost").inc()
        if self.obs.tracer.enabled:
            self.obs.tracer.instant(
                f"device-lost:dev{device}", "serve", device=device,
            )
        victims = [a for a in self._active if device in self._members_of(a)]
        for a in victims:
            self._leave_service(a)
            w = a.waiting
            w.faults_seen += a.issuer.faults_n
            w.retries_used += a.issuer.retries_n
            w.migrated = True
            self._waiting.append(w)
            self.recorder.record(
                "request.requeue",
                request=w.seq,
                tenant=w.req.tenant,
                device=device,
                migrated=True,
            )
            if self.obs.metrics.enabled:
                self.obs.metrics.counter("serve.failover").inc()
        # plans for the dead device are useless now, and a request
        # deferred by fragmentation is undeferred, as on every other
        # exit from service: the memory it waited for may be gone, and
        # another device may fit it
        for w in self._waiting:
            w.planned.pop(device, None)
            w.oom_deferred = False
        self._waiting.sort(key=lambda w: w.seq)
        self._reindex()
        self.recorder.dump("device-lost", device=device, victims=len(victims))
        if not self.pool.alive():
            exc = DeviceLostError(
                f"device {device} lost and no healthy devices remain"
            )
            for w in list(self._waiting):
                self._settle_waiting(w, "failed", _describe(exc))

    def _fail_over(self, members: List[int]) -> None:
        """Fail over the ``members`` whose devices died.

        Every ``DeviceLostError`` a region raises comes from a member
        whose device is marked lost, and a member of a region in (or
        entering) service is never already lost to the pool.
        """
        for di in members:
            if self.pool.runtimes[di].device.lost:
                self._device_lost(di)

    def _check_lost_devices(self) -> None:
        """Catch devices the injector killed outside a handled call."""
        for di, rt in enumerate(self.pool.runtimes):
            if rt.device.lost and not self.pool.is_lost(di):
                self._device_lost(di)

    def _retire(self, a: _Active) -> None:
        """Drain, recover, finalize, account, and release one region."""
        try:
            a.issuer.drain()
            if a.issuer._corruptions or (
                self._fault_mode and any(
                    self.pool.injectors[di] is not None
                    for di in self._members_of(a)
                )
            ):
                budget = None
                if self.config.max_request_retries is not None:
                    budget = max(
                        0,
                        self.config.max_request_retries
                        - a.waiting.retries_used - a.issuer.retries_n,
                    )
                a.issuer.recover(budget=budget)
            a.issuer.account_stalls()
            a.issuer.finalize()
        except DeviceLostError:
            self._fail_over(self._members_of(a))
            return
        except (RegionFailure, TransferError, KernelFaultError) as exc:
            # replays exhausted, or a blocking resident copy exhausted
            # its per-copy retries
            self._settle_active(a, "failed", _describe(exc))
            return
        if a.devices is None:
            # single-device service: detected corruptions count toward
            # the serving device's circuit breaker (sharded corruption
            # entries carry no member attribution; the watchdog and
            # seam verification cover member health there)
            for entry in a.issuer.corruption_log:
                self._record_device_fault(
                    a.device, entry[5], cause="corruption"
                )
        finish_t = self._elapsed_of(a)
        self._harvest_telemetry(a)
        for di in self._members_of(a):
            self.pool.release(di, a.reserved)
        busy: Dict[str, float] = {"h2d": 0.0, "d2h": 0.0, "kernel": 0.0}
        for cmd in a.issuer.commands:
            if cmd.kind in busy:
                busy[cmd.kind] += cmd.duration
        self._settle(self._active_result(a, "ok", finish_t, busy=busy), retired=a)

    def _observe(self, r: RequestResult) -> None:
        tracer, metrics = self.obs.tracer, self.obs.metrics
        if tracer.enabled:
            if r.device >= 0:
                # the request was admitted: a real span on its device
                tracer.emit(
                    f"request:{r.request_id}:{r.tenant}",
                    category="serve",
                    track=f"serve:dev{r.device}",
                    start=r.admitted,
                    end=r.finished,
                    tenant=r.tenant,
                    label=r.label,
                    priority=r.priority,
                    cache_hit=r.cache_hit,
                    nchunks=r.nchunks,
                    status=r.status,
                )
            else:
                # never admitted (failed planning / shed while waiting)
                tracer.instant(
                    f"request:{r.request_id}:{r.tenant}",
                    "serve",
                    tenant=r.tenant,
                    label=r.label,
                    priority=r.priority,
                    status=r.status,
                    error=r.error,
                )
        if metrics.enabled:
            metrics.counter("serve.requests").inc()
            metrics.counter(f"serve.requests.{r.status}").inc()
            metrics.counter(f"serve.tenant.{r.tenant}.{r.status}").inc()
            if r.status == "ok":
                metrics.counter(
                    "serve.cache.hits" if r.cache_hit else "serve.cache.misses"
                ).inc()
                metrics.histogram("serve.queue_wait.seconds").observe(r.queue_wait)
                metrics.histogram("serve.service.seconds").observe(r.service)
            if r.migrated:
                metrics.counter("serve.migrated").inc()
            if r.deadline is not None and r.deadline_met is not True:
                metrics.counter("serve.deadlines_missed").inc()
                metrics.counter(f"serve.tenant.{r.tenant}.deadlines_missed").inc()
            if r.faults:
                metrics.counter("serve.faults").inc(r.faults)
            if r.retries:
                metrics.counter("serve.retries").inc(r.retries)
        s = self._sampler
        if s is not None:
            s.inc(f"serve.requests.{r.status}", r.finished)
            if r.status == "ok":
                s.observe("serve.latency_s", r.finished, r.latency)
            s.slo.observe(r.tenant, r.finished, ok=r.ok, latency_s=r.latency)

    # ------------------------------------------------------------------
    # deadlines
    # ------------------------------------------------------------------
    def _remaining_lower_bound(self, a: _Active) -> float:
        """Cost-model lower bound on ``a``'s unissued chunks.

        Pure kernel occupancy of the chunks not yet issued — transfers
        and queueing can only add to it, so ``elapsed + bound`` is a
        certified lower bound on the finish time.
        """
        kernel = a.waiting.req.kernel
        if a.devices:
            # shards run concurrently: the bound is the max over shards
            return a.issuer.remaining_kernel_bound(kernel)
        profile = self.pool.runtimes[a.device].profile
        return sum(
            kernel.chunk_cost(profile, c.t0, c.t1, translated=True)
            for c in a.issuer.chunks[a.issuer.issued:]
        )

    def _enforce_deadlines(self) -> None:
        """Cancel provably-late in-flight regions; shed hopeless waiters."""
        if not self._deadlines:
            return
        now = self._clock()
        for w in list(self._waiting):
            if w.req.deadline is not None and now > w.req.deadline:
                self._settle_waiting(
                    w, "shed",
                    f"deadline {w.req.deadline:.6g}s already passed "
                    f"at {now:.6g}s",
                )
        for a in list(self._active):
            deadline = a.waiting.req.deadline
            if deadline is None or not a.issuer.remaining:
                continue
            bound = self._elapsed_of(a) + self._remaining_lower_bound(a)
            if bound > deadline:
                self._settle_active(
                    a, "cancelled",
                    f"deadline {deadline:.6g}s unreachable: "
                    f"lower bound {bound:.6g}s with "
                    f"{a.issuer.remaining} chunk(s) unissued",
                )

    def _advance_past_quarantine(self) -> bool:
        """Idle pool, nothing fits, a device is quarantined: advance its
        clock to the quarantine expiry so it can be probed back.  True
        if a clock moved (the caller should retry admission)."""
        pending = [
            (until, di)
            for di, until in enumerate(self._quarantined_until)
            if until is not None and not self.pool.is_lost(di)
        ]
        if not pending:
            return False
        until, di = min(pending)
        rt = self.pool.runtimes[di]
        if rt.host_now < until:
            rt.host_now = until
            return True
        return False

    # ------------------------------------------------------------------
    # weighted-fair issue
    # ------------------------------------------------------------------
    @staticmethod
    def _issue_key(a: _Active) -> float:
        return a.issuer.issued / (1 + a.waiting.req.priority)

    def _push_issuable(self, a: _Active) -> None:
        """(Re-)enter ``a`` in the issue heap if it has chunks left."""
        if a.issuer.remaining:
            heapq.heappush(
                self._issue_heap, (self._issue_key(a), a.admit_seq, a)
            )

    def _pop_issuable(self) -> Optional[_Active]:
        """Pop the active region with chunks left and the smallest
        ``(issued / (1 + priority), admit_seq)``; None if there is none.

        Entries of regions that left service or ran out of chunks are
        dropped as they surface, and an entry whose key went stale is
        re-keyed and pushed back.  A region's ``issued`` moves (and can
        fall, when the straggler watchdog re-splits) only inside its own
        quantum, after which it is re-keyed from scratch, so no stored
        key exceeds its region's current key and the region returned
        carries the exact minimum over the live, issuable regions.
        """
        heap = self._issue_heap
        while heap:
            key, _seq, a = heap[0]
            if not a.issuer.remaining or a not in self._active:
                heapq.heappop(heap)
                continue
            fresh = self._issue_key(a)
            if fresh != key:
                heapq.heapreplace(heap, (fresh, a.admit_seq, a))
                continue
            heapq.heappop(heap)
            return a
        return None

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> ServeReport:
        """Serve every submitted request to completion.

        Deterministic: the loop alternates deadline enforcement,
        admission, weighted-fair chunk issue, and FIFO retirement until
        the queue drains.  On a fault-free pool the failure-handling
        branches are all inert and the schedule is bit-identical to the
        pre-fault-tolerance scheduler.
        """
        cfg = self.config
        self._fault_mode = self.pool.has_faults
        if self._fault_mode and self._policy is None:
            self._policy = FaultPolicy()
        old_defer: List[bool] = []
        if self._fault_mode:
            # the scheduler owns async fault reporting: sync points
            # stash faults for the fault router instead of raising
            for rt in self.pool.runtimes:
                old_defer.append(rt.defer_faults)
                rt.defer_faults = True
        sampler = self._sampler
        if sampler is not None:
            # the simulators' retirement clock hook closes telemetry
            # windows mid-drain; frames are finalized lazily so they
            # are identical with or without the hook (a simulator that
            # never calls it is covered by the per-turn advances below)
            for rt in self.pool.runtimes:
                rt.device.sim.clock_hook = sampler.advance
        try:
            while self._waiting or self._active:
                if sampler is not None:
                    sampler.advance(self.pool.elapsed)
                if self._fault_mode:
                    self._check_lost_devices()
                if cfg.enforce_deadlines:
                    self._enforce_deadlines()
                admitted = self._admit()
                a = self._pop_issuable()
                if a is not None:
                    try:
                        for _ in range(cfg.issue_quantum):
                            if a.issuer.issue_next() is None:
                                break
                    except DeviceLostError:
                        # failing over a lost member takes ``a`` out of
                        # service, so it is not re-entered in the heap
                        self._fail_over(self._members_of(a))
                    else:
                        # re-keyed from scratch: the straggler watchdog
                        # may re-split work inside issue_next
                        self._push_issuable(a)
                elif self._active:
                    # everything issued: retire in admission order
                    self._retire(self._active[0])
                elif self._waiting and not admitted:
                    if self._advance_past_quarantine():
                        # a quarantined device just became probeable
                        continue
                    # idle pool, nothing fits: the head request is infeasible
                    w = next(
                        (w for w in self._waiting if not w.oom_deferred), None
                    )
                    if w is None:
                        # a request is deferred only while another one
                        # holds memory, and every exit from service
                        # undefers all of them
                        raise RuntimeError(
                            "internal error: the pool is idle but every "
                            "waiting request is OOM-deferred; each exit "
                            "from service must undefer them"
                        )
                    needed = min(
                        (nbytes for _p, nbytes in w.planned.values()),
                        default=0,
                    )
                    exc = MemLimitError(needed, max(self.pool.budgets))
                    self._settle_waiting(w, "failed", _describe(exc))
        finally:
            if self._fault_mode:
                for rt, was in zip(self.pool.runtimes, old_defer):
                    rt.defer_faults = was
            if sampler is not None:
                for rt in self.pool.runtimes:
                    rt.device.sim.clock_hook = None
        self._results.sort(key=lambda r: r.request_id)
        frames: List[Dict] = []
        if sampler is not None:
            frames = sampler.finish(self.pool.elapsed)
            # breach/burn/budget events land before the run-end dump
            # below (and in the journal while its sink is attached)
            self._emit_slo_events(frames)
        if self.recorder.dumps:
            # something failed mid-run: one final dump whose window also
            # covers the recovery tail (e.g. the migrated re-admission
            # after a device loss)
            self.recorder.dump(
                "run-end",
                requests=len(self._results),
                failures=len(self.recorder.dumps),
            )
        health = [
            "quarantined"
            if h == "ok" and self._quarantined_until[i] is not None
            else h
            for i, h in enumerate(self.pool.health)
        ]
        report = ServeReport(
            results=list(self._results),
            makespan=self.pool.elapsed,
            device_elapsed=[rt.elapsed for rt in self.pool.runtimes],
            device_peaks=self.pool.data_peaks(),
            budgets=list(self.pool.budgets),
            cache=self.cache.stats(),
            plan_seconds=self.plan_seconds,
            dry_runs=self.dry_runs,
            device_health=health,
            breaker_trips=list(self._breaker_trips),
            flight_dumps=list(self.recorder.dumps),
        )
        if sampler is not None:
            report.telemetry = frames
            report.telemetry_wall_s = sampler.wall_s
            report.slo = sampler.slo_report()
            if cfg.telemetry_path is not None:
                write_telemetry_jsonl(
                    frames, cfg.telemetry_path, window=sampler.window
                )
                atomic_write_text(
                    cfg.telemetry_path + ".prom", prometheus_text(frames)
                )
        if self._journal is not None:
            self._journal.append({
                "kind": "run.end",
                "requests": len(self._results),
                "makespan": self.pool.elapsed,
            })
            self.recorder.sink = None
            self._journal.close()
            report.journal = {
                "path": self._journal.path,
                "records": self._journal.records,
                "fsyncs": self._journal.fsyncs,
                "snapshots": self._journal.snapshots,
                "resumed": 1 if self._resumed else 0,
                "replayed": self._journal.verified,
                "deduped": self._deduped,
                "reexecuted": self._reexecuted,
                # host wall spent on durability (never in to_dict():
                # it is machine-dependent, the report is deterministic)
                "wall_s": self._journal.wall_s,
            }
            if self.obs.metrics.enabled:
                m = self.obs.metrics
                m.counter("serve.journal.records").inc(self._journal.records)
                m.counter("serve.journal.fsyncs").inc(self._journal.fsyncs)
                m.counter("serve.journal.snapshots").inc(self._journal.snapshots)
                if self._resumed:
                    m.counter("serve.journal.resumes").inc()
                    m.counter("serve.journal.replayed").inc(
                        self._journal.verified
                    )
                    m.counter("serve.journal.deduped").inc(self._deduped)
                    m.counter("serve.journal.reexecuted").inc(self._reexecuted)
        return report
