"""Sharding one pipelined region across several devices.

The paper's conclusion: "we will test and analyze our approach on
other systems, such as Intel Xeon Phi co-processors, and even
multi-nodes with different accelerators", building on the authors'
CoreTSAR work which "divides computation across devices".

This module combines the two ideas: the pipelined loop is *partitioned
across devices* (CoreTSAR-style association of data to computation
along the split dimension) and each device's share is then *pipelined*
through its own ring buffer.  Because ``pipeline_map`` already states
which array slice each iteration needs, the same clauses drive both
levels — no new annotation is required.

The heart is :class:`ShardedIssuer`, which speaks the same protocol as
:class:`~repro.core.executor.PipelineIssuer` (``open`` / ``issue_next``
/ ``drain`` / ``recover`` / ``finalize`` / ``abort``) so the serving
scheduler can drive a sharded region exactly like a single-device one.
A sharded open:

* synchronizes the member host clocks to a **shared virtual clock**
  (the shards start together, so wall time is the max over shards),
* splits the loop by probed throughput (:func:`probe_rates` +
  :func:`split_loop`; a K40m + HD 7970 pair gets an uneven split),
* charges a **halo exchange** at each interior shard boundary for
  stencil-style regions — the overlap of neighboring shards'
  ``SplitSpec`` ranges moves as a D2D modeled as D2H + H2D (the H2D
  half is the consumer pipeline's ordinary first-lap transfer, already
  charged; the producer's D2H push is charged here), and
* routes every shard's transfers through one
  :class:`~repro.sim.bandwidth.BandwidthShared` link, so scaling
  curves pay for PCIe contention instead of being embarrassingly
  parallel.

Failover: a shard's device dying (``DeviceLostError``) re-splits its
incomplete iterations across the surviving shards (``self_heal=True``,
the standalone :func:`execute_sharded` path).  Completed chunks'
outputs already live in the host arrays and re-running a chunk is
idempotent, so the healed output is ``np.array_equal``-exact.  Under
the scheduler ``self_heal=False`` and the loss escalates to pool-level
failover instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.executor import (
    FaultRouter,
    PipelineIssuer,
    RegionResult,
    _Measurer,
)
from repro.core.kernel import RegionKernel
from repro.core.memlimit import tune_plan
from repro.core.pipemodel import dry_run_elapsed
from repro.core.plan import RegionPlan
from repro.directives.clauses import DirectiveError, Loop
from repro.directives.splitspec import SplitSpec
from repro.gpu.errors import DeviceLostError, InvalidValueError
from repro.gpu.runtime import Runtime
from repro.integrity import INTEGRITY_OFF, validate_integrity
from repro.sim.bandwidth import BandwidthShared

__all__ = [
    "MultiDeviceResult",
    "ShardedIssuer",
    "ShardedResult",
    "WatchdogConfig",
    "execute_sharded",
    "probe_rates",
    "split_loop",
]


@dataclass(frozen=True)
class WatchdogConfig:
    """Tuning for the straggler watchdog on sharded runs.

    A device can degrade without dying — thermal throttling, a flaky
    link, ECC retirement storms — and a fail-stop failover never sees
    it.  The watchdog compares per-shard *completed-chunk* progress
    while issuing and re-splits work away from a shard that falls too
    far behind its peers, exactly as if its device had been lost
    (outputs stay ``np.array_equal``-exact; re-running a chunk is
    idempotent).

    Attributes
    ----------
    ratio:
        A live shard is declared a straggler when its completed
        fraction drops below ``ratio`` times the best shard's.
    min_done:
        Grace period: no verdicts until the best shard has completed
        this many chunks.
    max_inflight:
        Per-shard cap on issued-but-incomplete chunks while the
        watchdog runs; ``0`` means ``max(2 * streams, 4)``.  The cap
        is what makes lag observable at issue time — without it every
        chunk is enqueued up front and a slow device is only noticed
        when the region's tail blocks on its drain.
    """

    ratio: float = 0.4
    min_done: int = 2
    max_inflight: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.ratio < 1.0):
            raise InvalidValueError(
                f"watchdog ratio must be in (0, 1), got {self.ratio!r}"
            )
        if self.min_done < 1:
            raise InvalidValueError(
                f"watchdog min_done must be >= 1, got {self.min_done!r}"
            )
        if self.max_inflight < 0:
            raise InvalidValueError(
                f"watchdog max_inflight must be >= 0, got "
                f"{self.max_inflight!r}"
            )


@dataclass
class MultiDeviceResult:
    """Outcome of one multi-device pipelined execution.

    Attributes
    ----------
    per_device:
        Each device's :class:`RegionResult`, in device order.
    shares:
        Iterations assigned per device.
    elapsed:
        Wall time: the devices run concurrently, so the slowest one
        defines the region's end-to-end time.
    """

    per_device: List[RegionResult]
    shares: List[int]

    @property
    def elapsed(self) -> float:
        """Concurrent wall time (max over devices)."""
        return max(r.elapsed for r in self.per_device)

    def imbalance(self) -> float:
        """Relative gap between the slowest and fastest device."""
        times = [r.elapsed for r in self.per_device]
        return (max(times) - min(times)) / max(times)

    def summary(self) -> str:
        """Per-device digest plus the concurrent wall time."""
        lines = [
            f"device {i}: {share:5d} iters  {r.elapsed * 1e3:9.3f} ms  "
            f"peak {r.memory_peak / 1e6:8.1f} MB"
            for i, (share, r) in enumerate(zip(self.shares, self.per_device))
        ]
        lines.append(
            f"wall (max): {self.elapsed * 1e3:.3f} ms  "
            f"imbalance {self.imbalance():.1%}"
        )
        return "\n".join(lines)


@dataclass
class ShardedResult(MultiDeviceResult):
    """A :class:`MultiDeviceResult` from a shared-clock sharded run.

    Adds the failover and contention-model accounting the scheduler
    and the differential tests assert on.
    """

    #: whether a shard's device died and its work re-split onto survivors
    migrated: bool = False
    #: number of re-split events (0 on a healthy run)
    resplits: int = 0
    #: bytes charged as halo pushes between neighboring shards
    halo_bytes: int = 0
    #: faulted commands absorbed across shards
    faults: int = 0
    #: recovery replays performed across shards
    retries: int = 0
    #: integrity checks performed across shards (0 with integrity off)
    verified: int = 0
    #: silent corruptions detected (and recovered) across shards
    corruptions: int = 0
    #: seam (halo-range) checks among ``verified``
    seam_verified: int = 0
    #: re-splits triggered by the straggler watchdog (slow, not dead)
    stragglers: int = 0

    def summary(self) -> str:
        lines = [super().summary()]
        if self.halo_bytes:
            lines.append(f"halo exchange: {self.halo_bytes / 1e6:.2f} MB")
        if self.migrated:
            lines.append(
                f"failover: {self.resplits} re-split(s), output exact"
            )
        if self.stragglers:
            lines.append(
                f"straggler watchdog: {self.stragglers} shard(s) "
                f"re-split away from slow devices"
            )
        if self.verified or self.corruptions:
            lines.append(
                f"integrity: {self.verified} check(s) "
                f"({self.seam_verified} seam), "
                f"{self.corruptions} corruption(s) detected"
            )
        return "\n".join(lines)


def _subloop_plan(plan: RegionPlan, t0: int, t1: int) -> RegionPlan:
    """A plan restricted to iterations ``[t0, t1)``."""
    sub = Loop(plan.loop.var, t0, t1)
    specs = {
        var: SplitSpec.derive(spec.clause, sub) for var, spec in plan.specs.items()
    }
    return RegionPlan(
        loop=sub,
        chunk_size=plan.chunk_size,
        num_streams=plan.num_streams,
        schedule=plan.schedule,
        specs=specs,
        residents=plan.residents,
        dtypes=plan.dtypes,
        shapes=plan.shapes,
        halo_mode=plan.halo_mode,
    )


def probe_rates(
    runtimes: Sequence[Runtime],
    plan: RegionPlan,
    arrays: Dict[str, np.ndarray],
    kernel: RegionKernel,
    *,
    probe_iters: Optional[int] = None,
) -> List[float]:
    """Iterations/second each device sustains, from virtual dry runs.

    The probe prices a short prefix of the loop on a fresh device of
    each runtime's profile with the analytic dry-run model
    (:func:`~repro.core.pipemodel.dry_run_elapsed`); rates feed
    :func:`split_loop`.
    """
    trip = plan.loop.trip_count
    probe = probe_iters or max(plan.chunk_size * plan.num_streams * 2, trip // 8)
    probe = min(probe, trip)
    sub = _subloop_plan(plan, plan.loop.start, plan.loop.start + probe)
    return [
        probe / dry_run_elapsed(rt.profile, sub, arrays, kernel) for rt in runtimes
    ]


def split_loop(loop: Loop, weights: Sequence[float]) -> List[Tuple[int, int]]:
    """Partition the loop into contiguous shares proportional to
    ``weights``; every device gets at least one iteration when
    possible.

    Weights must be positive finite numbers (a NaN or infinite weight
    would silently corrupt the proportional bounds).  If the forced
    one-iteration minimum cannot be satisfied with monotonic bounds —
    more devices than iterations, or inconsistent loop metadata — a
    :class:`~repro.directives.clauses.DirectiveError` is raised instead
    of returning overlapping or empty shares.
    """
    if not weights or any(
        not isinstance(w, (int, float))
        or isinstance(w, bool)
        or not math.isfinite(w)
        or w <= 0
        for w in weights
    ):
        raise DirectiveError(
            f"device weights must be positive finite numbers, got {list(weights)!r}"
        )
    trip = loop.trip_count
    if trip < len(weights):
        raise DirectiveError(
            f"cannot split {trip} iterations over {len(weights)} devices"
        )
    total = sum(weights)
    bounds = [loop.start]
    acc = 0.0
    for w in weights[:-1]:
        acc += w
        bounds.append(loop.start + round(trip * acc / total))
    bounds.append(loop.stop)
    # enforce at least one iteration per device
    for i in range(1, len(bounds)):
        if bounds[i] <= bounds[i - 1]:
            bounds[i] = bounds[i - 1] + 1
    bounds[-1] = loop.stop
    for i in range(len(bounds) - 1, 0, -1):
        if bounds[i] <= bounds[i - 1]:
            bounds[i - 1] = bounds[i] - 1
    # the fix-ups above are greedy; verify they produced a partition
    # (reachable only with inconsistent loop metadata, but silently
    # returning overlapping or empty shares would corrupt outputs)
    if bounds[0] != loop.start or bounds[-1] != loop.stop or any(
        bounds[i] <= bounds[i - 1] for i in range(1, len(bounds))
    ):
        raise DirectiveError(
            f"cannot split {trip} iterations over {len(weights)} devices: "
            f"the one-iteration minimum forces non-monotonic bounds {bounds}"
        )
    return [(bounds[i], bounds[i + 1]) for i in range(len(weights))]


@dataclass
class _Shard:
    """One shard: a runtime, its iteration range, and its sub-issuer."""

    runtime: Runtime
    t0: int
    t1: int
    plan: RegionPlan
    weight: float
    issuer: Optional[PipelineIssuer] = None
    measurer: Optional[_Measurer] = None
    alive: bool = True
    #: whether this is one of the original shards (re-split shards
    #: report through their runtime's original shard)
    primary: bool = True
    #: virtual time this shard's issuer opened (watchdog rate window)
    opened_at: float = 0.0


class ShardedIssuer:
    """One region's pipeline sharded across several devices.

    Speaks the :class:`~repro.core.executor.PipelineIssuer` protocol so
    :func:`execute_sharded` and the serving scheduler can drive it like
    a single-device issuer.  See the module docstring for the model.

    Parameters
    ----------
    runtimes:
        One runtime per shard (distinct devices).
    plan:
        The full, memory-tuned :class:`RegionPlan` for the region.
    shares:
        Optional precomputed ``[(t0, t1), ...]`` per shard; computed
        from ``weights`` (or probed rates) when omitted.
    weights:
        Optional split weights (one per runtime); probed when omitted.
    policy:
        Optional per-chunk :class:`~repro.faults.FaultPolicy`, applied
        to every sub-issuer.
    router:
        The :class:`~repro.core.executor.FaultRouter` the sub-issuers
        claim faults through (a scheduler's pool-wide one); a private
        one when omitted.  A sub-issuer's claim drains every member
        device.
    self_heal:
        When True (standalone), a shard's ``DeviceLostError`` is
        absorbed by re-splitting its incomplete iterations over the
        survivors.  When False (under a scheduler), the loss
        propagates for pool-level failover.
    measure:
        Capture a per-shard measurement window at ``open`` so
        :meth:`results` can produce per-device :class:`RegionResult`\\ s
        (standalone only; a scheduler owns its own accounting).
    """

    def __init__(
        self,
        runtimes: Sequence[Runtime],
        plan: RegionPlan,
        arrays: Dict[str, np.ndarray],
        kernel: RegionKernel,
        *,
        shares: Optional[Sequence[Tuple[int, int]]] = None,
        weights: Optional[Sequence[float]] = None,
        policy=None,
        stream_prefix: str = "shard",
        router: Optional[FaultRouter] = None,
        recorder=None,
        self_heal: bool = True,
        measure: bool = False,
        integrity: str = INTEGRITY_OFF,
        watchdog=None,
    ) -> None:
        if not runtimes:
            raise DirectiveError("need at least one device")
        self.runtimes = list(runtimes)
        self.plan = plan
        self.arrays = arrays
        self.kernel = kernel
        self.policy = policy
        self.stream_prefix = stream_prefix
        self.router = router if router is not None else FaultRouter()
        self.recorder = recorder
        self.self_heal = self_heal
        self.measure = measure
        #: silent-failure defense mode, applied to every sub-issuer
        #: (seam transfers verify as ``halo`` checks)
        self.integrity = validate_integrity(integrity)
        #: straggler watchdog: ``None`` off, ``True`` defaults, or a
        #: :class:`WatchdogConfig`.  Independent of ``self_heal`` — a
        #: slow device is re-split away even under a scheduler, because
        #: the pool has no fail-stop signal to escalate on.
        if watchdog is None or watchdog is False:
            self.watchdog: Optional[WatchdogConfig] = None
        elif watchdog is True:
            self.watchdog = WatchdogConfig()
        else:
            self.watchdog = watchdog
        if shares is None:
            if weights is None:
                weights = probe_rates(self.runtimes, plan, arrays, kernel)
            if len(weights) != len(self.runtimes):
                raise DirectiveError("one weight per device required")
            shares = split_loop(plan.loop, weights)
        if weights is None:
            weights = [float(t1 - t0) for t0, t1 in shares]
        self.shares = [(int(t0), int(t1)) for t0, t1 in shares]
        self._shards: List[_Shard] = [
            _Shard(
                runtime=rt,
                t0=t0,
                t1=t1,
                plan=_subloop_plan(plan, t0, t1),
                weight=float(w),
            )
            for rt, (t0, t1), w in zip(self.runtimes, self.shares, weights)
        ]
        #: shared PCIe link (attached while the region is in flight)
        self.link: Optional[BandwidthShared] = (
            BandwidthShared() if len(self._shards) > 1 else None
        )
        #: written residents become cross-shard reduction accumulators:
        #: each shard computes deltas over zeros and the merge replays
        #: them in global chunk order, reproducing the single-device
        #: accumulation fold bit-for-bit (valid for additive updates
        #: like matmul's ``C += A_band @ B_band``)
        self.reduction_residents = frozenset(
            var
            for var, cl in plan.residents.items()
            if cl.direction in ("from", "tofrom")
        ) if len(self._shards) > 1 else frozenset()
        self.migrated = False
        self.resplits = 0
        #: re-splits caused by the watchdog (subset of ``resplits``)
        self.straggler_resplits = 0
        self.halo_bytes = 0
        #: chunks a dead shard completed before dying (kept for counts)
        self._retired_chunks: List = []
        self._base_issued = 0
        self._opened = False
        self._finalized = False

    # ------------------------------------------------------------------
    # aggregate protocol surface
    # ------------------------------------------------------------------
    def _live(self) -> List[_Shard]:
        return [sh for sh in self._shards if sh.alive and sh.issuer is not None]

    @property
    def issued(self) -> int:
        """Chunks issued so far (completed chunks of dead shards count)."""
        return self._base_issued + sum(sh.issuer.issued for sh in self._live())

    @property
    def remaining(self) -> int:
        """Chunks not yet issued across live shards."""
        if not self._opened:
            return sum(len(sh.plan.chunks()) for sh in self._shards)
        return sum(sh.issuer.remaining for sh in self._live())

    @property
    def done_issuing(self) -> bool:
        return self.remaining == 0

    @property
    def chunks(self) -> List:
        """All shards' chunks (live issuers' plus dead-shard completions)."""
        if not self._opened:
            return [c for sh in self._shards for c in sh.plan.chunks()]
        out = list(self._retired_chunks)
        for sh in self._live():
            out.extend(sh.issuer.chunks)
        return out

    @property
    def commands(self) -> List:
        return [c for sh in self._shards if sh.issuer is not None
                for c in sh.issuer.commands]

    @property
    def streams_n(self) -> int:
        subs = [sh.issuer.streams_n for sh in self._shards if sh.issuer is not None]
        return max(subs, default=min(self.plan.num_streams, max(1, self.remaining)))

    def _total(self, counter: str) -> int:
        """A sub-issuer counter summed over every shard, dead ones too
        (a dead shard's issuer stops counting when it aborts)."""
        return sum(
            getattr(sh.issuer, counter) for sh in self._shards
            if sh.issuer is not None
        )

    @property
    def faults_n(self) -> int:
        return self._total("faults_n")

    @property
    def retries_n(self) -> int:
        return self._total("retries_n")

    @property
    def verified_n(self) -> int:
        return self._total("verified_n")

    @property
    def corruptions_n(self) -> int:
        return self._total("corruptions_n")

    @property
    def seam_verified_n(self) -> int:
        return self._total("seam_verified_n")

    @property
    def _corruptions(self) -> List:
        """Detections awaiting recovery across live shards."""
        return [
            e for sh in self._live() for e in sh.issuer._corruptions
        ]

    def remaining_kernel_bound(self, kernel) -> float:
        """Lower bound on remaining work: shards run concurrently, so
        the max over shards of their unissued kernel cost."""
        bounds = [
            sum(
                kernel.chunk_cost(sh.runtime.profile, c.t0, c.t1, translated=True)
                for c in sh.issuer.chunks[sh.issuer.issued:]
            )
            for sh in self._live()
        ]
        return max(bounds, default=0.0)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _sync_clocks(self, shards: Sequence[_Shard]) -> float:
        """Barrier the member host clocks to the latest one."""
        t = max(sh.runtime.elapsed for sh in shards)
        for sh in shards:
            if sh.runtime.host_now < t:
                sh.runtime.host_now = t
        return t

    def _halo_ranges_for(self, sh: _Shard) -> Optional[Dict]:
        """Input ranges ``sh`` shares with other shards — its seams.

        A transfer whose rows fall in a seam carries data another
        shard also depends on; with integrity on, its checksum is
        classified as a ``halo`` check so corruption at a shard seam
        is attributed separately from interior transfer noise.
        """
        if self.integrity == INTEGRITY_OFF or len(self._shards) <= 1:
            return None
        out: Dict[str, List[Tuple[int, int]]] = {}
        for var, spec in self.plan.specs.items():
            if not spec.clause.is_input:
                continue
            lo, hi = sh.plan.specs[var].total_range()
            ranges = []
            for other in self._shards:
                if other is sh or not other.alive:
                    continue
                olo, ohi = other.plan.specs[var].total_range()
                a, b = max(lo, olo), min(hi, ohi)
                if a < b:
                    ranges.append((a, b))
            if ranges:
                out[var] = ranges
        return out or None

    def _make_issuer(self, sh: _Shard, index: int, *, prefix: str) -> None:
        issuer = PipelineIssuer(
            sh.runtime, sh.plan, self.arrays, self.kernel,
            policy=self.policy,
            stream_prefix=f"{prefix}{index}.",
            region_span=False,
            router=self.router,
            recorder=self.recorder,
            reduction_residents=self.reduction_residents,
            integrity=self.integrity,
            halo_ranges=self._halo_ranges_for(sh),
        )
        # a shard's claim drains every member device, so one region's
        # faults are popped together wherever they landed
        issuer.claim_from = tuple(self.runtimes)
        sh.issuer = issuer

    def _charge_halo(self) -> None:
        """Charge the boundary pushes between neighboring shards.

        For each interior boundary, the overlap of the two shards'
        input ``SplitSpec`` ranges is data both sides touch — the halo.
        Its producer-side D2H (the push half of the modeled D2D) is
        charged to the left shard's device before the pipelines start;
        the consumer's H2D half is the ordinary first-lap transfer its
        own pipeline already pays for.  Purely a cost: every shard's
        pipeline reads its full dependency range from the host, so
        correctness never depends on this transfer.
        """
        for i in range(1, len(self._shards)):
            left, right = self._shards[i - 1], self._shards[i]
            for var, spec in self.plan.specs.items():
                if not spec.clause.is_input:
                    continue
                l_lo, l_hi = left.plan.specs[var].total_range()
                r_lo, r_hi = right.plan.specs[var].total_range()
                rows = min(l_hi, r_hi) - max(l_lo, r_lo)
                if rows <= 0:
                    continue
                nbytes = rows * spec.bytes_per_unit(
                    np.dtype(self.plan.dtypes[var]).itemsize
                )
                rt = left.runtime
                cmd = rt.device.submit_copy(
                    "d2h", int(nbytes),
                    enqueue_time=rt.host_now,
                    label=f"halo:{var}[{max(l_lo, r_lo)}:{min(l_hi, r_hi)})",
                )
                finish = rt.device.wait(cmd)
                if rt.host_now < finish:
                    rt.host_now = finish
                self.halo_bytes += int(nbytes)
                if self.recorder is not None:
                    self.recorder.record(
                        "shard.halo", t=rt.elapsed, var=var,
                        rows=rows, nbytes=int(nbytes), boundary=i,
                    )
        if self.halo_bytes:
            m = self._shards[0].runtime.metrics
            if m.enabled:
                m.counter("sharded.halo_bytes").inc(self.halo_bytes)

    def open(self) -> None:
        """Sync clocks, attach the shared link, charge halos, open shards."""
        if self._opened:
            return
        self._opened = True
        self._sync_clocks(self._shards)
        if self.measure:
            for sh in self._shards:
                sh.measurer = _Measurer(sh.runtime)
        if self.link is not None:
            for sh in self._shards:
                self.link.attach(sh.runtime.device)
        for idx, sh in enumerate(self._shards):
            self._make_issuer(sh, idx, prefix=self.stream_prefix)
        self._charge_halo()
        # consumers start after their halo arrived
        self._sync_clocks(self._shards)
        for sh in self._shards:
            sh.issuer.open()
            sh.opened_at = sh.runtime.elapsed
            if self.recorder is not None:
                self.recorder.record(
                    "shard.open", t=sh.runtime.elapsed,
                    shard=self._shards.index(sh), t0=sh.t0, t1=sh.t1,
                    device=sh.runtime.profile.name,
                )
        m = self._shards[0].runtime.metrics
        if m.enabled:
            m.counter("sharded.regions").inc()
            m.counter("sharded.shards").inc(len(self._shards))

    def issue_next(self):
        """Issue one chunk on the least-advanced live shard.

        Round-robin weighted by progress: the live shard with the most
        chunks remaining issues next (ties to shard order), so shards
        finish issuing together and the scheduler's fairness accounting
        sees one region, not N.  Returns the issued chunk, or ``None``
        when every shard has issued everything.

        With a :class:`WatchdogConfig`, a shard at its in-flight cap
        stops issuing; instead the member simulators are pumped to the
        globally-earliest pending event and per-shard progress is
        compared — a shard falling behind the pack is re-split away
        exactly like a lost device.
        """
        while True:
            candidates = [sh for sh in self._live() if sh.issuer.remaining]
            if not candidates:
                return None
            if self.watchdog is not None:
                if self._watchdog_check():
                    continue  # shard set changed: recompute candidates
                cap = self._wd_cap()
                ready = [
                    sh for sh in candidates if self._inflight(sh) < cap
                ]
                if not ready:
                    if self._pump():
                        continue
                    ready = candidates  # nothing in flight: no livelock
                candidates = ready
            sh = max(candidates, key=lambda s: s.issuer.remaining)
            try:
                return sh.issuer.issue_next()
            except DeviceLostError:
                if not self.self_heal:
                    raise
                self._reshard(sh)

    # ------------------------------------------------------------------
    # straggler watchdog
    # ------------------------------------------------------------------
    def _wd_cap(self) -> int:
        cap = self.watchdog.max_inflight
        if cap:
            return cap
        streams = max(
            (sh.issuer.streams_n for sh in self._live()), default=1
        )
        return max(2 * streams, 4)

    def _inflight(self, sh: _Shard) -> int:
        """Issued-but-incomplete chunks on one shard."""
        return sh.issuer.issued - len(self._completed_chunks(sh.issuer))

    def _pump(self) -> bool:
        """Advance member sims to the globally-earliest pending event.

        Returns False when nothing is in flight anywhere (the caller
        must then issue rather than spin).  Advancing every sim to the
        same instant keeps the shared-clock discipline: no shard's
        device ever runs ahead of a peer's observation of it.
        """
        sims = {
            id(sh.runtime.device.sim): sh.runtime.device.sim
            for sh in self._live()
        }.values()
        times = [
            s.next_event_time for s in sims if s.next_event_time is not None
        ]
        if not times:
            return False
        t = min(times)
        for s in sims:
            s.advance_to(t)
        return True

    def _watchdog_check(self) -> bool:
        """Compare per-shard completion *rates*; re-split stragglers.

        Rates (completed chunks per virtual second since the shard's
        own open) rather than raw fractions, so a freshly re-split
        shard — zero completions, tiny window — is judged against its
        own clock instead of being mistaken for a new straggler.  A
        shard with no completions yet renders no verdict; a hung (as
        opposed to slow) device is fail-stop territory, not the
        watchdog's.  Returns whether a shard was re-split (the caller's
        shard list is then stale).
        """
        live = self._live()
        if len(live) < 2:
            return False
        progress = []
        for sh in live:
            total = len(sh.issuer.chunks)
            done = len(self._completed_chunks(sh.issuer))
            window = sh.runtime.elapsed - sh.opened_at
            if total and done and window > 0.0:
                progress.append((sh, done, total, done / window))
        if len(progress) < 2:
            return False
        if max(done for _, done, _, _ in progress) < self.watchdog.min_done:
            return False
        best = max(rate for _, _, _, rate in progress)
        for sh, done, total, rate in progress:
            if done < total and rate < self.watchdog.ratio * best:
                self._reshard(sh, cause="straggler")
                return True
        return False

    def _issue_all(self) -> None:
        while self.issue_next() is not None:
            pass

    def _heal(self, step, after_reshard) -> None:
        """Run ``step(issuer)`` on every live shard until a pass is clean.

        Self-healing: a shard whose device dies mid-pass re-splits its
        incomplete iterations onto the survivors, ``after_reshard()``
        runs, and the pass starts over.  Without ``self_heal`` the loss
        propagates.
        """
        while True:
            for sh in list(self._shards):
                if not sh.alive or sh.issuer is None:
                    continue
                try:
                    step(sh.issuer)
                except DeviceLostError:
                    if not self.self_heal:
                        raise
                    self._reshard(sh)
                    after_reshard()
                    break
            else:
                return

    def drain(self) -> None:
        """Issue any remaining work and wait for all shards' streams
        (self-healing: work re-split off a dead shard is issued and
        drained too)."""
        self._issue_all()
        self._heal(PipelineIssuer.drain, self._issue_all)

    def recover(self, budget: Optional[int] = None) -> None:
        """Per-shard chunk-granular recovery: faults and corruptions.

        ``budget`` caps the replays of all shards together; a shard
        lost mid-recovery is re-split and drained, then every shard
        recovers again.
        """
        if self.policy is None and self.integrity == INTEGRITY_OFF:
            return

        def step(issuer: PipelineIssuer) -> None:
            nonlocal budget
            before = issuer.retries_n
            try:
                issuer.recover(budget=budget)
            finally:
                if budget is not None:
                    budget = max(0, budget - (issuer.retries_n - before))

        self._heal(step, self.drain)

    def account_stalls(self) -> None:
        for sh in self._live():
            sh.issuer.account_stalls()

    def finalize(self) -> None:
        """Finalize every live shard and detach the shared link."""
        if self._finalized:
            return
        self._finalized = True
        for sh in self._live():
            sh.issuer.finalize()
        self._merge_reductions()
        self._detach_link()

    def _merge_reductions(self) -> None:
        """Apply reduction-resident deltas in global chunk order.

        Replays the exact left fold a single device performs: the host
        value is the fold's seed, each chunk's delta its addend, and
        ordering by chunk start iteration reproduces single-device
        chunk order.  Deltas are deduped by chunk start — a chunk both
        computed on a since-dead shard and re-run on a survivor
        produced the identical delta twice.
        """
        if not self.reduction_residents:
            return
        parts: Dict[int, Dict[str, np.ndarray]] = {}
        for sh in self._shards:
            if sh.issuer is None:
                continue
            for t0, part in sh.issuer.reduction_parts:
                parts[t0] = part
        for t0 in sorted(parts):
            for var, delta in parts[t0].items():
                self.arrays[var] += delta

    def abort(self) -> None:
        """Failure-path teardown of every shard."""
        self._finalized = True
        for sh in self._shards:
            if sh.issuer is not None:
                sh.issuer.abort()
        self._detach_link()

    def _detach_link(self) -> None:
        if self.link is not None:
            for sh in self._shards:
                self.link.detach(sh.runtime.device)

    # ------------------------------------------------------------------
    # failover: re-split a dead shard's work across survivors
    # ------------------------------------------------------------------
    @staticmethod
    def _completed_chunks(issuer: PipelineIssuer) -> set:
        """Chunk indices whose every command retired cleanly.

        A chunk is complete iff all its commands finished without an
        injected error or poison — in particular its D2H drains, so its
        output rows are final in the host arrays.  Unissued chunks have
        no commands and are never complete.
        """
        status: Dict[int, bool] = {}
        for cmd in issuer.commands:
            k = cmd.chunk
            if k is None:
                continue
            ok = (
                cmd.finish_time is not None
                and cmd.error is None
                and not cmd.poisoned
            )
            status[k] = status.get(k, True) and ok
        return {k for k, ok in status.items() if ok}

    def _reshard(self, dead: _Shard, cause: str = "device-lost") -> None:
        """Absorb ``dead``'s loss: re-split its incomplete iterations.

        Completed chunks' outputs already reached the host; incomplete
        ones (including any chunk whose commands were in flight when
        the device died — poison propagation guarantees no partial
        kernel output reached the host) re-run on the survivors.
        Re-running a chunk is idempotent, so the result is exact.

        ``cause="straggler"`` retires a slow-but-*alive* shard: its
        completed outputs are valid and kept, but any chunk implicated
        by a still-pending corruption verdict is treated as incomplete
        so the re-run scrubs it.  A shard whose chunks all finish while
        it drains moves no work, and is not counted as a re-split.
        """
        dead.alive = False
        rt = dead.runtime
        if self.link is not None:
            self.link.detach(rt.device)
        if self.recorder is not None:
            self.recorder.record(
                "shard.lost" if cause == "device-lost" else "straggler",
                t=rt.elapsed,
                shard=self._shards.index(dead),
                device=rt.profile.name, t0=dead.t0, t1=dead.t1,
            )
        issuer = dead.issuer
        issuer.abort()
        done = self._completed_chunks(issuer)
        if issuer._corruptions:
            # a silently-corrupted chunk retires cleanly; anything a
            # pending verdict implicates must re-run on a survivor
            done -= set(issuer._affected_chunks(issuer._corruptions))
            issuer._corruptions.clear()
        pending = [c for c in issuer.chunks if c.index not in done]
        completed = [c for c in issuer.chunks if c.index in done]
        self._retired_chunks.extend(completed)
        self._base_issued += len(completed)
        survivors = [sh for sh in self._shards if sh.alive]
        if not survivors:
            raise DeviceLostError(
                "every shard device lost; no survivors to re-split onto"
            )
        if not pending:
            return  # every chunk finished while the shard drained
        # only a re-split that moves work counts
        self.migrated = True
        self.resplits += 1
        if cause == "straggler":
            self.straggler_resplits += 1
        t_r = min(c.t0 for c in pending)
        end = dead.t1
        trip = end - t_r
        takers = survivors[: max(1, min(len(survivors), trip))]
        parts = split_loop(
            Loop(self.plan.loop.var, t_r, end), [sh.weight for sh in takers]
        )
        self._sync_clocks(takers)
        new_shards: List[_Shard] = []
        for j, (sh_s, (a, b)) in enumerate(zip(takers, parts)):
            sub = _Shard(
                runtime=sh_s.runtime,
                t0=a,
                t1=b,
                plan=_subloop_plan(self.plan, a, b),
                weight=sh_s.weight,
                primary=False,
            )
            self._make_issuer(
                sub, j, prefix=f"{self.stream_prefix}r{self.resplits}_"
            )
            sub.issuer.open()
            sub.opened_at = sub.runtime.elapsed
            new_shards.append(sub)
        self._shards.extend(new_shards)
        if self.recorder is not None:
            self.recorder.record(
                "shard.resplit", t=self._clock(),
                t0=t_r, t1=end, survivors=len(takers),
                resplit=self.resplits,
            )
        m = self._shards[0].runtime.metrics
        if m.enabled:
            m.counter("sharded.resplits").inc()
            if cause == "straggler":
                m.counter("sharded.stragglers").inc()

    def _clock(self) -> float:
        return max(sh.runtime.elapsed for sh in self._shards)

    # ------------------------------------------------------------------
    # results (standalone mode)
    # ------------------------------------------------------------------
    def results(self) -> List[RegionResult]:
        """Per-device results (requires ``measure=True`` at open).

        One result per *original* shard; a re-split shard's work lands
        on a survivor's runtime, inside that survivor's measurement
        window.
        """
        out = []
        for sh in self._shards:
            if not sh.primary or sh.measurer is None:
                continue
            issuer = sh.issuer
            out.append(sh.measurer.finish(
                "pipelined-buffer",
                len(issuer.chunks),
                self.plan.chunk_size,
                issuer.streams_n,
                faults=issuer.faults_n,
                retries=issuer.retries_n,
                verified=issuer.verified_n,
                corruptions=issuer.corruptions_n,
            ))
        return out


def execute_sharded(
    runtimes: Sequence[Runtime],
    region,
    arrays: Dict[str, np.ndarray],
    kernel: RegionKernel,
    *,
    weights: Optional[Sequence[float]] = None,
    policy=None,
    recorder=None,
    integrity: str = INTEGRITY_OFF,
    watchdog=None,
) -> ShardedResult:
    """Run one region sharded across several devices on a shared clock.

    The standalone entry behind ``region.run(devices=...)``: splits the
    loop by probed throughput (or explicit ``weights``), runs one
    sub-pipeline per device with halo-exchange charges and shared-PCIe
    contention, and self-heals a mid-run device loss by re-splitting
    the dead shard's incomplete iterations across the survivors
    (``migrated=True`` in the result; outputs stay exact).  With
    ``integrity`` on, every shard's transfers are checksum-verified
    (seam rows as ``halo`` checks); with a ``watchdog``, slow-but-alive
    shards are re-split away too.
    """
    if not runtimes:
        raise DirectiveError("need at least one device")
    plan = region.bind(arrays)
    limit = (
        region.mem_limit.limit_bytes
        if region.mem_limit is not None
        else min(rt.device.memory.free for rt in runtimes)
    )
    plan = tune_plan(plan, limit)
    issuer = ShardedIssuer(
        runtimes, plan, arrays, kernel,
        weights=weights, policy=policy, recorder=recorder,
        self_heal=True, measure=True,
        integrity=integrity, watchdog=watchdog,
    )
    old_defer = [rt.defer_faults for rt in issuer.runtimes]
    if policy is not None:
        for rt in issuer.runtimes:
            rt.defer_faults = True
    try:
        issuer.open()
        while issuer.issue_next() is not None:
            pass
        issuer.drain()
        issuer.recover()
        issuer.account_stalls()
        issuer.finalize()
    except BaseException:
        issuer.abort()
        raise
    finally:
        for rt, was in zip(issuer.runtimes, old_defer):
            rt.defer_faults = was
    return ShardedResult(
        per_device=issuer.results(),
        shares=[t1 - t0 for t0, t1 in issuer.shares],
        migrated=issuer.migrated,
        resplits=issuer.resplits,
        halo_bytes=issuer.halo_bytes,
        faults=issuer.faults_n,
        retries=issuer.retries_n,
        verified=issuer.verified_n,
        corruptions=issuer.corruptions_n,
        seam_verified=issuer.seam_verified_n,
        stragglers=issuer.straggler_resplits,
    )

