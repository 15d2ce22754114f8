"""The Pipelined-buffer executor: the proposed runtime itself.

For each chunk ``i`` (assigned round-robin to stream ``i % S``) the
executor:

1. computes the chunk's **dependency slices** per ``pipeline_map``
   array ("Our framework calculates dependencies of the current
   chunk"),
2. enqueues H2D transfers for the *new* portion of each input slice —
   data already resident from earlier chunks is not re-transferred in
   ``dedup`` mode ("removes the data that only previous chunks
   require"); ``duplicate`` mode re-sends the whole slice,
3. guards ring-buffer **slot reuse** with event dependencies: a
   transfer into buffer positions ``p`` waits for the kernels (and
   drains) of the previous lap that still use ``p - capacity``,
4. launches the chunk's kernel once its inputs' transfer events have
   completed (cross-stream transfers included), with the ring-buffer
   index-translation cost applied, and
5. enqueues D2H transfers of the chunk's output slices, recording
   events that future laps' reuse checks consult.

Resident (``map``) arrays are allocated whole and copied synchronously
at region entry/exit, like ordinary OpenACC data regions.

The executor works identically in real mode (payloads move NumPy data;
results are verified against references) and virtual mode (metadata
only; same timeline and memory accounting).

The per-chunk issue logic lives in :class:`PipelineIssuer`, a resumable
object that issues one chunk's commands per :meth:`~PipelineIssuer.issue_next`
call.  :func:`execute_pipeline` drives one issuer start-to-finish (the
single-region model measured in the paper); :mod:`repro.serve`
interleaves many issuers over a shared device so one tenant's kernels
hide another's transfers.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.kernel import ChunkView, RegionKernel
from repro.core.pipemodel import Books, chunk_work, drain_outputs, stage_inputs
from repro.core.plan import Chunk, RegionPlan
from repro.core.ringbuffer import DeviceRing, RingPiece, ring_pieces
from repro.errors import ReproError
from repro.faults.policy import (
    CHUNK_EXHAUSTED,
    CHUNK_FAILED,
    CHUNK_OK,
    CHUNK_RECOVERED,
    FaultPolicy,
    RegionFailure,
)
from repro.gpu.errors import DeviceLostError, InvalidValueError, TransferError
from repro.gpu.runtime import ChunkOp, CopyLane, Runtime, copy_op, launch_op
from repro.integrity import (
    INTEGRITY_OFF,
    INTEGRITY_VOTE,
    digest,  # noqa: F401 - bench/layers.py trace target
    same_bytes,
    validate_integrity,
    verify_cost,
)
from repro.sim.engine import Command, EventToken
from repro.sim.trace import Timeline, overlap_fraction, time_distribution
from repro.sim.varray import is_virtual

__all__ = ["FaultRouter", "RegionResult", "PipelineIssuer", "execute_pipeline"]


@dataclass
class RegionResult:
    """Measured outcome of executing a region under one model.

    Attributes
    ----------
    model:
        ``"naive"``, ``"pipelined"``, or ``"pipelined-buffer"``.
    elapsed:
        End-to-end virtual seconds for the region (transfers included),
        the quantity the paper reports speedups over.
    memory_peak:
        Peak device memory during the region, **including** the driver
        context overhead — what a profiler such as ``nvidia-smi``
        reports and what Figures 6/10 plot.
    data_peak:
        Peak memory minus the context overhead (the region's own
        allocations).
    timeline:
        The rows of the commands the region retired: a view of the
        device's timeline store, which the retired ``Command`` objects
        were folded into when the region finished.  It is the input of
        :func:`repro.obs.analyze.analyze_result`.
    nchunks, chunk_size, num_streams:
        Effective pipeline shape (1/NA for the naive model).
    metrics:
        :meth:`repro.obs.MetricsRegistry.snapshot` taken when the
        region finished — populated only when the runtime carries an
        enabled :class:`~repro.obs.Observability`; ``{}`` otherwise.
    t_begin:
        Virtual time (``runtime.elapsed``) when the measurement window
        opened; ``t_begin + elapsed`` closes it.  The critical-path
        analyzer partitions exactly this window.
    faults:
        Faulted commands (injected + poisoned) the region absorbed.
        Zero unless a fault injector was installed.
    retries:
        Recovery replays (chunk replays, blocking-copy reissues, whole
        region re-attempts) performed to produce this result.
    verified:
        Integrity checks performed (checksum/vote commands plus
        synchronous replay re-verifications).  Zero with integrity off.
    corruptions:
        Silent corruptions detected (and recovered from) by those
        checks.
    """

    model: str
    elapsed: float
    memory_peak: int
    data_peak: int
    timeline: Timeline
    nchunks: int
    chunk_size: int
    num_streams: int
    metrics: Dict[str, object] = field(default_factory=dict)
    t_begin: float = 0.0
    faults: int = 0
    retries: int = 0
    verified: int = 0
    corruptions: int = 0

    @property
    def time_distribution(self) -> Dict[str, float]:
        """Busy seconds per command kind (h2d/d2h/kernel)."""
        return time_distribution(self.timeline)

    @property
    def overlap(self) -> float:
        """Fraction of transfer time hidden under kernels."""
        return overlap_fraction(self.timeline)

    def speedup_over(self, other: "RegionResult") -> float:
        """``other.elapsed / self.elapsed`` (how much faster than other)."""
        return other.elapsed / self.elapsed

    def memory_saving_over(self, other: "RegionResult") -> float:
        """Fractional memory reduction vs ``other`` (0.97 = 97% less)."""
        return 1.0 - self.memory_peak / other.memory_peak

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable digest (JSON-safe) for harness output."""
        dist = self.time_distribution
        d: Dict[str, object] = {
            "model": self.model,
            "elapsed_s": self.elapsed,
            "memory_peak_bytes": int(self.memory_peak),
            "data_peak_bytes": int(self.data_peak),
            "nchunks": self.nchunks,
            "chunk_size": self.chunk_size,
            "num_streams": self.num_streams,
            "busy_s": {k: dist[k] for k in ("h2d", "d2h", "kernel")},
            "overlap": self.overlap,
            "commands": len(self.timeline),
        }
        if self.faults or self.retries:
            d["faults"] = self.faults
            d["retries"] = self.retries
        if self.verified or self.corruptions:
            d["verified"] = self.verified
            d["corruptions"] = self.corruptions
        if self.metrics:
            d["metrics"] = self.metrics
        return d

    def summary(self) -> str:
        """Multi-line human-readable digest of the region's execution."""
        d = self.time_distribution
        util = self.timeline.engine_utilization()
        util_s = "  ".join(f"{e}={u:.0%}" for e, u in sorted(util.items()))
        lines = [
            f"model            {self.model}",
            f"elapsed          {self.elapsed * 1e3:.3f} ms",
            f"chunks           {self.nchunks} (chunk_size={self.chunk_size}, "
            f"streams={self.num_streams})",
            f"busy time        h2d={d['h2d'] * 1e3:.3f} ms  "
            f"d2h={d['d2h'] * 1e3:.3f} ms  kernel={d['kernel'] * 1e3:.3f} ms",
            f"transfer overlap {self.overlap:.1%}",
            f"engine util      {util_s}",
            f"device memory    peak {self.memory_peak / 1e6:.1f} MB "
            f"(data {self.data_peak / 1e6:.1f} MB + context)",
        ]
        if self.faults or self.retries:
            lines.append(
                f"fault recovery   {self.faults} fault(s) absorbed, "
                f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}"
            )
        if self.verified or self.corruptions:
            lines.append(
                f"integrity        {self.verified} check(s), "
                f"{self.corruptions} corruption(s) detected"
            )
        return "\n".join(lines)


class _Measurer:
    """Captures elapsed/memory/timeline deltas around a region."""

    def __init__(self, runtime: Runtime) -> None:
        self.rt = runtime
        self.t0 = runtime.elapsed
        self.n0 = runtime.device.retired
        runtime.device.memory.reset_peak()

    def finish(
        self, model: str, nchunks: int, chunk_size: int, num_streams: int,
        faults: int = 0, retries: int = 0, verified: int = 0,
        corruptions: int = 0,
    ) -> RegionResult:
        """Close the measurement window and package the result."""
        rt = self.rt
        mem = rt.device.memory
        timeline = rt.device.timeline(self.n0)
        snapshot: Dict[str, object] = {}
        m = rt.metrics
        if m.enabled:
            for eng, util in timeline.engine_utilization().items():
                m.gauge(f"engine.util.{eng}").set(util)
            m.gauge("mem.peak").set(mem.peak)
            m.gauge("mem.data_peak").set(mem.peak - mem.context_overhead)
            snapshot = m.snapshot()
        return RegionResult(
            model=model,
            elapsed=rt.elapsed - self.t0,
            memory_peak=mem.peak,
            data_peak=mem.peak - mem.context_overhead,
            timeline=timeline,
            nchunks=nchunks,
            chunk_size=chunk_size,
            num_streams=num_streams,
            metrics=snapshot,
            t_begin=self.t0,
            faults=faults,
            retries=retries,
            verified=verified,
            corruptions=corruptions,
        )


class _Lane(NamedTuple):
    """One pipelined array's issue program, resolved once at ``open()``
    and carried as its :class:`~repro.core.pipemodel.Books`' ``lane``."""

    var: str
    ring: DeviceRing
    host: object
    #: the array's transfers into and out of its ring
    h2d: CopyLane
    d2h: CopyLane
    #: whether the ring / the host array holds real data: a copy's
    #: payload and silent-fault sink need views of the real sides only
    dev_real: bool
    host_real: bool


def _axis_slice(ndim: int, dim: int, lo: int, hi: int) -> tuple:
    idx: list = [slice(None)] * ndim
    idx[dim] = slice(lo, hi)
    return tuple(idx)


def _cleanup_after_failure(runtime: Runtime, device_arrays, claim=None) -> None:
    """Best-effort teardown after a failed region.

    Drains the device without letting sync-point fault reporting mask
    the original exception, claims any fault backlog (via ``claim``
    when given, so a scheduler can route co-tenant faults to their
    owners instead of dropping them), and releases the region's device
    allocations so a degraded re-attempt (or the caller) starts from a
    clean allocator.  Only the runtime's own errors (:class:`ReproError`)
    are swallowed; anything else is a bug and propagates.
    """
    old_defer, runtime.defer_faults = runtime.defer_faults, True
    try:
        with suppress(ReproError):
            runtime.synchronize()
    finally:
        runtime.defer_faults = old_defer
    with suppress(ReproError):
        (claim or runtime.pop_faults)()
    for arr in device_arrays:
        with suppress(ReproError):
            runtime.free(arr)


def _charge_backoff(
    runtime: Runtime, policy: FaultPolicy, attempt: int,
    replays: Optional[str] = None,
) -> float:
    """Charge retry ``attempt``'s backoff (0-based) to the host clock.

    Every recovery path retries through here.  The retry is counted in
    ``faults.retries``; its backoff seconds go to
    ``faults.backoff_seconds``, unless ``replays`` names a counter that
    tallies the replay instead (integrity replays).  Returns the delay.
    """
    delay = policy.backoff_for(attempt)
    runtime.host_now += delay
    m = runtime.metrics
    if m.enabled:
        m.counter("faults.retries").inc()
        if replays is None:
            m.counter("faults.backoff_seconds").inc(delay)
        else:
            m.counter(replays).inc()
    return delay


class FaultRouter:
    """Hands faults popped off shared runtimes to the issuers that own them.

    ``Runtime.pop_faults`` returns every unclaimed fault on a device,
    whichever issuer enqueued the command.  A claim through the router
    pops the claimant's runtimes once, passes each popped fault to
    ``on_fault(runtime, command)`` (a scheduler feeds its circuit
    breaker there), and parks each with the registered issuer whose
    ``meta`` holds the command until that issuer claims.  Faults no
    registered issuer owns go to the claimant, which counts and ignores
    them.

    Owners are keyed by the ``id`` of their ``meta`` dict, which the
    router holds while they are registered: it references no issuer, so
    it adds no reference cycle.
    """

    def __init__(self, on_fault=None) -> None:
        self.on_fault = on_fault
        self._owners: Dict[int, Dict[Command, int]] = {}
        self._held: Dict[int, List[Command]] = {}

    def register(self, meta: Dict[Command, int]) -> None:
        """Route faults on the commands in ``meta`` to its issuer."""
        self._owners[id(meta)] = meta

    def release(self, meta: Dict[Command, int]) -> None:
        """Stop routing to ``meta``'s issuer; drop what was parked for it."""
        self._owners.pop(id(meta), None)
        self._held.pop(id(meta), None)

    def claim(self, meta: Dict[Command, int], runtimes) -> List[Command]:
        """Pop ``runtimes``' faults; return ``meta``'s issuer's share.

        That share is everything parked for it earlier, then, in pop
        order, its own new faults and the orphans.
        """
        key = id(meta)
        out = self._held.pop(key, [])
        for rt in runtimes:
            for cmd in rt.pop_faults():
                if self.on_fault is not None:
                    self.on_fault(rt, cmd)
                owner = next(
                    (k for k, m in self._owners.items() if cmd in m), key
                )
                if owner == key:
                    out.append(cmd)
                else:
                    self._held.setdefault(owner, []).append(cmd)
        return out


class PipelineIssuer:
    """Resumable per-chunk command issue for one pipelined region.

    The issuer owns the region-lifetime state of the Pipelined-buffer
    model — streams, resident device arrays, ring buffers, per-array
    event books — and exposes the pipeline as a sequence of small
    steps:

    - :meth:`open` creates streams, stages resident arrays, and
      allocates the ring buffers;
    - :meth:`issue_next` enqueues *one* chunk's dependency transfers,
      kernel launch, and output drains, then returns (nothing blocks);
    - :meth:`drain` blocks until every command this issuer enqueued on
      its own streams has retired;
    - :meth:`finalize` copies resident arrays back and frees all device
      allocations;
    - :meth:`abort` is the failure-path teardown.

    :func:`execute_pipeline` issues every chunk back-to-back, which is
    exactly the paper's single-region pipeline.  A scheduler (see
    :mod:`repro.serve`) can instead hold several issuers on one runtime
    and alternate ``issue_next`` calls between them: because the issuer
    saves and restores the runtime's per-call overhead scale around
    every step, regions with different stream counts interleave without
    perturbing each other's host-clock accounting, and their commands
    contend only where they truly share engines.

    Attributes of note: :attr:`commands` collects every device command
    this issuer enqueued (used for per-tenant busy-time attribution),
    :attr:`faults_n`/:attr:`retries_n` count policy-absorbed faults and
    replays.
    """

    def __init__(
        self,
        runtime: Runtime,
        plan: RegionPlan,
        arrays: Dict[str, np.ndarray],
        kernel: RegionKernel,
        *,
        policy: Optional[FaultPolicy] = None,
        stream_prefix: str = "pipe",
        region_span: bool = True,
        router: Optional[FaultRouter] = None,
        recorder=None,
        reduction_residents=None,
        integrity: str = INTEGRITY_OFF,
        halo_ranges=None,
    ) -> None:
        self.runtime = runtime
        self.plan = plan
        self.arrays = arrays
        self.kernel = kernel
        self.policy = policy
        #: resident vars treated as *reduction accumulators*: staged as
        #: zeros, per-chunk deltas snapshotted into
        #: :attr:`reduction_parts`, and the final writeback suppressed
        #: (a sharded merge applies the deltas in global chunk order).
        #: Only valid for kernels whose resident update is additive and
        #: independent of the resident's prior value (``C += f(in)``).
        self.reduction_residents = frozenset(reduction_residents or ())
        #: ``(chunk_t0, {var: delta})`` snapshots, one per executed chunk
        self.reduction_parts: List[Tuple[int, Dict[str, np.ndarray]]] = []
        #: :class:`FaultRouter` this issuer claims its faults through,
        #: so one tenant's recovery never claims — and silently drops —
        #: another tenant's faults; ``None`` (sole tenant) pops the
        #: runtime directly
        self.router = router
        #: runtimes a claim through the router drains: this issuer's
        #: own, or every member device for one shard of a region
        self.claim_from: Tuple[Runtime, ...] = (runtime,)
        #: optional :class:`~repro.obs.recorder.FlightRecorder`; when
        #: set, chunk issues / replays / claimed faults are logged into
        #: its bounded ring (no effect on timing)
        self.recorder = recorder
        self.profile = runtime.profile
        self.chunks = plan.chunks()
        self.streams_n = min(plan.num_streams, len(self.chunks))
        self.stream_prefix = stream_prefix
        self.region_span = region_span
        self.tracer = runtime.tracer
        self.tr_on = self.tracer.enabled
        self.m_on = runtime.metrics.enabled
        #: host-call overhead scale / per-command contention this region
        #: imposes while it is the one talking to the runtime
        self.scale = 1.0 + self.profile.runtime_stream_factor * (self.streams_n - 1)
        self.contention = self.profile.runtime_stream_contention * (self.streams_n - 1)
        self.faults_n = 0
        self.retries_n = 0
        #: command -> chunk index, for mapping faults back to replay units
        self.meta: Dict[Command, int] = {}
        #: every device command this issuer enqueued, in issue order
        self.commands: List[Command] = []
        if router is not None:
            router.register(self.meta)
        self.resident_dev: Dict[str, object] = {}
        self.rings: Dict[str, DeviceRing] = {}
        self.books: Dict[str, Books] = {}
        #: the same books in ``plan.specs`` order, each carrying its
        #: array's :class:`_Lane` (built by open)
        self._books: List[Books] = []
        #: the chunk table (:func:`~repro.core.pipemodel.chunk_work`,
        #: read by open)
        self._work: tuple = ()
        self.streams: List = []
        # (command, gating tokens) pairs for slot-reuse stall accounting;
        # resolved after the pipeline drains, once tokens have times
        self.stall_watch: list = []
        self.virtual = any(is_virtual(arrays[v]) for v in arrays) or runtime.virtual
        self.rspan = None
        self._cursor = 0
        #: the chunk issue_next is issuing, as its issue_h2d / issue_d2h
        #: callbacks read it: stream, index, op lists, gates, check counts
        self._st = self._h2d_ops = self._d2h_ops = self._gated = None
        self._index = self._checks = self._seams = 0
        self._opened = False
        self._finalized = False
        #: silent-failure defense mode: off / checksum / vote
        self.integrity = validate_integrity(integrity)
        #: per-issuer flags the issue loop tests instead of the modes
        self._verify = self.integrity != INTEGRITY_OFF
        self._vote = self.integrity == INTEGRITY_VOTE
        self._dedup = plan.halo_mode == "dedup"
        #: split-dim ranges of ``arrays`` this shard receives across a
        #: seam from a neighbouring shard — verify commands covering
        #: them are classified as halo checks (``{var: [(lo, hi), ...]}``)
        self.halo_ranges = {
            v: [tuple(r) for r in rs] for v, rs in (halo_ranges or {}).items()
        }
        #: integrity checks performed / corruptions detected
        self.verified_n = 0
        self.corruptions_n = 0
        self.seam_verified_n = 0
        #: append-only log of every detection, as
        #: ``(var, lo, hi, chunk, kind, time)``
        self.corruption_log: List[Tuple] = []
        #: detections awaiting recovery (drained by :meth:`recover`)
        self._corruptions: List[Tuple] = []
        self.verify_stream = None
        #: retry bounds for corruption replays when no policy is set
        self._ipolicy = policy if policy is not None else FaultPolicy()
        #: single-device reduction self-merge: with integrity on,
        #: writable residents run in reduction mode so a corrupted
        #: chunk's replay supersedes its delta (keep-last dedup) —
        #: without it, replaying an accumulating chunk would
        #: double-apply its contribution
        self.merge_reductions = False
        if self._verify:
            if self._vote:
                for var, spec in plan.specs.items():
                    if spec.clause.is_input and spec.clause.is_output:
                        raise InvalidValueError(
                            f"integrity 'vote' cannot dual-execute over "
                            f"tofrom pipelined array {var!r} (its input is "
                            f"overwritten in place); use 'checksum'"
                        )
            if not self.reduction_residents:
                red = frozenset(
                    v for v, cl in plan.residents.items()
                    if cl.direction in ("from", "tofrom")
                )
                if red:
                    self.reduction_residents = red
                    self.merge_reductions = True

    # ------------------------------------------------------------------
    # progress
    # ------------------------------------------------------------------
    @property
    def issued(self) -> int:
        """Chunks issued so far."""
        return self._cursor

    @property
    def remaining(self) -> int:
        """Chunks not yet issued."""
        return len(self.chunks) - self._cursor

    def _impose_overheads(self) -> Tuple[float, float]:
        """Impose this region's overhead scale for one step; returns the
        runtime's previous ``(call_overhead_scale, command_overhead)``,
        which the step restores in a ``finally``.

        Interleaved issuers each see their own stream-count-dependent
        API-call cost, exactly as if each region had the runtime to
        itself for the duration of the step.
        """
        rt = self.runtime
        prev = (rt.call_overhead_scale, rt.command_overhead)
        rt.call_overhead_scale = self.scale
        rt.command_overhead = self.contention
        return prev

    def _claim(self) -> List[Command]:
        """Claim this issuer's faulted commands (see :attr:`router`)."""
        if self.router is None:
            return self.runtime.pop_faults()
        return self.router.claim(self.meta, self.claim_from)

    def _record_faults(self, pending) -> None:
        """Log claimed faults into the flight recorder (if any)."""
        if self.recorder is None or not pending:
            return
        for c in pending:
            self.recorder.record(
                "fault", t=self.runtime.elapsed,
                fault=c.error.kind if c.error is not None else "poisoned",
                label=c.label, chunk=self.meta.get(c),
            )

    def _blocking_with_retry(self, issue, what: str, verify=None) -> None:
        """Run a blocking resident copy, reissuing it under the policy.

        Resident copies are whole-array and synchronous, so reissuing
        the copy in place (with backoff) is an exact replay.  With
        integrity on, ``verify`` (a zero-arg callable returning the two
        array views that must be byte-identical after the copy) is
        compared synchronously — the modelled checksum charged to host
        time — and a mismatch reissues the copy exactly like a
        fail-stop fault.
        """
        runtime = self.runtime
        policy = self.policy
        check = self._verify and verify is not None
        if policy is None and not check:
            self.commands.append(issue())
            return
        retry = policy if policy is not None else self._ipolicy
        attempt = 0
        while True:
            cmd = issue()
            self.commands.append(cmd)
            if policy is not None:
                # chunkless sentinel: lets a fault router attribute the
                # blocking copy to this issuer without making it a
                # replay unit
                self.meta[cmd] = -1
            bad = self._claim() if policy is not None else []
            corrupt = False
            if check and not bad:
                runtime.host_now += verify_cost(cmd.nbytes)
                self.verified_n += 1
                if not self.virtual:
                    a, b = verify()
                    if not same_bytes(a, b):
                        corrupt = True
                        self._note_corruption(
                            what, 0, 0, -1, "resident", recover=False
                        )
            if not bad and not corrupt:
                return
            self.faults_n += len(bad)
            self._record_faults(bad)
            if runtime.device.lost:
                raise DeviceLostError(
                    f"device lost during {what}", pending=len(bad)
                )
            if attempt >= retry.max_retries:
                raise TransferError(
                    f"{what} still "
                    f"{'corrupt' if corrupt else 'faulting'} after "
                    f"{retry.max_retries} retries",
                    fault=bad[0].error if bad else None,
                    pending=len(bad) or 1,
                )
            _charge_backoff(runtime, retry, attempt)
            attempt += 1
            self.retries_n += 1

    # ------------------------------------------------------------------
    # integrity: detection
    # ------------------------------------------------------------------
    def _in_halo(self, var: str, lo: int, hi: int) -> bool:
        """Whether ``[lo, hi)`` of ``var`` crosses a shard-seam range."""
        for rlo, rhi in self.halo_ranges.get(var, ()):
            if rlo < hi and rhi > lo:
                return True
        return False

    def _note_corruption(
        self, var: str, lo: int, hi: int, chunk_index: int, kind: str,
        *, recover: bool = True,
    ) -> None:
        """Log one detected corruption (and queue it for recovery)."""
        runtime = self.runtime
        self.corruptions_n += 1
        entry = (var, lo, hi, chunk_index, kind, runtime.device.now)
        self.corruption_log.append(entry)
        if recover:
            self._corruptions.append(entry)
        if self.recorder is not None:
            self.recorder.record(
                "corruption", t=runtime.elapsed, var=var, lo=lo, hi=hi,
                chunk=(chunk_index if chunk_index >= 0 else None), cause=kind,
            )
        if self.m_on:
            runtime.metrics.counter("integrity.corruptions").inc()

    def _checksum_payload(self, var: str, piece, chunk_index: int, kind: str):
        if self.virtual:
            return None
        ring, host = self.rings[var], self.arrays[var]

        def run() -> None:
            if not same_bytes(
                ring.device_view(piece).backing, ring.host_section(host, piece)
            ):
                self._note_corruption(
                    var, piece.g_lo, piece.g_hi, chunk_index, kind
                )

        return run

    def _verify_op(
        self, book: Books, piece: RingPiece, tok: EventToken, chunk_index: int,
        kind: str,
    ) -> ChunkOp:
        """The checksum command covering one transfer piece (``kind``:
        ``h2d``, ``halo`` or ``d2h``).

        The verify command waits on the transfer it checks (``tok``),
        runs on the dedicated verify stream at the modelled digest
        bandwidth (:data:`~repro.integrity.CHECKSUM_BYTES_PER_SECOND`),
        and is registered as a *reader* of the piece's range so ring-slot
        reuse cannot overwrite data that has not been verified yet.
        """
        lane = book.lane
        var, g_lo, g_hi = lane.var, piece.g_lo, piece.g_hi
        nbytes = (g_hi - g_lo) * lane.h2d.unit_bytes
        vtok = EventToken.acquire(f"verify:{var}:{g_lo}")
        book.readers.append((g_lo, g_hi, vtok))
        return launch_op(
            self.verify_stream, (tok,), (vtok,), None,
            f"verify:{kind}:{var}[{g_lo}:{g_hi})", verify_cost(nbytes), nbytes,
            self._checksum_payload(var, piece, chunk_index, kind), None,
        )

    def _dual_execute_check(self, chunk: Chunk):
        """Payload for a vote command: re-run the chunk, compare outputs.

        Inputs are re-gathered from the (checksum-verified) rings;
        reduction residents recompute into scratch and are compared
        against the chunk's snapshotted delta.  Any mismatch means the
        primary kernel miscomputed — checksums alone cannot see that,
        because a wrong-but-self-consistent output checks equal on
        both sides of its drain.
        """
        if self.virtual:
            return None
        rings = self.rings

        def run() -> None:
            views, out_ranges = self._chunk_views(chunk)
            red_tmp: Dict[str, np.ndarray] = {}
            for var in self.resident_dev:
                if var in self.reduction_residents:
                    tmp = red_tmp[var] = np.zeros_like(self.arrays[var])
                    views[var] = ChunkView(tmp, None, 0, tmp.shape[0])
            self.kernel.run(views, chunk.t0, chunk.t1)
            for var, (lo, hi) in out_ranges.items():
                if not same_bytes(views[var].data, rings[var].gather(lo, hi)):
                    self._note_corruption(var, lo, hi, chunk.index, "vote")
            if red_tmp:
                part = None
                for t0, p in reversed(self.reduction_parts):
                    if t0 == chunk.t0:
                        part = p
                        break
                for var, tmp in red_tmp.items():
                    if part is None or var not in part or \
                            not same_bytes(tmp, part[var]):
                        self._note_corruption(
                            var, chunk.t0, chunk.t1, chunk.index, "vote"
                        )

        return run

    def _vote_op(self, chunk: Chunk, ktok: EventToken, ranges, cost) -> ChunkOp:
        """The dual-execution check for one chunk (vote mode).

        The re-execution waits on the primary kernel (and inherits its
        poison, so a fail-stop-faulted kernel never triggers a bogus
        vote) and registers as a reader of every range it re-gathers,
        keeping slot reuse honest.
        """
        v2tok = EventToken.acquire(f"vote:{chunk.index}")
        for book, (lo, hi) in zip(self._books, ranges):
            book.readers.append((lo, hi, v2tok))
        return launch_op(
            self.verify_stream, (ktok,), (v2tok,), None,
            f"verify:vote:{self.kernel.name}[{chunk.t0}:{chunk.t1})", cost, 0,
            self._dual_execute_check(chunk), None,
        )

    def _kernel_sink(self, chunk: Chunk):
        """Resolve where a silent kernel miscompute lands for ``chunk``.

        Returned as a zero-arg callable so the injector reads the
        written data at *retirement* (after the payload has scattered
        outputs), not at enqueue time.  ``None`` in virtual mode — the
        injector still logs the event, keeping real/virtual fault
        timelines aligned.
        """
        if self.virtual:
            return None
        plan = self.plan
        books = dict(zip(plan.specs, zip(self._books, self._work[chunk.index][3])))

        def resolve():
            for var in sorted(books):
                book, (lo, hi) = books[var]
                if not book.is_output:
                    continue
                ring = book.lane.ring
                pieces = ring.pieces(lo, hi)
                if pieces:
                    return ring.device_view(pieces[0]).backing
            if self.reduction_residents:
                for t0, part in reversed(self.reduction_parts):
                    if t0 != chunk.t0:
                        continue
                    for var in sorted(part):
                        return part[var]
            for var in sorted(self.resident_dev):
                if plan.residents[var].direction in ("from", "tofrom"):
                    return self.resident_dev[var].backing
            return None

        return resolve

    # ------------------------------------------------------------------
    # lifecycle steps
    # ------------------------------------------------------------------
    def open(self) -> None:
        """Create streams, stage resident arrays, allocate ring buffers.

        Raises :class:`~repro.gpu.errors.OutOfMemoryError` if the ring
        buffers or resident arrays do not fit; the caller (scheduler)
        owns admission control and may retry after releasing memory.
        """
        if self._opened:
            return
        self._opened = True
        runtime, plan, arrays = self.runtime, self.plan, self.arrays
        if self.tr_on and self.region_span:
            self.rspan = self.tracer.begin(
                f"region:{self.kernel.name}", "region",
                model="pipelined-buffer", nchunks=len(self.chunks),
                chunk_size=plan.chunk_size, streams=self.streams_n,
            )
        prev = self._impose_overheads()
        try:
            self.streams = [
                runtime.create_stream(f"{self.stream_prefix}{i}")
                for i in range(self.streams_n)
            ]
            if self._verify:
                # dedicated verify stream: checks overlap the pipeline's
                # own streams instead of serializing behind chunk work;
                # deliberately excluded from streams_n so the region's
                # host-overhead scale matches an integrity-off run
                self.verify_stream = runtime.create_stream(
                    f"{self.stream_prefix}v"
                )

            # resident arrays: whole-array data region
            for var, clause in plan.residents.items():
                host = arrays[var]
                dev = runtime.malloc(host.shape, host.dtype, tag=f"{var}:resident")
                self.resident_dev[var] = dev
                if clause.direction in ("to", "tofrom"):
                    self._blocking_with_retry(
                        lambda d=dev, h=host, v=var: runtime.memcpy_h2d(
                            d, h, label=f"h2d:{v}:resident"
                        ),
                        f"resident h2d of {var!r}",
                        verify=lambda d=dev, h=host: (d.backing, h),
                    )
                if var in self.reduction_residents and not self.virtual:
                    # reduction accumulator: this shard contributes a
                    # delta on top of zeros; the staged host value is
                    # merged exactly once, by the sharded merge
                    dev.backing[...] = 0

            # ring buffers
            for var, spec in plan.specs.items():
                host = arrays[var]
                self.rings[var] = DeviceRing(
                    runtime,
                    host.shape,
                    spec.split_dim,
                    plan.ring_capacity(var),
                    host.dtype,
                    tag=f"{var}:ring",
                )
        finally:
            runtime.call_overhead_scale, runtime.command_overhead = prev
        self._books = [
            Books(spec.clause, self.rings[var].capacity, self._lane(var))
            for var, spec in plan.specs.items()
        ]
        self.books = dict(zip(plan.specs, self._books))
        #: per chunk ``(index, t0, t1, ranges, launch, cost)``: the table
        #: the analytic dry-run model prices autotune candidates from
        self._work = chunk_work(plan, self.kernel, self.profile, self.chunks)

    def _lane(self, var: str) -> _Lane:
        """Resolve and check one pipelined array's issue program.

        What a public copy call checks per call is checked here once:
        the ring is allocated for the host array's shape and both
        directions have an engine.  Pinnedness is the whole host
        array's, so a piece of a pinned array is priced pinned.
        """
        runtime, ring, host = self.runtime, self.rings[var], self.arrays[var]
        ring.darr._check_alive()
        if ring.host_shape != tuple(host.shape):
            raise InvalidValueError(
                f"ring of {var!r} stages shape {ring.host_shape}, "
                f"not the host array's {tuple(host.shape)}"
            )
        pinned = runtime.is_registered(host)
        h2d, d2h = (
            CopyLane(
                kind, runtime.device.copy_engine(kind), ring.rows,
                ring.unit_row_bytes, ring.unit_elems * ring.itemsize, ring.darr,
                pinned,
            )
            for kind in ("h2d", "d2h")
        )
        return _Lane(
            var, ring, host, h2d, d2h, not ring.darr.is_virtual, not is_virtual(host),
        )

    def _chunk_views(
        self, chunk: Chunk
    ) -> Tuple[Dict[str, ChunkView], Dict[str, Tuple[int, int]]]:
        """A chunk kernel's views — pipelined inputs gathered from their
        rings, zeroed outputs, residents in place — and the output
        ranges to scatter back."""
        views: Dict[str, ChunkView] = {}
        out_ranges: Dict[str, Tuple[int, int]] = {}
        for book, (lo, hi) in zip(self._books, self._work[chunk.index][3]):
            var, ring = book.lane.var, book.lane.ring
            if book.is_input:
                data = ring.gather(lo, hi)
            else:
                shape = list(ring.host_shape)
                shape[ring.split_dim] = hi - lo
                data = np.zeros(shape, dtype=self.arrays[var].dtype)
            views[var] = ChunkView(data, ring.split_dim, lo, hi)
            if book.is_output:
                out_ranges[var] = (lo, hi)
        for var, dev in self.resident_dev.items():
            views[var] = ChunkView(dev.backing, None, 0, dev.shape[0])
        return views, out_ranges

    def _kernel_payload(self, chunk: Chunk):
        if self.virtual:
            return None
        rings, resident_dev, kernel = self.rings, self.resident_dev, self.kernel

        def run() -> None:
            views, out_ranges = self._chunk_views(chunk)
            kernel.run(views, chunk.t0, chunk.t1)
            for var, (lo, hi) in out_ranges.items():
                rings[var].scatter(views[var].data, lo, hi)
            if self.reduction_residents:
                # snapshot this chunk's delta and reset the accumulator
                # so every chunk's contribution is isolated; a replayed
                # chunk snapshots the identical delta again (the merge
                # dedups by chunk start)
                part = {}
                for var in self.reduction_residents:
                    dev = resident_dev.get(var)
                    if dev is None:
                        continue
                    part[var] = np.array(dev.backing, copy=True)
                    dev.backing[...] = 0
                self.reduction_parts.append((chunk.t0, part))

        return run

    def _piece_op(
        self, lane: _Lane, copy: CopyLane, piece: RingPiece, stream, waits,
        records, poison_waits, label: str,
    ) -> ChunkOp:
        """One piece's transfer; views of the real sides only, so a
        virtual region builds none."""
        ring = lane.ring
        dev = ring.device_view(piece).backing if lane.dev_real else None
        host = ring.host_section(lane.host, piece) if lane.host_real else None
        dst, src = (dev, host) if copy is lane.h2d else (host, dev)
        return copy_op(
            copy, stream, waits, records, poison_waits, label,
            piece.g_hi - piece.g_lo, dst, src,
        )

    def issue_next(self) -> Optional[Chunk]:
        """Issue one chunk's H2D → kernel → D2H commands; never blocks.

        Returns the issued :class:`~repro.core.plan.Chunk`, or ``None``
        when every chunk has already been issued.

        Everything fixed for the region's lifetime (the chunk table,
        lanes, integrity and halo modes) was resolved and checked by
        :meth:`open`; per chunk this pays only for interval bookkeeping
        and one :meth:`~repro.gpu.runtime.Runtime.enqueue_chunk` call.
        """
        cursor = self._cursor
        if cursor >= len(self.chunks):
            return None
        chunk = self.chunks[cursor]
        self._cursor = cursor + 1
        index, t0, t1, ranges, _launch, cost = self._work[cursor]
        books, tracer, tr_on = self._books, self.tracer, self.tr_on
        st = self.streams[index % self.streams_n]
        # the shared wait policy calls back issue_h2d / issue_d2h
        self._st, self._index = st, index
        h2d_ops = self._h2d_ops = []
        d2h_ops = self._d2h_ops = []
        #: (op position, slot-reuse gate) pairs for stall accounting
        gated = self._gated = []
        self._checks = self._seams = 0
        in_tokens: List[EventToken] = []
        out_reuse: List[EventToken] = []
        stage_inputs(books, ranges, self._dedup, self, in_tokens, out_reuse)
        if out_reuse and self.m_on:
            gated.append((len(h2d_ops), out_reuse))

        kernel = self.kernel
        ktok = EventToken.acquire(f"kernel:{index}")
        kernel_op = launch_op(
            st, in_tokens + out_reuse, (ktok,),
            # only the input transfers are data dependencies; the
            # out_reuse waits guard slot recycling
            in_tokens,
            f"{kernel.name}[{t0}:{t1})", cost, 0,
            self._kernel_payload(chunk), self._kernel_sink(chunk),
        )
        drain_outputs(books, ranges, ktok, self)
        if self._vote:
            d2h_ops.append(self._vote_op(chunk, ktok, ranges, cost))
            self._checks += 1
        self._h2d_ops = self._d2h_ops = self._gated = None

        prev = self._impose_overheads()
        try:
            on_phase = None
            if tr_on:
                cspan = tracer.begin(
                    f"chunk:{index}", "chunk",
                    chunk=index, stream=st.name, t0=t0, t1=t1,
                )
                # plan: this chunk's dependency slices and ring slots
                psp = tracer.begin("plan", "phase", chunk=index)
                psp.set(slots={
                    book.lane.var: lo % book.capacity
                    for book, (lo, _hi) in zip(books, ranges)
                })
                tracer.end(psp)
                phase = [tracer.begin("h2d", "phase", chunk=index)]

                def on_phase(k: int) -> None:
                    tracer.end(phase[0])
                    if k == 1:
                        phase[0] = tracer.begin(
                            "kernel", "phase", chunk=index,
                            waits=len(in_tokens) + len(out_reuse),
                        )
                    else:
                        phase[0] = tracer.begin("d2h", "phase", chunk=index)

            cmds = self.runtime.enqueue_chunk(
                (h2d_ops, (kernel_op,), d2h_ops), chunk=index, on_phase=on_phase
            )
            if tr_on:
                tracer.end(phase[0])
                # the slots this chunk's retiring work hands back to the
                # ring for the next lap's transfers
                tracer.instant(
                    "slot-release", "phase", chunk=index,
                    released={
                        book.lane.var: [lo % book.capacity, lo, hi]
                        for book, (lo, hi) in zip(books, ranges)
                    },
                )
                tracer.end(cspan)
        finally:
            self.runtime.call_overhead_scale, self.runtime.command_overhead = prev
        self.commands += cmds
        if self.policy is not None:
            self.meta.update(dict.fromkeys(cmds, index))
        for i, toks in gated:
            self.stall_watch.append((cmds[i], toks))
        self.verified_n += self._checks
        self.seam_verified_n += self._seams
        if self.recorder is not None:
            self.recorder.record(
                "chunk.issue", t=self.runtime.elapsed, chunk=index,
                stream=st.name, region=kernel.name,
            )
        return chunk

    def issue_h2d(self, book: Books, piece: RingPiece, reuse: list) -> EventToken:
        """:meth:`issue_next`'s input piece, and its checksum (called back
        by :func:`~repro.core.pipemodel.stage_inputs`)."""
        lane = book.lane
        var, g_lo, g_hi = lane.var, piece.g_lo, piece.g_hi
        ops = self._h2d_ops
        if reuse and self.m_on:
            self._gated.append((len(ops), reuse))
        tok = EventToken.acquire(f"h2d:{var}:{g_lo}")
        # slot-reuse waits are ordering-only: a faulted drain must not
        # poison the next lap's transfer
        ops.append(self._piece_op(
            lane, lane.h2d, piece, self._st, reuse, (tok,), (),
            f"h2d:{var}[{g_lo}:{g_hi})",
        ))
        if self._verify:
            kind = "h2d"
            if self._in_halo(var, g_lo, g_hi):
                kind = "halo"
                self._seams += 1
            ops.append(self._verify_op(book, piece, tok, self._index, kind))
            self._checks += 1
        return tok

    def issue_d2h(self, book: Books, piece: RingPiece) -> EventToken:
        """:meth:`issue_next`'s output piece, and its checksum (called back
        by :func:`~repro.core.pipemodel.drain_outputs`)."""
        lane = book.lane
        var, g_lo, g_hi = lane.var, piece.g_lo, piece.g_hi
        dtok = EventToken.acquire(f"d2h:{var}:{g_lo}")
        self._d2h_ops.append(self._piece_op(
            lane, lane.d2h, piece, self._st, (), (dtok,), None,
            f"d2h:{var}[{g_lo}:{g_hi})",
        ))
        if self._verify:
            self._d2h_ops.append(self._verify_op(book, piece, dtok, self._index, "d2h"))
            self._checks += 1
        return dtok

    def drain(self) -> None:
        """Block until all commands on this issuer's streams retired.

        Unlike :meth:`Runtime.synchronize` this only waits for *this
        region's* streams, so a scheduler can retire one tenant while
        others keep flowing.
        """
        for st in self.streams:
            self.runtime.stream_synchronize(st)
        if self.verify_stream is not None:
            self.runtime.stream_synchronize(self.verify_stream)

    def _enqueue_replay(self, chunk: Chunk) -> None:
        """Replay one chunk synchronously: full dep-range h2d→kernel→d2h."""
        index = chunk.index
        _i, t0, t1, ranges, _launch, cost = self._work[index]
        st = self.streams[index % self.streams_n]
        ops: list = []
        rtoks: List[EventToken] = []
        for book, (lo, hi) in zip(self._books, ranges):
            if not book.is_input:
                continue
            lane = book.lane
            for piece in ring_pieces(lo, hi, book.capacity):
                tok = EventToken.acquire(f"replay-h2d:{lane.var}:{piece.g_lo}")
                ops.append(self._piece_op(
                    lane, lane.h2d, piece, st, (), (tok,), None,
                    f"replay:h2d:{lane.var}[{piece.g_lo}:{piece.g_hi})",
                ))
                rtoks.append(tok)
        ktok = EventToken.acquire(f"replay-kernel:{index}")
        ops.append(launch_op(
            st, rtoks, (ktok,), None, f"replay:{self.kernel.name}[{t0}:{t1})",
            cost, 0, self._kernel_payload(chunk), self._kernel_sink(chunk),
        ))
        for book, (lo, hi) in zip(self._books, ranges):
            if not book.is_output:
                continue
            lane = book.lane
            for piece in ring_pieces(lo, hi, book.capacity):
                ops.append(self._piece_op(
                    lane, lane.d2h, piece, st, (ktok,), (), None,
                    f"replay:d2h:{lane.var}[{piece.g_lo}:{piece.g_hi})",
                ))
        cmds = self.runtime.enqueue_chunk((ops,), chunk=index)
        self.commands += cmds
        self.meta.update(dict.fromkeys(cmds, index))

    def recover(self, budget: Optional[int] = None) -> None:
        """Chunk-granular recovery from faults *and* silent corruption.

        The pipeline has drained.  Fail-stop faults (requires a policy)
        map back to their chunks and replay synchronously; corruptions
        flagged by integrity checks replay their owner chunk plus — for
        corrupted input transfers — every issued chunk whose dependency
        slice overlaps the corrupt range.  Replayed chunks are
        re-verified in place, so a corruption *during* recovery loops
        until clean or the retry bound trips.

        ``budget`` optionally caps the *total* number of chunk replays
        this call may perform (on top of the per-chunk
        ``policy.max_retries``); a scheduler uses it to enforce a
        per-request retry budget.  Exceeding it raises
        :class:`~repro.faults.RegionFailure`.
        """
        prev = self._impose_overheads()
        try:
            while True:
                if self.policy is not None:
                    budget = self._replay(_FAULTS, self.policy, budget)
                if not self._corruptions:
                    return
                budget = self._replay(_CORRUPTIONS, self._ipolicy, budget)
        finally:
            self.runtime.call_overhead_scale, self.runtime.command_overhead = prev

    def _replay(
        self, cause: "_Cause", policy: FaultPolicy, budget: Optional[int]
    ) -> Optional[int]:
        """The chunk-replay loop every recovery cause shares.

        Each round takes the cause's next batch of affected chunks and
        checks it against the request ``budget`` and each chunk's
        ``policy.max_retries``, raising :class:`RegionFailure` when
        either is spent.  Otherwise it replays the chunks one by one —
        backoff charged to the host clock, full dependency-range
        H2D → kernel → D2H, device drained, the cause's post-replay
        step — and goes round again until a batch comes back empty.
        Per-chunk attempts and status live for this call only.
        Returns the budget left.
        """
        runtime, chunks, recorder = self.runtime, self.chunks, self.recorder
        attempts: Dict[int, int] = {}
        status = {c.index: CHUNK_OK for c in chunks} if cause.ledger else {}
        while True:
            affected = cause.affected(self)
            if not affected:
                return budget
            over = budget is not None and len(affected) > budget
            exhausted = [] if over else [
                k for k in affected if attempts.get(k, 0) >= policy.max_retries
            ]
            if over or exhausted:
                if cause.dump and recorder is not None:
                    recorder.dump(
                        "integrity-exhausted", region=self.kernel.name,
                        corruptions=self.corruptions_n,
                    )
                for k in affected:
                    status[k] = CHUNK_EXHAUSTED if k in exhausted else CHUNK_FAILED
                if over:
                    msg = (
                        f"{len(affected)} {cause.batch} but only {budget} "
                        f"replay(s) left in the request budget"
                    )
                    log = [
                        f"{cause.tag}: request retry budget exhausted with "
                        f"{len(affected)} chunk(s) {cause.waiting}"
                    ]
                else:
                    msg = (
                        f"{len(exhausted)} chunk(s) still {cause.still} after "
                        f"{policy.max_retries} replays each"
                    )
                    log = [
                        f"{cause.tag}: chunk {k} exhausted "
                        f"{attempts.get(k, 0) + 1} attempts"
                        for k in exhausted
                    ]
                raise RegionFailure(
                    msg, chunk_status=status, attempts=log, retries=self.retries_n
                )
            for k in affected:
                if budget is not None:
                    budget -= 1
                attempt = attempts[k] = attempts.get(k, 0) + 1
                delay = _charge_backoff(runtime, policy, attempt - 1, cause.replays)
                self.retries_n += 1
                if recorder is not None:
                    recorder.record(
                        "chunk.replay", t=runtime.elapsed, chunk=k,
                        attempt=attempt, backoff=delay, **cause.fields,
                    )
                # a span carries the cause's fields, or else the backoff
                with self.tracer.span(
                    f"replay:chunk{k}", "fault", chunk=k, attempt=attempt,
                    **(cause.fields or {"backoff": delay}),
                ):
                    self._enqueue_replay(chunks[k])
                # drain before the next replay or re-verify: the
                # re-verify reads both sides of the replayed transfers,
                # and two replayed chunks can alias the same ring slots
                # (mod capacity) without the pipeline's slot-reuse waits
                runtime.synchronize()
                if cause.ledger:
                    status[k] = CHUNK_RECOVERED
                if cause.after is not None:
                    cause.after(self, chunks[k])

    def _faulted_chunks(self) -> List[int]:
        """Claim this issuer's faults; returns the chunks to replay.

        Faulted kernels never ran their payloads (poison propagation
        suppresses consumers of faulted data too), so replay is exact —
        even for accumulating kernels.
        """
        pending = self._claim()
        self.faults_n += len(pending)
        self._record_faults(pending)
        if not pending:
            return []
        if self.runtime.device.lost:
            raise DeviceLostError(
                "device lost during pipelined region", pending=len(pending)
            )
        # faults on blocking copies (retried in place, chunk -1) or on
        # commands this region did not issue replay nothing
        meta = self.meta
        return sorted({k for k in (meta[c] for c in pending if c in meta) if k >= 0})

    def _corrupt_chunks(self) -> List[int]:
        """Take the queued detections; returns the chunks to replay."""
        batch, self._corruptions = self._corruptions, []
        return self._affected_chunks(batch)

    # ------------------------------------------------------------------
    # integrity: response
    # ------------------------------------------------------------------
    def _affected_chunks(self, batch: List[Tuple]) -> List[int]:
        """Chunks whose data a corruption batch may have poisoned.

        The owner chunk always replays.  A corrupted *input* piece
        (h2d/halo) may additionally have fed any issued chunk whose
        dependency slice intersects the corrupt range — dedup mode
        transfers each row once and shares it across chunks, and the
        checksum verdict can land after a sharing kernel already ran.
        """
        position = {var: k for k, var in enumerate(self.plan.specs)}
        affected = set()
        for var, lo, hi, owner, kind, _t in batch:
            if owner >= 0:
                affected.add(owner)
            if kind in ("h2d", "halo"):
                k = position[var]
                for row in self._work[: self._cursor]:
                    clo, chi = row[3][k]
                    if clo < hi and chi > lo:
                        affected.add(row[0])
        return sorted(affected)

    def _verify_chunk_sync(self, chunk: Chunk) -> None:
        """Synchronously re-verify a replayed chunk's data.

        The pipeline is drained, so this runs host-side: each piece's
        modelled checksum cost is charged to virtual host time (same
        cost model as the async verify commands), keeping replay
        verification visible in the clock and in wait attribution.
        """
        runtime = self.runtime
        row = self._work[chunk.index]
        for book, (lo, hi) in zip(self._books, row[3]):
            lane = book.lane
            ring = lane.ring
            for piece in ring.pieces(lo, hi):
                runtime.host_now += verify_cost(piece.extent * lane.h2d.unit_bytes)
                self.verified_n += 1
                if self.virtual:
                    continue
                if not same_bytes(
                    ring.device_view(piece).backing,
                    ring.host_section(lane.host, piece),
                ):
                    kind = "h2d" if book.is_input else "d2h"
                    self._note_corruption(
                        lane.var, piece.g_lo, piece.g_hi, chunk.index, kind
                    )
        if self._vote:
            # synchronous dual-execution recheck, charged like its kernel
            runtime.host_now += row[5]
            self.verified_n += 1
            check = self._dual_execute_check(chunk)
            if check is not None:
                check()

    def account_stalls(self) -> None:
        """Resolve slot-reuse stall metrics once all tokens have times."""
        runtime = self.runtime
        if not (self.m_on and self.stall_watch):
            return
        # every gating token is resolved now; stall = time a command
        # spent gated past its enqueue by ring-slot reuse
        hist = runtime.metrics.histogram("stall.slot_reuse.seconds")
        total_stall = 0.0
        for cmd, toks in self.stall_watch:
            gate = max((t.time for t in toks if t.time is not None), default=None)
            if gate is None:
                continue
            stall = max(0.0, gate - cmd.enqueue_time)
            hist.observe(stall)
            total_stall += stall
        runtime.metrics.counter("stall.slot_reuse.total_seconds").inc(total_stall)

    def finalize(self) -> None:
        """Resident copy-out and device-memory cleanup."""
        if self._finalized:
            return
        self._finalized = True
        runtime, plan, arrays = self.runtime, self.plan, self.arrays
        prev = self._impose_overheads()
        try:
            for var, clause in plan.residents.items():
                if clause.direction in ("from", "tofrom"):
                    if var in self.reduction_residents and not self.virtual:
                        # charge the writeback but keep the host value:
                        # the accumulator holds only this shard's (now
                        # snapshotted) deltas, which the sharded merge
                        # applies in global chunk order
                        sink = np.empty_like(arrays[var])
                        self._blocking_with_retry(
                            lambda v=var, s=sink: runtime.memcpy_d2h(
                                s, self.resident_dev[v],
                                label=f"d2h:{v}:resident"
                            ),
                            f"resident d2h of {var!r}",
                        )
                        continue
                    self._blocking_with_retry(
                        lambda v=var: runtime.memcpy_d2h(
                            arrays[v], self.resident_dev[v], label=f"d2h:{v}:resident"
                        ),
                        f"resident d2h of {var!r}",
                        verify=lambda v=var: (
                            arrays[v], self.resident_dev[v].backing
                        ),
                    )
            if self.merge_reductions and not self.virtual:
                # single-device reduction self-merge: apply each chunk's
                # snapshotted delta exactly once, keep-last per chunk
                # start so a corruption replay's corrected delta
                # supersedes the corrupt one
                latest: Dict[int, Dict[str, np.ndarray]] = {}
                for t0, part in self.reduction_parts:
                    latest[t0] = part
                for t0 in sorted(latest):
                    for var, delta in latest[t0].items():
                        arrays[var] += delta
            for dev in self.resident_dev.values():
                runtime.free(dev)
            for ring in self.rings.values():
                runtime.free(ring.darr)
        finally:
            runtime.call_overhead_scale, runtime.command_overhead = prev
        self._close()

    def abort(self) -> None:
        """Failure-path teardown: drain, claim faults, free allocations."""
        self._finalized = True
        _cleanup_after_failure(
            self.runtime,
            list(self.resident_dev.values()) + [r.darr for r in self.rings.values()],
            claim=self._claim,
        )
        self._close()

    def _close(self) -> None:
        """Leave the fault router and end the region span."""
        if self.router is not None:
            self.router.release(self.meta)
        if self.rspan is not None:
            self.tracer.end(self.rspan)
            self.rspan = None



class _Cause(NamedTuple):
    """What one recovery cause varies in :meth:`PipelineIssuer._replay`."""

    #: issuer method returning the next batch of chunks to replay
    affected: Callable[["PipelineIssuer"], List[int]]
    #: issuer method run on each chunk after its replay drained
    after: Optional[Callable[["PipelineIssuer", Chunk], None]]
    #: attempts-log prefix of the :class:`RegionFailure` it raises
    tag: str
    #: how its messages name the affected chunks, a chunk still bad
    #: after its last replay, and a chunk awaiting replay
    batch: str
    still: str
    waiting: str
    #: counter tallying each replay (``None``: count backoff seconds)
    replays: Optional[str]
    #: extra fields of each replay's recorder event and trace span
    fields: Dict[str, str]
    #: whether a failure's chunk_status covers every chunk (else only
    #: the failing batch)
    ledger: bool
    #: whether exhaustion dumps the flight recorder first
    dump: bool


#: fail-stop faults claimed off the runtime, bounded by ``policy``
_FAULTS = _Cause(
    affected=PipelineIssuer._faulted_chunks, after=None, tag="buffer",
    batch="chunk(s) faulted", still="faulting", waiting="pending",
    replays=None, fields={}, ledger=True, dump=False,
)
#: corruptions flagged by integrity checks, bounded by ``_ipolicy``;
#: every replayed chunk is re-verified
_CORRUPTIONS = _Cause(
    affected=PipelineIssuer._corrupt_chunks,
    after=PipelineIssuer._verify_chunk_sync, tag="integrity",
    batch="corrupted chunk(s)", still="corrupt", waiting="corrupt",
    replays="integrity.replays", fields={"cause": "corruption"},
    ledger=False, dump=True,
)


def execute_pipeline(
    runtime: Runtime,
    plan: RegionPlan,
    arrays: Dict[str, np.ndarray],
    kernel: RegionKernel,
    policy: Optional[FaultPolicy] = None,
    integrity: str = INTEGRITY_OFF,
) -> RegionResult:
    """Run a region under the proposed Pipelined-buffer model.

    Parameters
    ----------
    runtime:
        The host runtime; its ``call_overhead_scale`` is managed for
        the duration (the proposed runtime's per-stream bookkeeping is
        cheap: ``runtime_stream_factor``).
    plan:
        A resolved (and, if requested, memory-limit-tuned) plan.
    arrays:
        Host arrays keyed by clause variable names.  Real ndarrays or
        :class:`~repro.sim.varray.VirtualArray` (all the same mode).
    kernel:
        The region kernel.
    policy:
        Optional :class:`~repro.faults.FaultPolicy`.  When given, the
        executor takes ownership of async fault reporting
        (``runtime.defer_faults``): every faulted chunk is replayed
        synchronously — full dependency-range H2D, kernel, D2H — with
        the policy's exponential backoff charged to virtual host time,
        until it recovers or its retry budget is exhausted (then
        :class:`~repro.faults.RegionFailure` carries per-chunk
        status).  Chunks are the natural replay unit because the
        pipeline already computes each chunk's exact dependency slices.
    integrity:
        Silent-failure defense mode (``"off"`` / ``"checksum"`` /
        ``"vote"``, see :mod:`repro.integrity`).  Detected corruptions
        are recovered by chunk replay even without a fault policy.
    """
    meas = _Measurer(runtime)
    issuer = PipelineIssuer(
        runtime, plan, arrays, kernel, policy=policy, integrity=integrity
    )
    old_defer = runtime.defer_faults
    if policy is not None:
        # the executor owns fault reporting: sync points stash faults
        # for pop_faults() instead of raising mid-pipeline
        runtime.defer_faults = True
    try:
        issuer.open()
        while issuer.issue_next() is not None:
            pass
        runtime.synchronize()
        if policy is not None or issuer._corruptions:
            issuer.recover()
        issuer.account_stalls()
        issuer.finalize()
    except BaseException:
        issuer.abort()
        raise
    finally:
        runtime.defer_faults = old_defer
    return meas.finish(
        "pipelined-buffer", len(issuer.chunks), plan.chunk_size, issuer.streams_n,
        faults=issuer.faults_n, retries=issuer.retries_n,
        verified=issuer.verified_n, corruptions=issuer.corruptions_n,
    )
