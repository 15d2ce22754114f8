"""The host runtime: the CUDA-flavoured API the prototype targets.

A :class:`Runtime` owns one simulated :class:`~repro.sim.device.Device`
and a **host clock**.  Every API call advances the host clock by a
profile-dependent overhead; asynchronously enqueued commands cannot
start on the device before the host call that issued them returned.
This reproduces the API-call/scheduling overheads that dominate the
paper's AMD results and its stream-count sensitivity study.

Mapping to the paper's implementation section:

=====================================  ==================================
paper (CUDA / OpenCL)                   here
=====================================  ==================================
``cudaMalloc`` / ``clCreateBuffer``     :meth:`Runtime.malloc`
``cudaHostAlloc`` (pinned)              :meth:`Runtime.hostalloc`
``cudaMemcpyAsync``                     :meth:`Runtime.memcpy_h2d_async`,
                                        :meth:`Runtime.memcpy_d2h_async`
``cudaMallocPitch``+``Memcpy2DAsync``   the same calls with ``rows=``
``acc_get_cuda_stream`` interop         streams are first-class here
events (``cudaEventRecord``/wait)       :meth:`Runtime.record_event` /
                                        ``waits=`` arguments
=====================================  ==================================
"""

from __future__ import annotations

import math
import weakref
from typing import (
    Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

try:
    from numpy.lib.array_utils import byte_bounds
except ImportError:  # pragma: no cover - numpy < 2
    from numpy import byte_bounds

from repro.gpu.darray import DeviceArray
from repro.gpu.errors import (
    DeviceLostError,
    InvalidValueError,
    KernelFaultError,
    TransferError,
)
from repro.obs import OBS_NULL, Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer
from repro.sim.device import Device
from repro.sim.engine import Command, EventToken
from repro.sim.profiles import DeviceProfile
from repro.sim.stream import SimStream
from repro.sim.trace import Timeline
from repro.sim.varray import VirtualArray, is_virtual, nbytes_of

__all__ = ["ChunkOp", "CopyLane", "Runtime", "copy_op", "launch_op"]

HostArray = Union[np.ndarray, VirtualArray]


def _retired_span(cmd: Command) -> Span:
    """Build the engine-track span for one retired command.

    Installed as the tracer's command inflater: the retirement hot path
    records the command itself (:meth:`~repro.obs.tracer.Tracer.defer_command`)
    and this function materializes the exact span an eager observer
    would have emitted, the first time the trace is read.
    """
    stream = cmd.stream
    attrs = {
        "stream": stream.name if isinstance(stream, SimStream) else "",
        "nbytes": cmd.nbytes,
        "queue_depth": cmd.queue_depth,
    }
    err = cmd.error
    if err is not None:
        attrs["fault"] = err.kind
    elif cmd.poisoned:
        attrs["fault"] = "poisoned"
    return Span(
        cmd.label or cmd.kind,
        cmd.kind,
        f"engine:{cmd.engine}",
        start=cmd.start_time,
        end=cmd.finish_time,
        attrs=attrs,
    )


def _replay_retired(m, cmd: Command) -> None:
    """Apply one retired command's metrics to registry ``m``.

    Installed as the metrics registry's command replayer; the deferred
    backlog replays in retirement order, so instrument state matches
    eager per-retirement updates exactly.
    """
    kind = cmd.kind
    if kind in ("h2d", "d2h"):
        m.counter(f"bytes.{kind}").inc(cmd.nbytes)
        m.histogram(f"transfer.seconds.{kind}").observe(cmd.duration)
    elif kind == "kernel":
        m.counter("commands.kernel").inc()
        m.histogram("kernel.seconds").observe(cmd.duration)
    m.gauge(f"queue.depth.{cmd.engine}").set(cmd.queue_depth)


def _host_bytes(arr) -> Optional[Tuple[int, int]]:
    """The host byte range ``[lo, hi)`` an array's elements occupy.

    A virtual array's range is the one-element cell behind its
    zero-stride phantom, which every view of it shares.  ``None`` for
    anything else.
    """
    if isinstance(arr, VirtualArray):
        arr = arr._phantom
    if not isinstance(arr, np.ndarray):
        return None
    return byte_bounds(arr)


class _PinRegistry:
    """Registry of page-locked host arrays.

    Pinning registers a host address range, as ``cudaHostRegister``
    does, so an array counts as pinned when its bytes lie inside a
    registered array's: the array itself or any view of it.  Entries
    hold weak references keyed by ``id`` (``np.ndarray`` is unhashable,
    so a ``WeakSet`` cannot hold one) and drop out when the referent is
    collected, avoiding stale id-reuse hits.
    """

    def __init__(self) -> None:
        self._refs: dict = {}

    def add(self, arr) -> None:
        """Register an array as pinned."""
        key = id(arr)
        try:
            ref = weakref.ref(arr, lambda _w, k=key: self._refs.pop(k, None))
        except TypeError:  # pragma: no cover - non-weakrefable object
            ref = lambda: arr  # noqa: E731
        self._refs[key] = (ref, _host_bytes(arr))

    def __contains__(self, arr) -> bool:
        refs = self._refs
        if not refs:
            return False
        entry = refs.get(id(arr))
        if entry is not None and entry[0]() is arr:
            return True
        span = _host_bytes(arr)
        if span is None:
            return False
        lo, hi = span
        return any(
            b is not None and b[0] <= lo and hi <= b[1] and ref() is not None
            for ref, b in refs.values()
        )


def _copy_payload(dst, src) -> Optional[Callable[[], None]]:
    """Build a functional copy payload, or ``None`` in virtual mode."""
    if is_virtual(dst) or is_virtual(src):
        return None

    def run() -> None:
        dst[...] = src

    return run


class CopyLane(NamedTuple):
    """One host array's transfers in one direction, resolved once.

    The pipeline issuer builds one per ring and direction when it opens
    a region, after checking what a public copy checks per call: the
    direction and its engine, the ring's shape against the host
    array's, and that the ring is allocated.  A public copy call builds
    one for its single copy (``extent`` 1).  A copy of ``extent``
    split-dim units moves ``extent * unit_bytes`` bytes, as one pitched
    copy of ``rows`` rows of ``extent * unit_row_bytes`` bytes, or
    contiguously when ``rows`` is ``None``.
    """

    #: ``"h2d"`` or ``"d2h"``
    kind: str
    #: the DMA engine (:meth:`~repro.sim.device.Device.copy_engine`)
    engine: str
    rows: Optional[int]
    unit_row_bytes: Optional[int]
    unit_bytes: int
    #: the device allocation (a root array); a copy into or out of a
    #: freed one raises
    base: DeviceArray
    #: whether the host side is page-locked whatever
    #: :attr:`Runtime.default_pinned` says
    pinned: bool


#: One op of :meth:`Runtime.enqueue_chunk`: one modelled API call.  A
#: plain tuple (cheap to build once per command); its layout is private
#: to this module, so build ops only with :func:`copy_op` and
#: :func:`launch_op`.
ChunkOp = tuple


def copy_op(
    lane: CopyLane,
    stream: SimStream,
    waits: Iterable[EventToken],
    records: Iterable[EventToken],
    poison_waits: Optional[Iterable[EventToken]],
    label: str,
    extent: int,
    dst,
    src,
) -> ChunkOp:
    """One ``memcpy_h2d_async``/``memcpy_d2h_async`` call moving
    ``extent`` split-dim units along ``lane``.

    ``dst``/``src`` are the arrays the payload copies between, each
    ``None`` when that side holds no data; ``dst`` is the silent-fault
    sink.
    """
    return (lane, stream, waits, records, poison_waits, label, extent, dst, src)


def launch_op(
    stream: SimStream,
    waits: Iterable[EventToken],
    records: Iterable[EventToken],
    poison_waits: Optional[Iterable[EventToken]],
    label: str,
    cost: float,
    nbytes: int,
    fn: Optional[Callable[[], None]],
    sink,
) -> ChunkOp:
    """One :meth:`Runtime.launch` call: ``cost`` modelled seconds before
    the launch overhead, payload ``fn`` (dropped in virtual mode) and
    silent-fault ``sink``."""
    return (None, stream, waits, records, poison_waits, label, cost, nbytes, fn, sink)


class Runtime:
    """Host-side GPU runtime bound to one simulated device.

    Parameters
    ----------
    device:
        A :class:`DeviceProfile` (a fresh device is created) or an
        existing :class:`Device`.
    virtual:
        If True, :meth:`malloc` and :meth:`hostalloc` create
        metadata-only backings: timing and memory accounting are exact,
        functional payloads are skipped.
    obs:
        An :class:`repro.obs.Observability` to record into.  Defaults
        to the shared disabled pair (zero overhead).  When enabled,
        every API call becomes a host span, every retired device
        command an engine-track span (with queue depth at dispatch),
        and transfer/kernel/allocation metrics accumulate in
        ``obs.metrics``.  Observation never advances virtual time, so
        measured results are identical with it on or off.

    The runtime is a context manager: ``with Runtime(profile) as rt:``
    calls :meth:`close` on exit, deterministically draining the device
    and releasing every live allocation.

    Attributes
    ----------
    host_now:
        Host wall clock (virtual seconds).
    call_overhead_scale:
        Multiplier on per-call overheads.  Higher layers (the vendor
        OpenACC model, the pipeline runtime) set this to express their
        per-stream bookkeeping costs.
    default_pinned:
        Whether unregistered host buffers are treated as page-locked.
        True by default (the paper pins host memory in all measured
        versions); the pinned-vs-pageable ablation flips it.
    command_overhead:
        Device-side seconds added to the duration of every transfer and
        kernel submitted while set.  The execution models use it to
        express their runtime's per-command stream-scheduling cost
        (``acc_stream_contention`` / ``runtime_stream_contention``).
    """

    def __init__(
        self,
        device: Union[Device, DeviceProfile],
        *,
        virtual: bool = False,
        obs: Optional[Observability] = None,
    ) -> None:
        self.device = device if isinstance(device, Device) else Device(device)
        self.virtual = bool(virtual)
        self.host_now = 0.0
        self.call_overhead_scale = 1.0
        self.command_overhead = 0.0
        self.default_pinned = True
        self._pinned = _PinRegistry()
        self._streams: list = []
        self._closed = False
        #: cursor into ``device.sim.faulted`` — commands before it have
        #: already been reported/claimed
        self._fault_cursor = 0
        #: when True, sync points do not raise on pending faults; the
        #: recovery layer claims them via :meth:`pop_faults` instead
        self.defer_faults = False
        self.obs = obs if obs is not None else OBS_NULL
        self.tracer = self.obs.tracer
        self.metrics = self.obs.metrics
        self._obs_on = self.obs.enabled
        if self.tracer.enabled:
            self.tracer.set_clock(lambda: self.host_now)
            self.tracer.set_command_inflater(_retired_span)
        if self.metrics.enabled:
            self.metrics.set_command_replay(_replay_retired)
        if self._obs_on:
            self.device.sim.observer = self._make_observer()

    # ------------------------------------------------------------------
    # observability hooks
    # ------------------------------------------------------------------
    def _trace_api(self, name: str, t0: float, op: Optional[str] = None, **attrs) -> None:
        """Emit one host span covering an API call ``[t0, host_now]``.

        ``op`` is the API-call family for the per-op call counter;
        defaults to ``name`` up to the first ``:``.
        """
        op = op or name.split(":", 1)[0]
        self.tracer.defer(name, "api", "host", t0, self.host_now,
                          dict(op=op, **attrs))
        m = self.metrics
        if m.enabled:
            m.counter("api.calls").inc()
            m.counter(f"api.calls.{op}").inc()

    def _command_retired(self, cmd: Command) -> None:
        """Simulator observer: one engine-track span per retired command.

        Hot path — called once per retired command.  Both the span
        (:func:`_retired_span`) and the metrics
        (:func:`_replay_retired`) are deferred: the command itself is
        the record, inflated lazily when the trace or an instrument is
        read.
        """
        if cmd.kind == "marker":
            return
        self.tracer.defer_command(cmd)
        self.metrics.defer_command(cmd)

    def _make_observer(self) -> Callable[[Command], None]:
        """The retirement observer installed on the simulator.

        When both halves of the observability pair are the standard
        lazy kinds, retirement reduces to two list appends; the
        returned closure binds those appends directly, skipping the
        dispatch through :meth:`_command_retired` on the hottest
        callback in the stack.  Any other configuration (eager tracer,
        partial pair) falls back to the general method.
        """
        tracer, metrics = self.tracer, self.metrics
        if (
            type(tracer) is not Tracer or tracer._eager
            or type(metrics) is not MetricsRegistry
        ):
            return self._command_retired
        # bound appends stay valid because Tracer.clear()/materialize
        # and MetricsRegistry._drain mutate their lists in place
        span_append = tracer._spans.append
        metric_append = metrics._deferred.append

        def observer(cmd: Command) -> None:
            if cmd.kind != "marker":
                tracer._dirty = True
                span_append(cmd)
                metric_append(cmd)

        return observer

    # ------------------------------------------------------------------
    # fault injection and async error reporting
    # ------------------------------------------------------------------
    def install_faults(self, faults):
        """Install a fault plan or injector on the underlying device.

        Accepts a :class:`~repro.faults.FaultPlan` (an injector is
        built for it) or a ready :class:`~repro.faults.FaultInjector`;
        returns the installed injector.  Faulted commands surface as
        :class:`~repro.gpu.errors.TransferError` /
        :class:`~repro.gpu.errors.KernelFaultError` /
        :class:`~repro.gpu.errors.DeviceLostError` at sync points,
        mirroring CUDA's asynchronous error reporting.
        """
        from repro.faults import FaultInjector, FaultPlan

        inj = FaultInjector(faults) if isinstance(faults, FaultPlan) else faults
        self.device.install_fault_injector(inj)
        return inj

    def pending_faults(self) -> list:
        """Faulted commands not yet claimed, without claiming them."""
        return list(self.device.sim.faulted[self._fault_cursor:])

    def pop_faults(self) -> list:
        """Claim and return all unreported faulted commands.

        Injected faults are counted into ``metrics`` (when enabled) as
        ``faults.injected`` / ``faults.injected.<kind>``; propagated
        poison as ``faults.poisoned``.
        """
        sim = self.device.sim
        new = sim.faulted[self._fault_cursor:]
        self._fault_cursor = len(sim.faulted)
        if new and self.metrics.enabled:
            m = self.metrics
            for cmd in new:
                if cmd.error is not None:
                    m.counter("faults.injected").inc()
                    m.counter(f"faults.injected.{cmd.error.kind}").inc()
                else:
                    m.counter("faults.poisoned").inc()
        return list(new)

    def _raise_pending_faults(self) -> None:
        """Surface unclaimed faults as typed exceptions (sync points).

        No-op while :attr:`defer_faults` is set — the recovery layer
        then owns the backlog via :meth:`pop_faults`.
        """
        if self.defer_faults:
            return
        if self.device.lost:
            pending = len(self.pending_faults())
            self.pop_faults()
            raise DeviceLostError("device lost during execution", pending=pending)
        faults = self.pop_faults()
        if not faults:
            return
        first = next((c for c in faults if c.error is not None), faults[0])
        kind = first.error.kind if first.error is not None else "poisoned"
        msg = (
            f"async fault detected at synchronization: {kind} on "
            f"{first.label or first.kind!r} ({len(faults)} faulted command(s))"
        )
        if kind in ("h2d", "d2h"):
            raise TransferError(msg, fault=first.error, pending=len(faults))
        raise KernelFaultError(msg, fault=first.error, pending=len(faults))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise InvalidValueError("runtime is closed")

    def _check_device(self) -> None:
        """Reject new device work once the device is lost."""
        self._check_open()
        if self.device.lost:
            raise DeviceLostError("device lost; no further work accepted")

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Drain the device and release every live allocation.

        Deterministic teardown: pending commands complete (advancing
        virtual time exactly as :meth:`synchronize` would), then all
        device memory returns to the allocator.  Idempotent; any API
        call after close raises
        :class:`~repro.gpu.errors.InvalidValueError`.
        """
        if self._closed:
            return
        # teardown must not throw: claim (rather than raise) any fault
        # backlog while draining
        old_defer, self.defer_faults = self.defer_faults, True
        try:
            self.synchronize()
        finally:
            self.defer_faults = old_defer
        self.pop_faults()
        for rec in list(self.device.memory.live_allocations):
            self.device.memory.release(rec)
        self._closed = True

    def __enter__(self) -> "Runtime":
        self._check_open()
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # clocks
    # ------------------------------------------------------------------
    @property
    def profile(self) -> DeviceProfile:
        """The device profile in use."""
        return self.device.profile

    @property
    def elapsed(self) -> float:
        """End-to-end elapsed virtual time seen by the application."""
        return max(self.host_now, self.device.now)

    def _charge_async(self) -> float:
        """Charge one async API call; returns its completion time."""
        self._check_device()
        dt = self.profile.api_overhead * self.call_overhead_scale
        self.host_now += dt
        return self.host_now

    # ------------------------------------------------------------------
    # streams and events
    # ------------------------------------------------------------------
    def create_stream(self, name: str = "") -> SimStream:
        """Create an in-order stream (``cudaStreamCreate``)."""
        self._check_device()
        t0 = self.host_now
        self.host_now += self.profile.stream_create_overhead
        s = SimStream(name)
        self._streams.append(s)
        if self._obs_on:
            self._trace_api("stream_create", t0, stream=s.name)
        return s

    def event(self, name: str = "event") -> EventToken:
        """Create an unrecorded event token (``cudaEventCreate``)."""
        return EventToken.acquire(name)

    def record_event(self, stream: SimStream, name: str = "event") -> EventToken:
        """Record an event at the current tail of ``stream``.

        Implemented as a zero-duration marker command, exactly like
        ``cudaEventRecord``: the token completes when all work
        previously enqueued on the stream has finished.
        """
        tok = EventToken(name)
        t0 = self.host_now
        t = self._charge_async()
        self.device.submit_marker(
            stream=stream, enqueue_time=t, records=[tok], label=f"record:{name}"
        )
        if self._obs_on:
            self._trace_api("event_record", t0, stream=stream.name, event=name)
        return tok

    def stream_wait_event(self, stream: SimStream, token: EventToken, label: str = "") -> None:
        """Make subsequent work on ``stream`` wait for ``token``
        (``cudaStreamWaitEvent``)."""
        t0 = self.host_now
        t = self._charge_async()
        self.device.submit_marker(
            stream=stream, enqueue_time=t, waits=[token], label=label or f"wait:{token.name}"
        )
        if self._obs_on:
            self._trace_api("stream_wait_event", t0, stream=stream.name,
                            event=token.name)

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def malloc(self, shape: Sequence[int], dtype, tag: str = "") -> DeviceArray:
        """Allocate device memory (``cudaMalloc``).

        Raises :class:`~repro.gpu.errors.OutOfMemoryError` when the
        request does not fit.
        """
        self._check_device()
        shape = tuple(map(int, shape))
        dt = np.dtype(dtype)
        nbytes = math.prod(shape) * dt.itemsize
        t0 = self.host_now
        rec = self.device.alloc(nbytes, tag)
        if self.virtual:
            backing: HostArray = VirtualArray(shape, dt)
        else:
            backing = np.zeros(shape, dtype=dt)
        self.host_now += self.profile.api_overhead
        if self._obs_on:
            self._trace_api(f"malloc:{tag}" if tag else "malloc", t0,
                            nbytes=nbytes, tag=tag)
            m = self.metrics
            if m.enabled:
                m.counter("alloc.count").inc()
                m.counter("alloc.bytes").inc(nbytes)
                mem = self.device.memory
                m.gauge("mem.used").set(mem.used)
        return DeviceArray(backing, rec)

    def free(self, arr: DeviceArray) -> None:
        """Release device memory (``cudaFree``)."""
        self._check_open()
        if arr.allocation is None:
            raise InvalidValueError("cannot free a device-array view")
        t0 = self.host_now
        arr.mark_freed()
        self.device.free(arr.allocation)
        self.host_now += self.profile.api_overhead
        if self._obs_on:
            self._trace_api("free", t0, nbytes=arr.allocation.nbytes,
                            tag=arr.allocation.tag)
            if self.metrics.enabled:
                self.metrics.gauge("mem.used").set(self.device.memory.used)

    def hostalloc(self, shape: Sequence[int], dtype) -> HostArray:
        """Allocate pinned host memory (``cudaHostAlloc``)."""
        self._check_open()
        shape = tuple(int(s) for s in shape)
        t0 = self.host_now
        if self.virtual:
            arr: HostArray = VirtualArray(shape, np.dtype(dtype))
        else:
            arr = np.zeros(shape, dtype=dtype)
        self._pinned.add(arr)
        self.host_now += self.profile.api_overhead
        if self._obs_on:
            self._trace_api("hostalloc", t0, nbytes=nbytes_of(arr))
        return arr

    def pin(self, arr: HostArray) -> HostArray:
        """Register an existing host array as page-locked
        (``cudaHostRegister``)."""
        self._pinned.add(arr)
        return arr

    def is_registered(self, arr: HostArray) -> bool:
        """Whether a host array lies in page-locked memory registered by
        :meth:`hostalloc` or :meth:`pin` (a view of such an array does),
        whatever :attr:`default_pinned` says."""
        return arr in self._pinned

    def is_pinned(self, arr: HostArray) -> bool:
        """Whether a host array is treated as page-locked."""
        return arr in self._pinned or self.default_pinned

    @property
    def memory_used(self) -> int:
        """Current device memory usage in bytes (incl. context)."""
        return self.device.memory.used

    @property
    def memory_peak(self) -> int:
        """Peak device memory usage in bytes (incl. context)."""
        return self.device.memory.peak

    # ------------------------------------------------------------------
    # copies
    # ------------------------------------------------------------------
    @staticmethod
    def _check_copy(dst_shape: Tuple[int, ...], src_shape: Tuple[int, ...]) -> None:
        if tuple(dst_shape) != tuple(src_shape):
            raise InvalidValueError(
                f"copy shape mismatch: dst {tuple(dst_shape)} vs src {tuple(src_shape)}"
            )

    def memcpy_h2d_async(
        self,
        dst: DeviceArray,
        src: HostArray,
        stream: SimStream,
        *,
        waits: Iterable[EventToken] = (),
        records: Iterable[EventToken] = (),
        poison_waits: Optional[Iterable[EventToken]] = None,
        rows: Optional[int] = None,
        row_bytes: Optional[int] = None,
        pinned: Optional[bool] = None,
        label: str = "",
    ) -> Command:
        """Asynchronous host-to-device copy (``cudaMemcpyAsync``).

        Passing ``rows``/``row_bytes`` makes this a pitched 2-D copy
        (``cudaMemcpy2DAsync``); otherwise the transfer is contiguous.
        ``poison_waits`` narrows which ``waits`` are data dependencies
        for fault-poison propagation (see
        :meth:`repro.sim.engine.Simulator.enqueue`).
        """
        dst._check_alive()
        self._check_copy(dst.shape, src.shape)
        self._check_device()
        # silent-fault surface: a bit flip on an H2D lands in the
        # device copy of the data
        return self._enqueue_one(copy_op(
            self._copy_lane("h2d", dst, src, rows, row_bytes, pinned),
            stream, waits, records, poison_waits, label or "h2d", 1,
            dst.backing, src,
        ))

    def memcpy_d2h_async(
        self,
        dst: HostArray,
        src: DeviceArray,
        stream: SimStream,
        *,
        waits: Iterable[EventToken] = (),
        records: Iterable[EventToken] = (),
        poison_waits: Optional[Iterable[EventToken]] = None,
        rows: Optional[int] = None,
        row_bytes: Optional[int] = None,
        pinned: Optional[bool] = None,
        label: str = "",
    ) -> Command:
        """Asynchronous device-to-host copy (``cudaMemcpyAsync``)."""
        src._check_alive()
        self._check_copy(dst.shape, src.shape)
        self._check_device()
        # silent-fault surface: a bit flip on a D2H lands in the host
        # destination
        return self._enqueue_one(copy_op(
            self._copy_lane("d2h", src, dst, rows, row_bytes, pinned),
            stream, waits, records, poison_waits, label or "d2h", 1,
            dst, src.backing,
        ))

    def _copy_lane(
        self, kind: str, darr: DeviceArray, host: HostArray,
        rows: Optional[int], row_bytes: Optional[int], pinned: Optional[bool],
    ) -> CopyLane:
        """The one-copy lane of a public copy call: the whole source."""
        if row_bytes is None:
            rows = None
        return CopyLane(
            kind, self.device.copy_engine(kind), rows, row_bytes,
            nbytes_of(host if kind == "h2d" else darr.backing), darr.base,
            self.is_pinned(host) if pinned is None else pinned,
        )

    def memcpy_h2d(self, dst: DeviceArray, src: HostArray, **kw) -> Command:
        """Blocking host-to-device copy (``cudaMemcpy``)."""
        s = kw.pop("stream", None) or SimStream("sync-h2d")
        cmd = self.memcpy_h2d_async(dst, src, s, **kw)
        self._block_on(cmd)
        return cmd

    def memcpy_d2h(self, dst: HostArray, src: DeviceArray, **kw) -> Command:
        """Blocking device-to-host copy (``cudaMemcpy``)."""
        s = kw.pop("stream", None) or SimStream("sync-d2h")
        cmd = self.memcpy_d2h_async(dst, src, s, **kw)
        self._block_on(cmd)
        return cmd

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def launch(
        self,
        cost_seconds: float,
        fn: Optional[Callable[[], None]],
        stream: SimStream,
        *,
        waits: Iterable[EventToken] = (),
        records: Iterable[EventToken] = (),
        poison_waits: Optional[Iterable[EventToken]] = None,
        nbytes: int = 0,
        label: str = "kernel",
    ) -> Command:
        """Launch a kernel asynchronously.

        Parameters
        ----------
        cost_seconds:
            Modelled execution time (see :mod:`repro.kernels.cost`);
            the profile's launch overhead is added on top.
        fn:
            Functional payload run when the kernel retires (``None`` in
            virtual mode).
        """
        self._check_device()
        return self._enqueue_one(launch_op(
            stream, waits, records, poison_waits, label, cost_seconds, nbytes,
            fn, None,
        ))

    # ------------------------------------------------------------------
    # the one issue path
    # ------------------------------------------------------------------
    def _enqueue(
        self,
        phases: Sequence[Sequence[ChunkOp]],
        default_pinned: bool,
        chunk: Optional[int],
        on_phase: Optional[Callable[[int], None]],
    ) -> List[Command]:
        """Charge, trace and enqueue ops in order: the path every copy
        and launch takes, one public call or a batched chunk.

        Each op is one modelled API call: ``api_overhead *
        call_overhead_scale`` charged to :attr:`host_now`, the API span
        and ``api.calls.*`` counters when observability is on, the
        command enqueued at the host clock after the charge.  A copy's
        duration is the transfer memo, then the shared link, then
        :attr:`command_overhead`; a kernel's is ``(launch overhead +
        cost) + command_overhead``.  A copy's host side is pinned when
        its lane says so or, failing that, when ``default_pinned`` does.
        The caller has checked the device and the device allocations.
        """
        device = self.device
        sim = device.sim
        profile = device.profile
        dt = profile.api_overhead * self.call_overhead_scale
        overhead = self.command_overhead
        launch_overhead = profile.kernel_launch_overhead
        compute = device.compute_engine
        virtual = self.virtual
        obs = self._obs_on
        acquire = Command.acquire
        transfer_time = device.transfer_time
        cmds: List[Command] = []
        for k, ops in enumerate(phases):
            if k and on_phase is not None:
                on_phase(k)
            for op in ops:
                lane = op[0]
                if lane is not None:
                    _, stream, waits, records, poison, label, extent, dst, src = op
                    kind = lane.kind
                    nbytes = extent * lane.unit_bytes
                    rows = lane.rows
                    duration = transfer_time(
                        kind, nbytes, rows,
                        None if rows is None else extent * lane.unit_row_bytes,
                        lane.pinned or default_pinned,
                    ) + overhead
                    t0 = self.host_now
                    self.host_now = t = t0 + dt
                    if obs:
                        self._trace_api(
                            label, t0,
                            op="memcpy_h2d_async" if kind == "h2d" else "memcpy_d2h_async",
                            nbytes=nbytes, stream=stream.name,
                        )
                    cmd = acquire(
                        kind, lane.engine, duration, stream=stream,
                        payload=None if dst is None or src is None
                        else _copy_payload(dst, src),
                        label=label, nbytes=nbytes,
                    )
                    sink = dst
                else:
                    _, stream, waits, records, poison, label, cost, nbytes, fn, sink = op
                    t0 = self.host_now
                    self.host_now = t = t0 + dt
                    if obs:
                        self._trace_api(label or "kernel", t0, op="launch",
                                        stream=stream.name, cost_seconds=cost)
                    cmd = acquire(
                        "kernel", compute, launch_overhead + cost + overhead,
                        stream=stream, payload=None if virtual else fn,
                        label=label, nbytes=nbytes,
                    )
                sim.enqueue(
                    cmd, enqueue_time=t, waits=waits, records=records,
                    poison_waits=poison,
                )
                cmd.sink = sink
                cmd.chunk = chunk
                cmds.append(cmd)
        return cmds

    def _enqueue_one(self, op: ChunkOp) -> Command:
        """Enqueue one public call's op (its lane resolved pinnedness)."""
        return self._enqueue(((op,),), False, None, None)[0]

    def enqueue_chunk(
        self,
        phases: Sequence[Sequence[ChunkOp]],
        *,
        chunk: Optional[int] = None,
        on_phase: Optional[Callable[[int], None]] = None,
    ) -> List[Command]:
        """Enqueue one pipeline chunk's commands, in issue order, as one call.

        Each op (:func:`copy_op`, :func:`launch_op`) is one modelled
        API call and takes the path of the public call it stands for
        (:meth:`memcpy_h2d_async`, :meth:`memcpy_d2h_async`,
        :meth:`launch`), so it is charged, traced and priced exactly
        as that call.  What the public calls check per call —
        directions, engines, shapes — the caller checked once in its
        :class:`CopyLane`; the device and every lane's allocation are
        checked here once, before anything is charged or enqueued.

        ``phases`` groups the ops; ``on_phase(k)`` runs before phase
        ``k > 0`` is issued, when the host clock reads the last enqueue
        time of the phase before it (the issuer closes its phase spans
        there).  Every command gets ``chunk``.  Returns the commands in
        issue order.
        """
        # one device check for the whole chunk is exact: the device is
        # lost only when a command retires (FaultInjector.after_retirement),
        # and nothing retires while commands are enqueued
        self._check_device()
        for ops in phases:
            for op in ops:
                lane = op[0]
                if lane is not None and lane.base._freed:
                    raise InvalidValueError("use of freed device memory")
        return self._enqueue(phases, self.default_pinned, chunk, on_phase)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def _block_on(self, cmd: Command) -> None:
        t0 = self.host_now
        finish = self.device.wait(cmd)
        self.host_now = max(self.host_now, finish) + self.profile.sync_overhead
        if self._obs_on:
            self._trace_api("sync:command", t0, label=cmd.label)
        self._raise_pending_faults()

    def stream_synchronize(self, stream: SimStream) -> None:
        """Block until all work enqueued on ``stream`` completed."""
        self._check_open()
        tail = self.device.sim.stream_tail(stream)
        if tail is not None and not tail.done:
            self._block_on(tail)
        else:
            self.host_now += self.profile.sync_overhead
            self._raise_pending_faults()

    def event_synchronize(self, token: EventToken) -> None:
        """Block until ``token`` completes (``cudaEventSynchronize``)."""
        self._check_open()
        finish = self.device.sim.wait_event(token)
        self.host_now = max(self.host_now, finish) + self.profile.sync_overhead
        self._raise_pending_faults()

    def synchronize(self) -> None:
        """Block until the device is idle (``cudaDeviceSynchronize``).

        Any command that faulted since the last sync point is reported
        here as a typed :class:`~repro.gpu.errors.GpuError` subclass
        (asynchronous error reporting, as in CUDA).
        """
        self._check_open()
        t0 = self.host_now
        finish = self.device.wait_all()
        self.host_now = max(self.host_now, finish) + self.profile.sync_overhead
        if self._obs_on:
            self._trace_api("sync:device", t0)
        self._raise_pending_faults()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def timeline(self) -> Timeline:
        """Timeline of all retired commands."""
        return self.device.timeline()
