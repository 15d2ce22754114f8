"""The simulated GPU: profile + engines + allocator + event loop.

A :class:`Device` composes the pieces in this subpackage into one
object the host runtime (:mod:`repro.gpu`) programs against.  It

* owns a :class:`~repro.sim.engine.Simulator` with the profile's DMA
  and compute engines registered,
* owns the device :class:`~repro.sim.memory.MemoryAllocator`,
* converts logical operations (an ``nbytes`` H2D copy, a kernel with a
  given cost) into :class:`~repro.sim.engine.Command` objects with
  durations from the profile's cost models, and
* owns the :class:`~repro.sim.trace.TimelineColumns` store its retired
  commands are folded into (:meth:`Device.compact`), which every
  :class:`~repro.sim.trace.Timeline` of this device views.

The device knows nothing about arrays or pipelining — that is the job
of :mod:`repro.gpu` and :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.sim.bandwidth import transfer_time_1d, transfer_time_2d
from repro.sim.engine import Command, EventToken, make_simulator
from repro.sim.memory import AllocationRecord, MemoryAllocator
from repro.sim.profiles import DeviceProfile
from repro.sim.stream import SimStream
from repro.sim.trace import Timeline, TimelineColumns

__all__ = ["Device"]


class Device:
    """One simulated GPU.

    Parameters
    ----------
    profile:
        Static description and cost calibration (see
        :mod:`repro.sim.profiles`).
    """

    def __init__(self, profile: DeviceProfile) -> None:
        self.profile = profile
        self.sim = make_simulator()
        #: memo of pre-contention transfer durations keyed by
        #: ``(direction, nbytes, rows, row_bytes, pinned)`` — pipelined
        #: apps submit thousands of identically-shaped chunk copies, so
        #: the bandwidth model is evaluated once per shape.  Contention
        #: (:attr:`shared_link`) is stateful and applied after the memo.
        self._xfer_memo: dict = {}
        self._dma_names: List[str] = []
        for i in range(profile.dma_engines):
            self._dma_names.append(f"dma{i}")
            self.sim.add_engine(f"dma{i}")
        self._compute_names: List[str] = []
        for i in range(profile.compute_engines):
            self._compute_names.append(f"compute{i}")
            self.sim.add_engine(f"compute{i}")
        self.memory = MemoryAllocator(
            capacity=profile.usable_memory_bytes,
            context_overhead=profile.context_overhead_bytes,
        )
        #: installed :class:`~repro.faults.inject.FaultInjector` (or None)
        self.injector = None
        #: :class:`~repro.sim.bandwidth.BandwidthShared` this device's
        #: transfers contend on (None = private link, the default)
        self.shared_link = None
        #: one row per compacted command, in retirement order; made by
        #: the first :meth:`compact`, so building a device stays cheap
        self._history: Optional[TimelineColumns] = None

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def install_fault_injector(self, injector) -> None:
        """Attach a :class:`~repro.faults.inject.FaultInjector`.

        The simulator consults it at command dispatch and retirement;
        pressure events get access to this device's allocator.  Pass
        ``None`` to uninstall.
        """
        self.injector = injector
        self.sim.injector = injector
        if injector is not None:
            injector.attach_memory(self.memory)

    @property
    def lost(self) -> bool:
        """Whether an injected fault has killed the device."""
        return self.injector is not None and self.injector.device_lost

    # ------------------------------------------------------------------
    # engines
    # ------------------------------------------------------------------
    def copy_engine(self, direction: str) -> str:
        """The DMA engine a transfer in ``direction`` runs on.

        With one engine (the default; PCIe bandwidth is shared) both
        directions contend.  With two, H2D uses ``dma0`` and D2H
        ``dma1`` like the K40m's dual copy engines.  Raises
        ``ValueError`` for a direction other than ``"h2d"``/``"d2h"``.
        """
        if direction not in ("h2d", "d2h"):
            raise ValueError(f"bad direction {direction!r}")
        if len(self._dma_names) == 1:
            return self._dma_names[0]
        return self._dma_names[0] if direction == "h2d" else self._dma_names[1]

    @property
    def compute_engine(self) -> str:
        """The engine kernels run on."""
        return self._compute_names[0]

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, tag: str = "") -> AllocationRecord:
        """Reserve device memory (raises ``OutOfDeviceMemory`` on OOM)."""
        return self.memory.allocate(nbytes, tag)

    def free(self, rec: AllocationRecord) -> None:
        """Release a device allocation."""
        self.memory.release(rec)

    # ------------------------------------------------------------------
    # command submission
    # ------------------------------------------------------------------
    def transfer_time(
        self,
        direction: str,
        nbytes: int,
        rows: Optional[int],
        row_bytes: Optional[int],
        pinned: bool,
    ) -> float:
        """Duration of one copy before per-command overheads.

        The link cost model, memoized per shape (:attr:`_xfer_memo`),
        then stretched by :attr:`shared_link` when one is attached.
        ``direction`` must already be valid (see :meth:`copy_engine`).
        """
        link = self.profile.h2d if direction == "h2d" else self.profile.d2h
        key = (direction, nbytes, rows, row_bytes, pinned)
        duration = self._xfer_memo.get(key)
        if duration is None:
            if rows is not None and row_bytes is not None:
                if rows * row_bytes != nbytes:
                    raise ValueError("rows * row_bytes must equal nbytes")
                duration = transfer_time_2d(link, rows, row_bytes, pinned=pinned)
            else:
                duration = transfer_time_1d(link, nbytes, pinned=pinned)
            if len(self._xfer_memo) >= 1024:
                self._xfer_memo.clear()
            self._xfer_memo[key] = duration
        if self.shared_link is not None:
            duration = self.shared_link.contend(duration, link.latency)
        return duration

    def submit_copy(
        self,
        direction: str,
        nbytes: int,
        *,
        stream: Optional[SimStream] = None,
        payload: Optional[Callable[[], None]] = None,
        enqueue_time: float = 0.0,
        waits: Iterable[EventToken] = (),
        records: Iterable[EventToken] = (),
        poison_waits: Optional[Iterable[EventToken]] = None,
        pinned: bool = True,
        rows: Optional[int] = None,
        row_bytes: Optional[int] = None,
        extra_seconds: float = 0.0,
        label: str = "",
    ) -> Command:
        """Enqueue a host<->device transfer.

        Parameters
        ----------
        direction:
            ``"h2d"`` or ``"d2h"``.
        nbytes:
            Total bytes moved.
        rows, row_bytes:
            If both given, the transfer is a pitched 2-D copy of
            ``rows`` rows of ``row_bytes`` bytes each (``rows *
            row_bytes`` must equal ``nbytes``).
        pinned:
            Whether the host buffer is page-locked.
        """
        engine = self.copy_engine(direction)
        duration = self.transfer_time(direction, nbytes, rows, row_bytes, pinned)
        duration += extra_seconds
        cmd = Command.acquire(
            direction,
            engine,
            duration,
            stream=stream,
            payload=payload,
            label=label,
            nbytes=nbytes,
        )
        return self.sim.enqueue(
            cmd, enqueue_time=enqueue_time, waits=waits, records=records,
            poison_waits=poison_waits,
        )

    def submit_kernel(
        self,
        cost_seconds: float,
        *,
        stream: Optional[SimStream] = None,
        payload: Optional[Callable[[], None]] = None,
        enqueue_time: float = 0.0,
        waits: Iterable[EventToken] = (),
        records: Iterable[EventToken] = (),
        poison_waits: Optional[Iterable[EventToken]] = None,
        nbytes: int = 0,
        extra_seconds: float = 0.0,
        label: str = "",
    ) -> Command:
        """Enqueue a kernel with a modelled execution cost.

        The profile's fixed launch overhead (plus any
        ``extra_seconds`` of scheduling contention) is added to
        ``cost_seconds``.
        """
        cmd = Command.acquire(
            "kernel",
            self.compute_engine,
            self.profile.kernel_launch_overhead + cost_seconds + extra_seconds,
            stream=stream,
            payload=payload,
            label=label,
            nbytes=nbytes,
        )
        return self.sim.enqueue(
            cmd, enqueue_time=enqueue_time, waits=waits, records=records,
            poison_waits=poison_waits,
        )

    def submit_marker(
        self,
        *,
        stream: Optional[SimStream] = None,
        enqueue_time: float = 0.0,
        waits: Iterable[EventToken] = (),
        records: Iterable[EventToken] = (),
        label: str = "marker",
    ) -> Command:
        """Enqueue a zero-duration marker (event record / barrier).

        Markers run on the compute engine with zero duration; they are
        used to implement ``eventRecord`` on an empty stream position
        and stream-wide barriers.
        """
        cmd = Command.acquire(
            "marker",
            self._compute_names[0],
            0.0,
            stream=stream,
            label=label,
        )
        return self.sim.enqueue(
            cmd, enqueue_time=enqueue_time, waits=waits, records=records
        )

    # ------------------------------------------------------------------
    # progress / results
    # ------------------------------------------------------------------
    def wait(self, cmd: Command) -> float:
        """Advance virtual time until ``cmd`` completes; returns time."""
        return self.sim.wait_command(cmd)

    def wait_all(self) -> float:
        """Drain all pending work; returns final virtual time."""
        return self.sim.run_all()

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.sim.now

    @property
    def retired(self) -> int:
        """Commands retired so far, compacted or not.

        Row ``i`` of this device's store is the ``i``-th command to
        retire, so a count taken now is where the rows of commands
        retiring from now on start.
        """
        hist = self._history
        return (0 if hist is None else len(hist)) + len(self.sim.completed)

    def compact(self) -> int:
        """Fold retired commands into the timeline store; returns its row count.

        The simulator's retired, not yet compacted commands
        (``sim.completed``) become rows in one batch and leave that
        list.  Each loses its ``stream_pred`` and ``wait_toks``: the
        rows keep those edges as sequence numbers, and the references
        would otherwise let a live stream tail or event token pin the
        whole chain of commands before it.  The event loop never reads
        either field after retirement.
        """
        hist = self._history
        if hist is None:
            hist = self._history = TimelineColumns()
        done = self.sim.completed
        if done:
            hist.append_commands(done)
            for cmd in done:
                cmd.stream_pred = None
                cmd.wait_toks = ()
            done.clear()
        return len(hist)

    def timeline(self, start: int = 0) -> Timeline:
        """Timeline of the commands retired from row ``start`` on.

        Compacts first; the result views this device's store.
        """
        end = self.compact()
        return Timeline.view(self._history, start, end)
