"""Discrete-event simulation core: commands, engines, and the event loop.

The model is intentionally small and deterministic:

* A :class:`Command` is one unit of device work (a transfer, a kernel,
  an event record, ...).  It occupies exactly one :class:`Engine` for a
  fixed ``duration`` of virtual time.
* An :class:`Engine` is an exclusive resource (capacity one).  Commands
  queue on it in ``(ready_time, sequence)`` order, so ties are broken by
  enqueue order and the simulation is fully reproducible.
* A command becomes *ready* when (a) its host ``enqueue_time`` has been
  reached, (b) the previous command on its stream has finished (in-order
  stream semantics), and (c) every explicit dependency (cross-stream
  event) has completed.
* When a command finishes, its functional ``payload`` runs.  Payloads
  therefore execute in an order consistent with all declared
  dependencies, which is what makes pipelined executions verifiable
  against a sequential NumPy reference.

Virtual time is in seconds (float).  The event loop is a single binary
heap keyed by ``(time, sequence)``.

Every region run and serve pass retires its commands through this
loop, so the :class:`Simulator` here is a *fast kernel*:

* **Free-listed objects (opt-in)** — :meth:`Command.acquire` /
  :meth:`EventToken.acquire` take ``__slots__`` objects from a bounded
  module-level pool, which only :meth:`Simulator.recycle_completed`
  (or an explicit ``release``) refills.  Region runs and the serving
  scheduler never recycle (their results keep the retired commands),
  so they allocate fresh objects; the engine benchmark's replay loop
  (:mod:`repro.sim.enginebench`) and the tests do.  Once a simulator
  has recycled, retirement also keeps the lists it drains for the next
  recycle round, so a steady recycling replay allocates no containers.
* **Leftover-free retirement** — :meth:`Simulator._finish` drops every
  container a retired command no longer needs (its record list, drained
  waiter/dependent lists, its corruption ``sink``), keeping only the
  metadata post-run analysis reads.  That breaks the one reference cycle
  per command (``cmd._records <-> tok.recorded_by``), so retired
  commands and tokens are freed by reference counting instead of by the
  cyclic garbage collector, whose sweeps otherwise dominate long runs.
* **Batched heap traffic** — a dispatch round does a single ``heapq``
  push (the finish event).  A command that becomes ready on an idle
  engine starts directly instead of churning through the engine's
  ready-queue heap, and dependency resolution feeds the shared event
  heap only for genuinely future ``enqueue_time`` edges.
* **Tight loops** — :meth:`run_all` / :meth:`wait_command` /
  :meth:`wait_event` drive the heap with locally-bound operations
  instead of a per-event predicate closure.

Scheduling semantics are *identical* to the original loop, preserved
verbatim as :class:`repro.sim.engine_ref.ReferenceSimulator`; the
equivalence harness (``tests/sim/test_engine_equivalence.py``) holds
traces, metrics, and analysis snapshots byte-identical between the two.
Use :func:`engine_kernel` to select which loop the whole stack runs on.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from itertools import count
from typing import Callable, Collection, Iterable, List, Optional, Tuple

from repro.errors import ReproError

_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = [
    "Command",
    "Engine",
    "EventToken",
    "Simulator",
    "SimulationError",
    "active_kernel",
    "engine_kernel",
    "make_simulator",
]


class SimulationError(ReproError, RuntimeError):
    """Raised when the simulator is used inconsistently.

    Examples include running a command twice, waiting on a command that
    was never enqueued, or a dependency cycle that leaves commands
    unrunnable after the event heap drains.
    """


#: bounded free lists shared by every simulator in the process.  The
#: cap keeps a burst of recycled objects from pinning memory forever.
_POOL_MAX = 4096
_COMMAND_POOL: List["Command"] = []
_TOKEN_POOL: List["EventToken"] = []


class EventToken:
    """A CUDA-event-like completion token.

    A token is *recorded* by attaching it to a command (usually via
    :meth:`Simulator.enqueue` with ``records=[token]``); it completes
    when that command finishes.  Other commands may *wait* on the token
    by listing it in their ``waits``.

    Attributes
    ----------
    name:
        Debug label.
    time:
        Completion time in virtual seconds, or ``None`` while pending.
    """

    __slots__ = ("name", "time", "_waiters", "_recorded", "recorded_by", "poisoned")

    def __init__(self, name: str = "event") -> None:
        self.name = name
        self.time: Optional[float] = None
        self._waiters: List["Command"] = []
        self._recorded = False
        #: the command that records this token (set at enqueue) —
        #: dependency metadata for post-run critical-path analysis
        self.recorded_by: Optional["Command"] = None
        #: True when the recording command faulted (or was itself
        #: poisoned); waiters inherit the poison so they never consume
        #: data a faulted command failed to produce
        self.poisoned = False

    @classmethod
    def acquire(cls, name: str = "event") -> "EventToken":
        """A fresh token, recycled from the free list when possible.

        Equivalent to ``EventToken(name)``; tokens enter the free list
        via :meth:`Simulator.recycle_completed` or :meth:`release`.
        """
        pool = _TOKEN_POOL
        if not pool or cls is not EventToken:
            return cls(name)
        tok = pool.pop()
        tok.name = name
        return tok

    def release(self) -> None:
        """Return this token to the free list.

        The caller asserts no live command or bookkeeping structure
        still references the token; a recycled token is handed out
        again by :meth:`acquire` as if freshly constructed.
        """
        self.time = None
        self._waiters = []
        self._recorded = False
        self.recorded_by = None
        self.poisoned = False
        pool = _TOKEN_POOL
        if len(pool) < _POOL_MAX and type(self) is EventToken:
            pool.append(self)

    @property
    def done(self) -> bool:
        """Whether the recording command has finished."""
        return self.time is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"done@{self.time:.6g}" if self.done else "pending"
        return f"EventToken({self.name!r}, {state})"


class Command:
    """One schedulable unit of device work.

    Parameters
    ----------
    kind:
        Classification used for tracing and time-distribution reports,
        e.g. ``"h2d"``, ``"d2h"``, ``"kernel"``.
    engine:
        Name of the engine the command occupies.
    duration:
        Occupancy time in virtual seconds (must be ``>= 0``).
    stream:
        Stream identifier for in-order sequencing; ``None`` detaches the
        command from any stream (only explicit deps order it).
    payload:
        Optional zero-argument callable executed when the command
        finishes; used for functional data movement / kernels.
    label:
        Human-readable description for traces.
    nbytes:
        Bytes moved (transfers) or touched (kernels); trace metadata.
    """

    __slots__ = (
        "kind",
        "engine",
        "duration",
        "stream",
        "payload",
        "label",
        "nbytes",
        "seq",
        "enqueue_time",
        "ready_time",
        "start_time",
        "finish_time",
        "_unresolved",
        "_dependents",
        "_records",
        "state",
        "queue_depth",
        "error",
        "poisoned",
        "_poison_waits",
        "wait_toks",
        "stream_pred",
        "chunk",
        "sink",
        "_eng",
    )

    PENDING = "pending"
    READY = "ready"
    RUNNING = "running"
    DONE = "done"

    def __init__(
        self,
        kind: str,
        engine: str,
        duration: float,
        stream: Optional[object] = None,
        payload: Optional[Callable[[], None]] = None,
        label: str = "",
        nbytes: int = 0,
    ) -> None:
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        self.kind = kind
        self.engine = engine
        self.duration = float(duration)
        self.stream = stream
        self.payload = payload
        self.label = label
        self.nbytes = int(nbytes)
        self.seq = -1
        self.enqueue_time = 0.0
        self.ready_time: Optional[float] = None
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self._unresolved = 0
        self._dependents: List["Command"] = []
        self._records: List[EventToken] = []
        self.state = Command.PENDING
        #: commands still waiting on this engine when this one was
        #: dispatched — observability metadata, not scheduling state
        self.queue_depth = 0
        #: :class:`~repro.faults.plan.InjectedFault` when this command
        #: faulted at retirement (payload suppressed), else ``None``
        self.error = None
        #: True when a wait dependency faulted; the payload is
        #: suppressed so faulted data never propagates into results
        self.poisoned = False
        #: ids of the tokens whose poison this command inherits;
        #: ``None`` means every wait is a data dependency (the safe
        #: default).  Callers pass a subset when some waits are
        #: ordering-only anti-dependencies (e.g. ring-slot reuse guards).
        #: The fast kernel stores a tuple (a tuple of ints is untracked
        #: by the cyclic collector; a frozenset never is).
        self._poison_waits: Optional[Collection[int]] = None
        #: tokens this command waited on, captured at enqueue.  The
        #: event loop clears its live dependency lists at retirement,
        #: so analysis reads these instead.
        self.wait_toks: Tuple[EventToken, ...] = ()
        #: the command this one implicitly follows on its stream
        #: (``None`` for the first command on a stream / stream-less)
        self.stream_pred: Optional["Command"] = None
        #: pipeline chunk index that issued this command (``None`` for
        #: resident copies, markers, and non-pipelined work) — set by
        #: the executor, consumed by bottleneck attribution
        self.chunk: Optional[int] = None
        #: where this command's data lands — an ndarray (or a zero-arg
        #: callable resolving to one) the silent-fault injector may
        #: corrupt after the payload ran.  ``None`` (the default) makes
        #: the command immune to silent corruption.
        self.sink = None
        #: resolved :class:`Engine` object, cached at enqueue so the
        #: dispatch/finish hot path skips the per-command name lookup
        self._eng: Optional["Engine"] = None

    @classmethod
    def acquire(
        cls,
        kind: str,
        engine: str,
        duration: float,
        *,
        stream: Optional[object] = None,
        payload: Optional[Callable[[], None]] = None,
        label: str = "",
        nbytes: int = 0,
    ) -> "Command":
        """A fresh command, recycled from the free list when possible.

        Equivalent to constructing a :class:`Command`; recycled objects
        (see :meth:`Simulator.recycle_completed` / :meth:`release`)
        come back indistinguishable from freshly-constructed ones to
        the simulator: every reference-holding or state field is at its
        pristine default, and the scheduling timestamps — which
        :meth:`Simulator.enqueue` and dispatch unconditionally
        overwrite — may hold stale values only until then.
        """
        pool = _COMMAND_POOL
        if not pool or cls is not Command:
            # positional: a class call with keywords builds a dict
            return cls(kind, engine, duration, stream, payload, label, nbytes)
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        self = pool.pop()
        self.kind = kind
        self.engine = engine
        self.duration = float(duration)
        self.stream = stream
        self.payload = payload
        self.label = label
        self.nbytes = int(nbytes)
        return self

    def release(self) -> None:
        """Reset this command and return it to the free list.

        The caller asserts nothing live still references the command
        (results, analyzers, stream tails).  Fields
        :meth:`acquire` (kind, engine, duration, label, nbytes) or the
        next enqueue/dispatch lifecycle (the scheduling timestamps,
        ``queue_depth``, ``_unresolved``) unconditionally overwrite are
        left as-is; everything that could pin memory or leak state is
        reset.
        """
        self.stream = None
        self.payload = None
        self.sink = None
        self.error = None
        self.chunk = None
        self.wait_toks = ()
        self.stream_pred = None
        self._dependents = []
        self._records = []
        self._poison_waits = None
        self._eng = None
        self.seq = -1
        self.poisoned = False
        self.state = Command.PENDING
        pool = _COMMAND_POOL
        if len(pool) < _POOL_MAX and type(self) is Command:
            pool.append(self)

    @property
    def done(self) -> bool:
        """Whether the command has finished executing."""
        return self.state == Command.DONE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Command(#{self.seq} {self.kind} {self.label!r} on {self.engine}, "
            f"{self.state})"
        )


class Engine:
    """An exclusive device resource (DMA engine, compute engine, ...).

    Ready commands queue in ``(ready_time, seq)`` order; the engine runs
    at most one at a time.
    """

    __slots__ = ("name", "busy", "queue", "busy_time")

    def __init__(self, name: str) -> None:
        self.name = name
        self.busy: Optional[Command] = None
        self.queue: List[Tuple[float, int, Command]] = []
        #: cumulative occupied virtual time, for utilization reports
        self.busy_time = 0.0

    def push(self, cmd: Command) -> None:
        """Queue a ready command."""
        heapq.heappush(self.queue, (cmd.ready_time, cmd.seq, cmd))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Engine({self.name!r}, busy={self.busy is not None}, q={len(self.queue)})"


#: integer heap-event tags.  ``(time, seq)`` is unique per event — a
#: command's ready and finish events never coexist in the heap — so the
#: tag is never compared; the values still mirror the original string
#: order ("finish" < "ready") for belt-and-braces determinism.
_EV_FINISH = 0
_EV_READY = 1


class Simulator:
    """The event loop tying commands, streams, and engines together.

    A :class:`Simulator` owns virtual time.  Streams are represented
    only by identity: the simulator remembers the last command enqueued
    per stream object and adds an implicit dependency on it.

    The loop is *incremental*: callers may enqueue commands, run until a
    particular command completes (a synchronous API call), enqueue more,
    and so on.  ``now`` never goes backwards.

    This is the fast kernel (see the module docstring); the original
    loop survives as :class:`repro.sim.engine_ref.ReferenceSimulator`
    and both produce identical schedules and command metadata.
    """

    __slots__ = (
        "now",
        "_seq",
        "_heap",
        "_engines",
        "_stream_tail",
        "_pending",
        "_completed",
        "observer",
        "injector",
        "faulted",
        "clock_hook",
        "_spare",
    )

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = count()
        self._heap: List[Tuple[float, int, int, Command]] = []
        self._engines: dict = {}
        self._stream_tail: dict = {}
        self._pending = 0
        self._completed: List[Command] = []
        #: optional ``callable(cmd)`` invoked after each command
        #: retires (payload and event bookkeeping done) — the hook the
        #: observability layer uses to emit per-command engine spans.
        #: Must not mutate simulator state.
        self.observer: Optional[Callable[[Command], None]] = None
        #: optional :class:`~repro.faults.inject.FaultInjector`
        #: consulted at dispatch (latency jitter) and retirement
        #: (fault decisions, pressure events).  ``None`` (the default)
        #: keeps every result bit-identical to an injector-free build.
        self.injector = None
        #: commands that retired with ``error`` set or poisoned, in
        #: retirement order; the host runtime drains this at sync
        #: points (async error reporting, CUDA-style)
        self.faulted: List[Command] = []
        #: optional ``callable(now)`` invoked after each command
        #: retires — the virtual-clock feed for continuous telemetry
        #: (window closing in :class:`repro.obs.TelemetrySampler`).
        #: Must be cheap and must not mutate simulator state.
        self.clock_hook: Optional[Callable[[float], None]] = None
        #: drained, emptied record/waiter/dependent lists kept for
        #: :meth:`recycle_completed` to hand back to pooled objects.
        #: ``None`` until the first recycle, so a simulator that never
        #: recycles simply drops them at retirement.
        self._spare: Optional[List[list]] = None

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def add_engine(self, name: str) -> Engine:
        """Register an exclusive engine; returns the engine object."""
        if name in self._engines:
            raise SimulationError(f"engine {name!r} already exists")
        eng = Engine(name)
        self._engines[name] = eng
        return eng

    def engine(self, name: str) -> Engine:
        """Look up an engine by name."""
        return self._engines[name]

    @property
    def engines(self) -> Iterable[Engine]:
        """All registered engines."""
        return self._engines.values()

    @property
    def completed(self) -> List[Command]:
        """Commands that have finished, in completion order."""
        return self._completed

    # ------------------------------------------------------------------
    # enqueue
    # ------------------------------------------------------------------
    def enqueue(
        self,
        cmd: Command,
        *,
        enqueue_time: float = 0.0,
        waits: Iterable[EventToken] = (),
        records: Iterable[EventToken] = (),
        poison_waits: Optional[Iterable[EventToken]] = None,
    ) -> Command:
        """Submit a command to the device.

        Parameters
        ----------
        cmd:
            The command to submit.  Must not have been enqueued before.
        enqueue_time:
            Host-clock time of the submitting API call; the command
            cannot start earlier.
        waits:
            Event tokens that must complete before the command may run
            (cross-stream dependencies).
        records:
            Event tokens completed when this command finishes.
        poison_waits:
            The subset of ``waits`` that are *data* dependencies: the
            command inherits fault poison only from these.  ``None``
            (the default) treats every wait as a data dependency;
            ``()`` makes every wait an ordering-only anti-dependency.
        """
        if cmd.seq >= 0:
            raise SimulationError(f"{cmd!r} enqueued twice")
        eng = self._engines.get(cmd.engine)
        if eng is None:
            raise SimulationError(f"unknown engine {cmd.engine!r}")
        cmd._eng = eng
        cmd.seq = next(self._seq)
        if type(enqueue_time) is not float:
            enqueue_time = float(enqueue_time)
        cmd.enqueue_time = enqueue_time
        pw = cmd._poison_waits
        if poison_waits is not None:
            pw = cmd._poison_waits = tuple(map(id, poison_waits))
        self._pending += 1

        unresolved = 0
        # implicit in-order stream dependency
        stream = cmd.stream
        if stream is not None:
            sid = id(stream)
            tails = self._stream_tail
            tail = tails.get(sid)
            cmd.stream_pred = tail
            if tail is not None and tail.state != "done":
                tail._dependents.append(cmd)
                unresolved += 1
            tails[sid] = cmd

        if type(waits) is not tuple:
            waits = tuple(waits)
        cmd.wait_toks = waits
        for tok in waits:
            if tok.time is None:
                if not tok._recorded:
                    raise SimulationError(
                        f"wait on never-recorded event {tok.name!r} would deadlock"
                    )
                tok._waiters.append(cmd)
                unresolved += 1
            elif tok.poisoned and (pw is None or id(tok) in pw):
                cmd.poisoned = True

        for tok in records:
            if tok._recorded:
                raise SimulationError(f"event {tok.name!r} recorded twice")
            tok._recorded = True
            tok.recorded_by = cmd
            cmd._records.append(tok)

        cmd._unresolved = unresolved
        if unresolved == 0:
            now = self.now
            if enqueue_time <= now:
                self._ready_now(cmd, now)
            else:
                _heappush(self._heap, (enqueue_time, cmd.seq, _EV_READY, cmd))
        return cmd

    # ------------------------------------------------------------------
    # event-loop internals
    # ------------------------------------------------------------------
    @staticmethod
    def _carries_poison(cmd: Command, tok: EventToken) -> bool:
        """Whether ``tok`` is a data dependency of ``cmd``."""
        return cmd._poison_waits is None or id(tok) in cmd._poison_waits

    def _make_ready(self, cmd: Command, at: float) -> None:
        at = max(at, cmd.enqueue_time)
        if at <= self.now:
            self._ready_now(cmd, self.now)
        else:
            _heappush(self._heap, (at, cmd.seq, _EV_READY, cmd))

    def _ready_now(self, cmd: Command, now: float) -> None:
        cmd.state = "ready"
        cmd.ready_time = now
        eng = cmd._eng
        queue = eng.queue
        if eng.busy is None:
            # dispatch round: at most one engine-heap push/pop pair, and
            # none at all on the (dominant) idle-engine fast path;
            # _start is inlined here — this runs once per command
            if queue:
                _heappush(queue, (now, cmd.seq, cmd))
                _, _, cmd = _heappop(queue)
                cmd.queue_depth = len(queue)
            else:
                cmd.queue_depth = 0
            eng.busy = cmd
            cmd.state = "running"
            inj = self.injector
            if inj is not None:
                cmd.duration += inj.latency_extra(cmd)
            cmd.start_time = now
            finish = now + cmd.duration
            cmd.finish_time = finish
            _heappush(self._heap, (finish, cmd.seq, _EV_FINISH, cmd))
        else:
            _heappush(queue, (now, cmd.seq, cmd))

    def _start(self, eng: Engine, cmd: Command, now: float) -> None:
        """Occupy ``eng`` with ``cmd``; one heap push (the finish event)."""
        cmd.queue_depth = len(eng.queue)
        eng.busy = cmd
        cmd.state = "running"
        inj = self.injector
        if inj is not None:
            cmd.duration += inj.latency_extra(cmd)
        cmd.start_time = now
        finish = now + cmd.duration
        cmd.finish_time = finish
        _heappush(self._heap, (finish, cmd.seq, _EV_FINISH, cmd))

    def _try_start(self, eng: Engine, now: float) -> None:
        if eng.busy is not None or not eng.queue:
            return
        _, _, cmd = _heappop(eng.queue)
        self._start(eng, cmd, now)

    def _finish(self, cmd: Command, now: float) -> None:
        eng = cmd._eng
        if eng.busy is not cmd:  # pragma: no cover - internal invariant
            raise SimulationError("finish event for non-running command")
        eng.busy = None
        eng.busy_time += cmd.duration
        cmd.state = "done"
        self._pending -= 1
        self._completed.append(cmd)
        inj = self.injector
        if inj is not None and cmd.error is None:
            cmd.error = inj.fault_at_retirement(cmd, now)
        faulted = cmd.error is not None or cmd.poisoned
        payload = cmd.payload
        if payload is not None and not faulted:
            payload()
        if inj is not None and not faulted:
            inj.corrupt_at_retirement(cmd, now)
        # retirement keeps only what post-run analysis reads; dropping
        # the record list breaks the cmd <-> tok.recorded_by cycle, and
        # the sink (read only by corrupt_at_retirement) may pin an array
        cmd.sink = None
        heap = self._heap
        spare = self._spare
        recs = cmd._records
        cmd._records = ()
        if recs:
            for tok in recs:
                tok.time = now
                if faulted:
                    tok.poisoned = True
                waiters = tok._waiters
                tok._waiters = ()
                if waiters:
                    if tok.poisoned:
                        tid = id(tok)
                        for w in waiters:
                            wpw = w._poison_waits
                            if wpw is None or tid in wpw:
                                w.poisoned = True
                    for w in waiters:
                        n = w._unresolved = w._unresolved - 1
                        if n == 0 and w.state == "pending":
                            at = w.enqueue_time
                            if at > now:
                                _heappush(heap, (at, w.seq, _EV_READY, w))
                                continue
                            # inlined _ready_now (dispatch round)
                            w.state = "ready"
                            w.ready_time = now
                            weng = w._eng
                            wq = weng.queue
                            if weng.busy is None:
                                if wq:
                                    _heappush(wq, (now, w.seq, w))
                                    _, _, w = _heappop(wq)
                                    w.queue_depth = len(wq)
                                else:
                                    w.queue_depth = 0
                                weng.busy = w
                                w.state = "running"
                                if inj is not None:
                                    w.duration += inj.latency_extra(w)
                                w.start_time = now
                                wfin = now + w.duration
                                w.finish_time = wfin
                                _heappush(heap, (wfin, w.seq, _EV_FINISH, w))
                            else:
                                _heappush(wq, (now, w.seq, w))
                if spare is not None:
                    waiters.clear()
                    spare.append(waiters)
        if spare is not None:
            # a recycling simulator reuses the drained lists, so a
            # recycle round allocates no containers
            recs.clear()
            spare.append(recs)
        deps = cmd._dependents
        cmd._dependents = ()
        if deps:
            for w in deps:
                n = w._unresolved = w._unresolved - 1
                if n == 0 and w.state == "pending":
                    at = w.enqueue_time
                    if at > now:
                        _heappush(heap, (at, w.seq, _EV_READY, w))
                        continue
                    # inlined _ready_now (dispatch round)
                    w.state = "ready"
                    w.ready_time = now
                    weng = w._eng
                    wq = weng.queue
                    if weng.busy is None:
                        if wq:
                            _heappush(wq, (now, w.seq, w))
                            _, _, w = _heappop(wq)
                            w.queue_depth = len(wq)
                        else:
                            w.queue_depth = 0
                        weng.busy = w
                        w.state = "running"
                        if inj is not None:
                            w.duration += inj.latency_extra(w)
                        w.start_time = now
                        wfin = now + w.duration
                        w.finish_time = wfin
                        _heappush(heap, (wfin, w.seq, _EV_FINISH, w))
                    else:
                        _heappush(wq, (now, w.seq, w))
        if spare is not None:
            deps.clear()
            spare.append(deps)
        if faulted:
            self.faulted.append(cmd)
        if inj is not None:
            inj.after_retirement(cmd, now)
        observer = self.observer
        if observer is not None:
            observer(cmd)
        clock_hook = self.clock_hook
        if clock_hook is not None:
            clock_hook(now)
        queue = eng.queue
        if eng.busy is None and queue:
            _, _, nxt = _heappop(queue)
            nxt.queue_depth = len(queue)
            eng.busy = nxt
            nxt.state = "running"
            if inj is not None:
                nxt.duration += inj.latency_extra(nxt)
            nxt.start_time = now
            finish = now + nxt.duration
            nxt.finish_time = finish
            _heappush(heap, (finish, nxt.seq, _EV_FINISH, nxt))

    def _resolve_dep(self, cmd: Command, now: float) -> None:
        cmd._unresolved -= 1
        if cmd._unresolved == 0 and cmd.state == Command.PENDING:
            self._make_ready(cmd, now)

    def _step(self) -> bool:
        """Process one event; returns False if the heap is empty."""
        if not self._heap:
            return False
        t, _, ev, cmd = _heappop(self._heap)
        if t < self.now:  # pragma: no cover - internal invariant
            raise SimulationError("time went backwards")
        self.now = t
        if ev:
            self._ready_now(cmd, t)
        else:
            self._finish(cmd, t)
        return True

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def run_until(self, predicate: Callable[[], bool]) -> float:
        """Advance virtual time until ``predicate()`` is true.

        Returns the virtual time at which the predicate first held.
        Raises :class:`SimulationError` if the event heap drains first
        (a dependency cycle or a wait on never-submitted work).
        """
        heap = self._heap
        pop = _heappop
        ready = self._ready_now
        fin = self._finish
        now = self.now
        while not predicate():
            if not heap:
                raise SimulationError(
                    "event heap drained before condition held "
                    f"({self._pending} commands stuck)"
                )
            t, _, ev, cmd = pop(heap)
            if t < now:  # pragma: no cover - internal invariant
                raise SimulationError("time went backwards")
            now = self.now = t
            if ev:
                ready(cmd, t)
            else:
                fin(cmd, t)
        return self.now

    def wait_command(self, cmd: Command) -> float:
        """Block (in virtual time) until ``cmd`` completes."""
        heap = self._heap
        pop = _heappop
        ready = self._ready_now
        fin = self._finish
        now = self.now
        while cmd.state != "done":
            if not heap:
                raise SimulationError(
                    "event heap drained before condition held "
                    f"({self._pending} commands stuck)"
                )
            t, _, ev, ecmd = pop(heap)
            if t < now:  # pragma: no cover - internal invariant
                raise SimulationError("time went backwards")
            now = self.now = t
            if ev:
                ready(ecmd, t)
            else:
                fin(ecmd, t)
        return self.now

    def wait_event(self, tok: EventToken) -> float:
        """Block (in virtual time) until ``tok`` completes."""
        if not tok._recorded and not tok.done:
            raise SimulationError(f"wait on never-recorded event {tok.name!r}")
        heap = self._heap
        pop = _heappop
        ready = self._ready_now
        fin = self._finish
        now = self.now
        while tok.time is None:
            if not heap:
                raise SimulationError(
                    "event heap drained before condition held "
                    f"({self._pending} commands stuck)"
                )
            t, _, ev, cmd = pop(heap)
            if t < now:  # pragma: no cover - internal invariant
                raise SimulationError("time went backwards")
            now = self.now = t
            if ev:
                ready(cmd, t)
            else:
                fin(cmd, t)
        return self.now

    @property
    def next_event_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None`` when idle."""
        return self._heap[0][0] if self._heap else None

    def advance_to(self, t: float) -> float:
        """Process every event scheduled at or before time ``t``.

        Unlike :meth:`run_until`, draining the heap early is fine —
        this is a bounded pump used by watchdogs to let in-flight work
        retire without waiting for any particular command.  Returns the
        current virtual time (which never goes backwards).
        """
        while self._heap and self._heap[0][0] <= t:
            self._step()
        return self.now

    def run_all(self) -> float:
        """Drain every pending command; returns the final virtual time."""
        heap = self._heap
        pop = _heappop
        ready = self._ready_now
        fin = self._finish
        now = self.now
        while heap:
            t, _, ev, cmd = pop(heap)
            if t < now:  # pragma: no cover - internal invariant
                raise SimulationError("time went backwards")
            now = self.now = t
            if ev:
                ready(cmd, t)
            else:
                fin(cmd, t)
        if self._pending:
            raise SimulationError(f"{self._pending} commands stuck (dependency cycle?)")
        return self.now

    @property
    def idle(self) -> bool:
        """True when no commands are pending or queued."""
        return self._pending == 0

    def stream_tail(self, stream: object) -> Optional[Command]:
        """The most recently enqueued command on ``stream`` (or None)."""
        return self._stream_tail.get(id(stream))

    # ------------------------------------------------------------------
    # recycling
    # ------------------------------------------------------------------
    def recycle_completed(self) -> int:
        """Release every retired command (and every token one of them
        recorded and another waited on) to the free lists; returns how
        many commands were recycled.

        Only legal on an idle simulator.  The caller asserts that no
        live structure still needs the retired objects — results,
        analyzers, deferred observability spans, and fault backlogs all
        read retired-command metadata, so recycle only after those
        consumers are done (or were never attached).  Stream tails are
        dropped too, so commands enqueued afterwards start a fresh
        ``stream_pred`` chain.

        From the first call on, retirement keeps the lists it drains
        (see ``_spare``) and this hands them to the pooled objects, so a
        steady recycling replay allocates no containers.
        """
        if self._pending:
            raise SimulationError(
                f"recycle_completed on a busy simulator ({self._pending} pending)"
            )
        done = self._completed
        self._completed = []
        self.faulted.clear()
        self._stream_tail.clear()
        # inlined EventToken.release / Command.release bodies: this loop
        # touches every retired object, so the per-object method-call
        # overhead is worth eliding.  Keep in sync with the methods.
        tok_pool = _TOKEN_POOL
        cmd_pool = _COMMAND_POOL
        pool_max = _POOL_MAX
        spare = self._spare
        if spare is None:
            spare = self._spare = []
        pop = spare.pop
        # Retirement emptied every ``cmd._records``, so record tokens are
        # found through the waits that consumed them (by the contract
        # above, a token retired before the last recycle is never waited
        # on after it); a token nobody waited on is simply freed by
        # reference counting.  Clearing ``recorded_by`` marks a token
        # as pooled, so one waited on by several commands is pooled once.
        for cmd in done:
            for tok in cmd.wait_toks:
                if tok.recorded_by is None:
                    continue
                tok.time = None
                tok._waiters = pop() if spare else []
                tok._recorded = False
                tok.recorded_by = None
                tok.poisoned = False
                if len(tok_pool) < pool_max and type(tok) is EventToken:
                    tok_pool.append(tok)
            cmd.stream = None
            cmd.payload = None
            cmd.sink = None
            cmd.error = None
            cmd.chunk = None
            cmd.wait_toks = ()
            cmd.stream_pred = None
            cmd._dependents = pop() if spare else []
            cmd._records = pop() if spare else []
            cmd._poison_waits = None
            cmd._eng = None
            cmd.seq = -1
            cmd.poisoned = False
            cmd.state = "pending"
            if len(cmd_pool) < pool_max and type(cmd) is Command:
                cmd_pool.append(cmd)
        # lists of tokens nobody waited on (never pooled) are not needed
        spare.clear()
        return len(done)


# ----------------------------------------------------------------------
# kernel selection
# ----------------------------------------------------------------------
#: stack of active simulator classes; the top entry is what
#: :func:`make_simulator` instantiates.  Mutated only by
#: :func:`engine_kernel`.
_KERNEL_STACK: List[type] = [Simulator]


def _kernel_class(name: str) -> type:
    if name == "fast":
        return Simulator
    if name == "reference":
        from repro.sim.engine_ref import ReferenceSimulator

        return ReferenceSimulator
    raise ValueError(f"unknown engine kernel {name!r}; expected 'fast' or 'reference'")


def make_simulator() -> "Simulator":
    """Instantiate the currently selected event-loop kernel.

    :class:`~repro.sim.device.Device` builds its simulator through this
    hook, so :func:`engine_kernel` switches the entire stack — runtime,
    executor, serve — onto the chosen loop.
    """
    return _KERNEL_STACK[-1]()


def active_kernel() -> str:
    """Name of the selected kernel: ``"fast"`` or ``"reference"``."""
    return "fast" if _KERNEL_STACK[-1] is Simulator else "reference"


@contextmanager
def engine_kernel(name: str):
    """Select the event-loop kernel for the duration of a ``with`` block.

    ``engine_kernel("reference")`` makes every subsequently created
    :class:`~repro.sim.device.Device` run on the preserved pre-refactor
    loop (:class:`~repro.sim.engine_ref.ReferenceSimulator`); the
    equivalence harness and the engine benchmark use it to compare the
    two kernels on identical workloads.  Selection nests and is
    restored on exit.  Not thread-safe (neither is the simulator).
    """
    _KERNEL_STACK.append(_kernel_class(name))
    try:
        yield
    finally:
        _KERNEL_STACK.pop()
