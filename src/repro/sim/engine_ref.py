"""The pre-optimization event loop, preserved verbatim as a reference.

:mod:`repro.sim.engine` was rewritten into a fast kernel (free-listed
command/token pools, batched heap operations, a tightened dispatch
loop).  This module keeps the original, straight-line event loop —
byte-for-byte the scheduling logic that produced the checked-in golden
traces — as an executable oracle:

* ``tests/sim/test_engine_equivalence.py`` runs every application,
  serve, chaos, and sharding scenario on **both** loops and requires
  bit/byte-identical traces, metrics, and analysis snapshots;
* ``benchmarks/test_engine_throughput.py`` replays the same command
  stream through both loops and gates the fast kernel's events/sec
  against this one.

:class:`ReferenceSimulator` shares :class:`~repro.sim.engine.Command`,
:class:`~repro.sim.engine.EventToken`, and
:class:`~repro.sim.engine.Engine` with the fast kernel — only the loop
differs.  Select it stack-wide with
:func:`repro.sim.engine.engine_kernel`::

    with engine_kernel("reference"):
        result = run_model(...)   # every Device uses this loop

Do not modify the scheduling logic here: it is the fixed point the
equivalence harness compares against.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Callable, Iterable, List, Optional, Tuple

from repro.sim.engine import Command, Engine, EventToken, SimulationError

__all__ = ["ReferenceSimulator"]


class ReferenceSimulator:
    """The original event loop tying commands, streams, and engines.

    Semantics are documented on the fast kernel,
    :class:`repro.sim.engine.Simulator`; this class is the pre-refactor
    implementation, kept as the equivalence/benchmark oracle.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = count()
        self._heap: List[Tuple[float, int, str, Command]] = []
        self._engines: dict = {}
        self._stream_tail: dict = {}
        self._pending = 0
        self._completed: List[Command] = []
        self.observer: Optional[Callable[[Command], None]] = None
        self.injector = None
        self.faulted: List[Command] = []
        #: the fast kernel's retirement hook slot, so callers can set it
        #: on either loop; this loop never calls it
        self.clock_hook: Optional[Callable[[float], None]] = None

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
        """Submit a command to the device (original implementation)."""
        if cmd.seq >= 0:
            raise SimulationError(f"{cmd!r} enqueued twice")
        if cmd.engine not in self._engines:
            raise SimulationError(f"unknown engine {cmd.engine!r}")
        cmd.seq = next(self._seq)
        cmd.enqueue_time = float(enqueue_time)
        if poison_waits is not None:
            cmd._poison_waits = frozenset(id(t) for t in poison_waits)
        self._pending += 1

        unresolved = 0
        # implicit in-order stream dependency
        if cmd.stream is not None:
            tail = self._stream_tail.get(id(cmd.stream))
            cmd.stream_pred = tail
            if tail is not None and not tail.done:
                tail._dependents.append(cmd)
                unresolved += 1
            self._stream_tail[id(cmd.stream)] = cmd

        waits = tuple(waits)
        cmd.wait_toks = waits
        for tok in waits:
            if not tok.done:
                if not tok._recorded:
                    raise SimulationError(
                        f"wait on never-recorded event {tok.name!r} would deadlock"
                    )
                tok._waiters.append(cmd)
                unresolved += 1
            elif tok.poisoned and self._carries_poison(cmd, tok):
                cmd.poisoned = True

        for tok in records:
            if tok._recorded:
                raise SimulationError(f"event {tok.name!r} recorded twice")
            tok._recorded = True
            tok.recorded_by = cmd
            cmd._records.append(tok)

        cmd._unresolved = unresolved
        if unresolved == 0:
            self._make_ready(cmd, max(self.now, cmd.enqueue_time))
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
            heapq.heappush(self._heap, (at, cmd.seq, "ready", cmd))

    def _ready_now(self, cmd: Command, now: float) -> None:
        cmd.state = Command.READY
        cmd.ready_time = now
        eng = self._engines[cmd.engine]
        eng.push(cmd)
        self._try_start(eng, now)

    def _try_start(self, eng: Engine, now: float) -> None:
        if eng.busy is not None or not eng.queue:
            return
        _, _, cmd = heapq.heappop(eng.queue)
        cmd.queue_depth = len(eng.queue)
        eng.busy = cmd
        cmd.state = Command.RUNNING
        if self.injector is not None:
            cmd.duration += self.injector.latency_extra(cmd)
        cmd.start_time = now
        cmd.finish_time = now + cmd.duration
        heapq.heappush(self._heap, (cmd.finish_time, cmd.seq, "finish", cmd))

    def _finish(self, cmd: Command, now: float) -> None:
        eng = self._engines[cmd.engine]
        if eng.busy is not cmd:  # pragma: no cover - internal invariant
            raise SimulationError("finish event for non-running command")
        eng.busy = None
        eng.busy_time += cmd.duration
        cmd.state = Command.DONE
        self._pending -= 1
        self._completed.append(cmd)
        if self.injector is not None and cmd.error is None:
            cmd.error = self.injector.fault_at_retirement(cmd, now)
        faulted = cmd.error is not None or cmd.poisoned
        if cmd.payload is not None and not faulted:
            cmd.payload()
        if self.injector is not None and not faulted:
            self.injector.corrupt_at_retirement(cmd, now)
        for tok in cmd._records:
            tok.time = now
            if faulted:
                tok.poisoned = True
            waiters, tok._waiters = tok._waiters, []
            for w in waiters:
                if tok.poisoned and self._carries_poison(w, tok):
                    w.poisoned = True
                self._resolve_dep(w, now)
        deps, cmd._dependents = cmd._dependents, []
        for dep in deps:
            self._resolve_dep(dep, now)
        if faulted:
            self.faulted.append(cmd)
        if self.injector is not None:
            self.injector.after_retirement(cmd, now)
        if self.observer is not None:
            self.observer(cmd)
        self._try_start(eng, now)

    def _resolve_dep(self, cmd: Command, now: float) -> None:
        cmd._unresolved -= 1
        if cmd._unresolved == 0 and cmd.state == Command.PENDING:
            self._make_ready(cmd, now)

    def _step(self) -> bool:
        """Process one event; returns False if the heap is empty."""
        if not self._heap:
            return False
        t, _, action, cmd = heapq.heappop(self._heap)
        if t < self.now:  # pragma: no cover - internal invariant
            raise SimulationError("time went backwards")
        self.now = t
        if action == "ready":
            self._ready_now(cmd, t)
        else:
            self._finish(cmd, t)
        return True

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def run_until(self, predicate: Callable[[], bool]) -> float:
        """Advance virtual time until ``predicate()`` is true."""
        while not predicate():
            if not self._step():
                raise SimulationError(
                    "event heap drained before condition held "
                    f"({self._pending} commands stuck)"
                )
        return self.now

    def wait_command(self, cmd: Command) -> float:
        """Block (in virtual time) until ``cmd`` completes."""
        return self.run_until(lambda: cmd.done)

    def wait_event(self, tok: EventToken) -> float:
        """Block (in virtual time) until ``tok`` completes."""
        if not tok._recorded and not tok.done:
            raise SimulationError(f"wait on never-recorded event {tok.name!r}")
        return self.run_until(lambda: tok.done)

    @property
    def next_event_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None`` when idle."""
        return self._heap[0][0] if self._heap else None

    def advance_to(self, t: float) -> float:
        """Process every event scheduled at or before time ``t``."""
        while self._heap and self._heap[0][0] <= t:
            self._step()
        return self.now

    def run_all(self) -> float:
        """Drain every pending command; returns the final virtual time."""
        while self._step():
            pass
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
