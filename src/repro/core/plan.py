"""Chunk planning: turning a loop + clauses into scheduled subtasks.

A :class:`RegionPlan` is the fully-resolved form of one pipelined
region: the loop, the pipeline parameters after memory-limit tuning,
the derived :class:`~repro.directives.splitspec.SplitSpec` geometry per
pipelined array, and the list of :class:`Chunk` subtasks.  It also
knows how to price its own device-buffer footprint, which is what the
``pipeline_mem_limit`` tuner optimizes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.directives.clauses import DirectiveError, Loop, MapClause
from repro.directives.splitspec import SplitSpec, chunk_range

__all__ = ["Chunk", "RegionPlan", "make_chunks"]


@dataclass(frozen=True)
class Chunk:
    """One subtask: loop iterations ``[t0, t1)``.

    ``index`` is the chunk's position in schedule order; the runtime
    assigns it to stream ``index % num_streams`` and to ring-buffer
    slots by the same modular rule the paper describes ("we copy chunk
    i to position (i % 4)").
    """

    index: int
    t0: int
    t1: int

    @property
    def trip(self) -> int:
        """Iterations in this chunk."""
        return self.t1 - self.t0


def make_chunks(loop: Loop, chunk_size: int) -> List[Chunk]:
    """Split the loop into fixed-size chunks (last may be smaller)."""
    if chunk_size < 1:
        raise DirectiveError("chunk_size must be >= 1")
    chunks: List[Chunk] = []
    t = loop.start
    i = 0
    while t < loop.stop:
        hi = min(t + chunk_size, loop.stop)
        chunks.append(Chunk(i, t, hi))
        t = hi
        i += 1
    return chunks


@dataclass
class RegionPlan:
    """A resolved execution plan for one region.

    Attributes
    ----------
    loop:
        The pipelined loop.
    chunk_size, num_streams:
        Effective pipeline parameters (after any memory-limit tuning).
    schedule:
        ``"static"`` or ``"adaptive"``.
    specs:
        Derived geometry per pipelined array, keyed by variable name.
    residents:
        Resident (whole-array) map clauses, keyed by variable name.
    dtypes:
        Bound dtypes per variable (pipelined and resident).
    shapes:
        Bound host shapes per variable.
    halo_mode:
        ``"dedup"`` (each element transferred once; the runtime
        "removes the data that only previous chunks require") or
        ``"duplicate"`` (each chunk re-transfers its whole dependency
        range — the simpler scheme, kept for the ablation study).
    """

    loop: Loop
    chunk_size: int
    num_streams: int
    schedule: str
    specs: Dict[str, SplitSpec]
    residents: Dict[str, MapClause]
    dtypes: Dict[str, np.dtype]
    shapes: Dict[str, Tuple[int, ...]]
    halo_mode: str = "dedup"

    def __post_init__(self) -> None:
        from repro.gpu.errors import InvalidValueError

        for name in ("chunk_size", "num_streams"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise InvalidValueError(
                    f"{name} must be an integer, got {type(v).__name__} {v!r}"
                )
            if v < 1:
                raise InvalidValueError(f"{name} must be >= 1, got {v}")
        if self.halo_mode not in ("dedup", "duplicate"):
            raise DirectiveError(f"unknown halo_mode {self.halo_mode!r}")
        nchunks = self.nchunks
        if self.num_streams > nchunks:
            self.num_streams = max(1, nchunks)

    # ------------------------------------------------------------------
    @property
    def max_chunk_size(self) -> int:
        """Largest chunk size the schedule can produce.

        Static schedules use ``chunk_size`` throughout; the adaptive
        schedule ramps up to ``ADAPTIVE_MAX_FACTOR`` times the base
        (see :mod:`repro.core.scheduler`).  Ring buffers are sized for
        this maximum.
        """
        if self.schedule == "static":
            return min(self.chunk_size, self.loop.trip_count)
        from repro.core.scheduler import ADAPTIVE_MAX_FACTOR

        return min(self.chunk_size * ADAPTIVE_MAX_FACTOR, self.loop.trip_count)

    @property
    def nchunks(self) -> int:
        """``len(self.chunks())``, counted without building the list for
        the static schedule."""
        if self.schedule == "static":
            return -(-self.loop.trip_count // int(self.chunk_size))
        return len(self.chunks())

    def chunks(self) -> List[Chunk]:
        """The ordered subtask list under the current schedule."""
        from repro.core.scheduler import schedule_chunks

        return schedule_chunks(
            self.schedule, self.loop, self.chunk_size, self.num_streams
        )

    def with_params(self, chunk_size: int, num_streams: int) -> "RegionPlan":
        """A copy with different pipeline parameters."""
        return RegionPlan(
            loop=self.loop,
            chunk_size=chunk_size,
            num_streams=num_streams,
            schedule=self.schedule,
            specs=self.specs,
            residents=self.residents,
            dtypes=self.dtypes,
            shapes=self.shapes,
            halo_mode=self.halo_mode,
        )

    # ------------------------------------------------------------------
    # buffer sizing (must mirror the executor's allocations exactly;
    # test_memlimit asserts this)
    # ------------------------------------------------------------------
    def ring_capacity(self, var: str) -> int:
        """Ring capacity (split-dim units) for a pipelined input array.

        ``dedup`` mode holds the live window of ``num_streams``
        in-flight chunks plus one chunk of prefetch slack; ``duplicate``
        mode holds ``num_streams`` slots of one chunk-extent each.
        """
        spec = self.specs[var]
        cs, ns = self.max_chunk_size, self.num_streams
        if self.halo_mode == "duplicate" or not spec.clause.is_input:
            cap = ns * self.slot_extent(var)
        else:
            cap = spec.window_extent(cs, ns) + spec.prefetch_slack(cs)
        return min(cap, spec.split_extent)

    def slot_extent(self, var: str) -> int:
        """Split-dim extent of one chunk's slot for array ``var``."""
        spec = self.specs[var]
        return min(spec.chunk_extent(self.max_chunk_size), spec.split_extent)

    def buffer_bytes(self, var: str) -> int:
        """Device bytes for one pipelined array's ring buffer."""
        spec = self.specs[var]
        itemsize = self.dtypes[var].itemsize
        return self.ring_capacity(var) * spec.bytes_per_unit(itemsize)

    def resident_bytes(self, var: str) -> int:
        """Device bytes for a resident array."""
        shape = self.shapes[var]
        return math.prod(shape) * self.dtypes[var].itemsize

    def device_bytes(self) -> int:
        """Total device bytes this plan allocates."""
        total = sum(self.buffer_bytes(v) for v in self.specs)
        total += sum(self.resident_bytes(v) for v in self.residents)
        return total

    # ------------------------------------------------------------------
    def chunk_dep_range(self, var: str, chunk: Chunk) -> Tuple[int, int]:
        """Split-dim range chunk depends on for ``var`` (clamped)."""
        return chunk_range(self.specs[var].clause, chunk.t0, chunk.t1)

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = [
            f"loop {self.loop.var}=[{self.loop.start},{self.loop.stop})",
            f"chunks={self.nchunks}x{self.chunk_size}",
            f"streams={self.num_streams}",
            f"schedule={self.schedule}",
            f"halo={self.halo_mode}",
            f"buffer={self.device_bytes() / 1e6:.1f}MB",
        ]
        return " ".join(parts)
