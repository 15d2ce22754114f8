"""Chunk schedules: ``static`` (the paper) and ``adaptive`` (extension).

The paper's prototype supports only ``pipeline(static[c, s])`` — fixed
chunk size ``c`` on ``s`` streams — and names adaptive scheduling as
future work ("future work will support adaptive schedules ...
integrate a performance model into an auto-tuning scheduler").

We implement a deterministic adaptive schedule as that extension:

* the first ``s`` chunks use the requested (small) chunk size, so the
  pipeline fills quickly and the un-overlappable first transfer is
  small;
* after each full wave of ``s`` chunks the chunk size doubles, up to
  ``ADAPTIVE_MAX_FACTOR`` times the base size, amortizing per-chunk API
  and launch overhead in steady state — the exact trade-off the paper
  measures in its chunk-count study (Figure 8).

Ring buffers are sized for the *maximum* chunk extent, so the adaptive
schedule trades some memory for fewer API calls; the memory-limit
tuner accounts for that via :attr:`RegionPlan.max_chunk_size`.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.directives.clauses import Loop

from repro.core.plan import Chunk

__all__ = [
    "ADAPTIVE_MAX_FACTOR", "adaptive_bounds", "adaptive_chunks", "schedule_bounds",
    "schedule_chunks",
]

#: Upper bound on adaptive chunk growth relative to the base size.
ADAPTIVE_MAX_FACTOR = 8


def adaptive_bounds(loop: Loop, base_chunk: int, num_streams: int) -> List[Tuple[int, int]]:
    """``(t0, t1)`` of the ramp-up adaptive schedule described in the
    module doc."""
    if base_chunk < 1:
        raise ValueError("chunk_size must be >= 1")
    max_chunk = base_chunk * ADAPTIVE_MAX_FACTOR
    bounds: List[Tuple[int, int]] = []
    t = loop.start
    size = base_chunk
    wave = max(1, num_streams)
    while t < loop.stop:
        hi = min(t + size, loop.stop)
        bounds.append((t, hi))
        t = hi
        if len(bounds) % wave == 0 and size < max_chunk:
            size = min(size * 2, max_chunk)
    return bounds


def adaptive_chunks(loop: Loop, base_chunk: int, num_streams: int) -> List[Chunk]:
    """Build the ramp-up adaptive schedule described in the module doc."""
    return [
        Chunk(i, t0, t1)
        for i, (t0, t1) in enumerate(adaptive_bounds(loop, base_chunk, num_streams))
    ]


def schedule_bounds(
    schedule: str, loop: Loop, chunk_size: int, num_streams: int
) -> List[Tuple[int, int]]:
    """Dispatch on schedule kind; returns each chunk's ``(t0, t1)`` in
    schedule order (chunk ``i`` is the ``i``-th)."""
    if schedule == "static":
        from repro.core.plan import static_bounds

        return static_bounds(loop, chunk_size)
    if schedule == "adaptive":
        return adaptive_bounds(loop, chunk_size, num_streams)
    raise ValueError(f"unknown schedule {schedule!r}")


def schedule_chunks(
    schedule: str, loop: Loop, chunk_size: int, num_streams: int
) -> List[Chunk]:
    """Dispatch on schedule kind; returns the ordered chunk list."""
    return [
        Chunk(i, t0, t1)
        for i, (t0, t1) in enumerate(schedule_bounds(schedule, loop, chunk_size, num_streams))
    ]
