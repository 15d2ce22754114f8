"""Analytic what-if bounds: explaining tuning decisions.

Each entry is a deterministic, closed-form estimate of the wall time a
hypothetical resource/plan change could reach, computed from the same
timeline rows the analyzer already holds — no re-simulation:

- ``perfect_overlap``: the busiest single engine's occupancy.  No
  schedule can finish before its most-loaded exclusive resource, so
  this is a true lower bound (and is provably ``<=`` measured wall).
- ``plus_one_dma_engine``: transfers rebalanced over one more DMA
  engine — limited by compute occupancy, the rebalanced transfer load,
  and the longest single transfer.
- ``plus_ring_slots``: a deeper ring buffer removes slot-reuse stalls;
  the wall minus the critical path's ``wait.slot_reuse`` time, floored
  at ``perfect_overlap``.
- ``chunks_2x`` / ``chunks_half``: doubling chunk size halves the
  API-call count (halving doubles it); the host-attributed ``api``
  share scales accordingly.  Estimates, not bounds — chunk size also
  moves overlap.

These are the quantities ``tune_plan`` trades off; surfacing them makes
its choices auditable ("speedup available from +1 DMA engine: 1.3x").
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.obs.analyze.breakdown import WaitBreakdown
from repro.sim.trace import TimelineRow

__all__ = ["engine_busy", "what_if_bounds"]


def engine_busy(commands: Sequence[TimelineRow]) -> Dict[str, float]:
    """Busy seconds per engine over the finished commands."""
    busy: Dict[str, float] = {}
    for c in commands:
        if c.finish_time is None:
            continue
        busy[c.engine] = busy.get(c.engine, 0.0) + (c.finish_time - c.start_time)
    return busy


def what_if_bounds(
    commands: Sequence[TimelineRow],
    wall: float,
    breakdown: Optional[WaitBreakdown] = None,
) -> Dict[str, Dict[str, object]]:
    """Closed-form bounds/estimates keyed by scenario name."""
    done = [c for c in commands if c.finish_time is not None]
    busy = engine_busy(done)
    perfect = max(busy.values(), default=0.0)
    transfers = [c for c in done if c.kind in ("h2d", "d2h")]
    transfer_total = sum(c.finish_time - c.start_time for c in transfers)
    longest_transfer = max(
        (c.finish_time - c.start_time for c in transfers), default=0.0
    )
    compute_busy = max(
        (b for e, b in busy.items() if not e.startswith("dma")), default=0.0
    )
    n_dma = max(1, sum(1 for e in busy if e.startswith("dma")))

    totals = breakdown.totals() if breakdown is not None else {}
    slot_wait = totals.get("wait.slot_reuse", 0.0)
    api_time = totals.get("api", 0.0)

    def entry(bound: float, note: str) -> Dict[str, object]:
        bound = max(bound, 0.0)
        return {
            "bound_s": bound,
            "speedup": (wall / bound) if bound > 0 else 1.0,
            "note": note,
        }

    return {
        "perfect_overlap": entry(
            perfect,
            "busiest-engine occupancy; no schedule can beat its "
            "most-loaded exclusive resource",
        ),
        "plus_one_dma_engine": entry(
            max(compute_busy, transfer_total / (n_dma + 1), longest_transfer),
            f"transfers rebalanced over {n_dma + 1} DMA engines "
            f"(currently {n_dma})",
        ),
        "plus_ring_slots": entry(
            max(perfect, wall - slot_wait),
            "deeper ring buffer removes critical-path slot-reuse stalls",
        ),
        "chunks_2x": entry(
            max(perfect, wall - 0.5 * api_time),
            "doubling chunk size halves API-call count (estimate)",
        ),
        "chunks_half": entry(
            wall + api_time,
            "halving chunk size doubles API-call count (estimate)",
        ),
    }
