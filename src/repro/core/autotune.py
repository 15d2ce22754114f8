"""Auto-tuning of pipeline parameters (the paper's future work).

The paper closes with: "Finally, we will further study how the other
parameters affect our design and integrate a performance model in an
autotuning scheduler."  This module implements that scheduler.

The performance model is an exact analytic replay of the pipeline
(:func:`~repro.core.pipemodel.dry_run_elapsed`): a candidate
``(chunk_size, num_streams)`` is priced with the ``elapsed`` a
**virtual-mode** run on a scratch device of the same profile would
report, computed on plain numbers — no commands, events, runtime or
device objects are built.  The replay follows the issuer's
dependencies and the engine's event order step for step, so its time
is ``==`` to the simulator's (``tests/core/test_pipemodel.py`` holds
the two bit for bit), and virtual and real runs are timing-identical.
On real hardware the equivalent is an analytic model or a
micro-benchmark calibration pass; the search structure is the same.

The search explores a geometric ladder of chunk sizes against a small
set of stream counts, respecting any ``pipeline_mem_limit``, and keeps
the fastest feasible candidate.  The search space is tiny (tens of
candidates) because both axes act monotonically on each cost term —
the trade-off the paper maps out in Figures 4 and 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.kernel import RegionKernel
from repro.core.memlimit import MemLimitError, tune_plan
from repro.core.pipemodel import dry_run_elapsed
from repro.sim.memory import OutOfDeviceMemory

__all__ = ["AutotuneReport", "Candidate", "autotune", "candidate_grid"]


@dataclass(frozen=True)
class Candidate:
    """One evaluated configuration."""

    chunk_size: int
    num_streams: int
    elapsed: float
    buffer_bytes: int
    feasible: bool


@dataclass
class AutotuneReport:
    """Outcome of an autotune search.

    Attributes
    ----------
    best:
        The fastest feasible candidate.
    candidates:
        Everything evaluated, in search order.
    dry_runs:
        Number of candidates priced by a dry run.
    """

    best: Candidate
    candidates: List[Candidate]
    dry_runs: int

    def table(self) -> str:
        """Formatted candidate table (fastest first)."""
        lines = [f"{'chunk':>6} {'streams':>8} {'time':>12} {'buffer':>10}"]
        for c in sorted(self.candidates, key=lambda c: c.elapsed):
            mark = " <- best" if c == self.best else ""
            lines.append(
                f"{c.chunk_size:>6} {c.num_streams:>8} {c.elapsed * 1e3:>10.2f}ms "
                f"{c.buffer_bytes / 1e6:>8.1f}MB{mark}"
            )
        return "\n".join(lines)


def candidate_grid(
    trip_count: int,
    *,
    max_streams: int = 8,
    max_chunk: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """The (chunk_size, num_streams) ladder the search explores.

    Chunk sizes double from 1 up to half the trip count (a pipeline
    needs at least two chunks); stream counts cover {1, 2, 3, 4, 8}
    clamped to ``max_streams``.
    """
    if trip_count < 1:
        raise ValueError("empty loop")
    cs_max = max(1, trip_count // 2) if max_chunk is None else max_chunk
    sizes = []
    cs = 1
    while cs <= cs_max:
        sizes.append(cs)
        cs *= 2
    streams = sorted({min(s, max_streams) for s in (1, 2, 3, 4, 8)})
    return [(cs, ns) for cs in sizes for ns in streams]


def autotune(
    region,
    runtime,
    arrays: Dict[str, np.ndarray],
    kernel: RegionKernel,
    *,
    max_streams: int = 8,
) -> AutotuneReport:
    """Search pipeline parameters for a region via virtual dry runs.

    Parameters
    ----------
    region:
        A :class:`~repro.core.region.TargetRegion`; its pragma's
        ``chunk_size``/``num_streams`` are treated as a starting point
        only.  Its ``pipeline_mem_limit`` (if any) constrains the
        search.
    runtime:
        The runtime the region will eventually run on; only its device
        *profile* is used (dry runs price a fresh device of it).
    arrays:
        The host arrays (shapes/dtypes are used; contents are not).
    kernel:
        The region kernel (cost model only; bodies are skipped).

    Returns
    -------
    AutotuneReport
        Best configuration and the full candidate list.  Apply it with
        ``region.pipeline = replace(region.pipeline,
        chunk_size=best.chunk_size, num_streams=best.num_streams)`` or
        pass the values to your config object.
    """
    base_plan = region.bind(arrays)
    limit = region.mem_limit.limit_bytes if region.mem_limit is not None else None
    profile = runtime.profile

    candidates: List[Candidate] = []
    best: Optional[Candidate] = None
    dry_runs = 0
    for cs, ns in candidate_grid(base_plan.loop.trip_count, max_streams=max_streams):
        plan = base_plan.with_params(cs, ns)
        feasible = True
        try:
            plan = tune_plan(plan, limit)
            if (plan.chunk_size, plan.num_streams) != (cs, ns):
                # the limit already forces a smaller config; skip the
                # duplicate evaluation (the smaller config is in the grid)
                continue
        except MemLimitError:
            feasible = False
        if feasible:
            try:
                elapsed = dry_run_elapsed(profile, plan, arrays, kernel)
            except OutOfDeviceMemory:
                cand = Candidate(cs, ns, float("inf"), plan.device_bytes(), False)
            else:
                dry_runs += 1
                cand = Candidate(cs, ns, elapsed, plan.device_bytes(), True)
                if best is None or cand.elapsed < best.elapsed:
                    best = cand
        else:
            cand = Candidate(cs, ns, float("inf"), plan.device_bytes(), False)
        candidates.append(cand)

    if best is None:
        raise MemLimitError(base_plan.with_params(1, 1).device_bytes(), limit or 0)
    return AutotuneReport(best=best, candidates=candidates, dry_runs=dry_runs)
