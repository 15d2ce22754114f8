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

The search is a branch and bound over one
:class:`~repro.core.pipemodel.PlanFamily`, built once from the bound
region, the profile, the arrays and the kernel.  The family holds what
every candidate shares (piece times, capacity inputs, resident sizes,
the ``open()`` clocks per stream count and the chunk table per chunk
size), so the grid is walked on integers and no
:class:`~repro.core.plan.RegionPlan` is built per candidate:

1. One pass over the grid decides each candidate's feasibility (the
   memory limit, then whether the dry run's own allocations fit: their
   aligned sizes sum to at most the device's one free block) and prices
   every feasible one with a closed-form lower bound
   (:meth:`PlanFamily.bound <repro.core.pipemodel.PlanFamily.bound>`:
   the host's issue time, the busiest engine or stream and the last
   chunk's tail, over sums taken once per chunk size).  A grid point
   whose plan would keep fewer streams than it names (no more streams
   than chunks) is the same plan as a smaller point and is skipped, as
   is one the memory limit shrinks.
2. Feasible candidates are then dry-run
   (:meth:`PlanFamily.exact <repro.core.pipemodel.PlanFamily.exact>`)
   in ascending ``(bound, grid index)`` order.  Once a bound exceeds
   the best exact time so far, no remaining candidate can win, and the
   search stops.  Exact ties go to the lower grid index, so ``best`` is
   the candidate an exhaustive search in grid order keeps.

A candidate the search never dry-ran is listed with its bound as
``elapsed`` and ``exact=False``.  ``dry_runs`` still counts every
feasible candidate: it is the modelled cost of the empirical search the
paper would run, which the serve scheduler charges per planning miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.kernel import RegionKernel
# ``tune_plan`` stays importable here: ``bench/layers.py`` traces it at this path
from repro.core.memlimit import MemLimitError, tune_plan  # noqa: F401
from repro.core.pipemodel import PlanFamily
from repro.core.plan import RegionPlan
from repro.sim.memory import OutOfDeviceMemory

__all__ = ["AutotuneReport", "Candidate", "autotune", "candidate_grid"]

#: a bound this far above the incumbent still gets its dry run: the
#: bound and the exact time sum the same durations in different orders,
#: so the bound of a candidate that ties the incumbent can round an ulp
#: above its exact time
_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class Candidate:
    """One configuration of the search.

    ``elapsed`` is the exact dry-run time when ``exact`` is true, and
    a lower bound on it for a candidate the search pruned.  An
    infeasible candidate has ``elapsed = inf``.  ``exact`` is left out
    of the ``repr``, which predates it.
    """

    chunk_size: int
    num_streams: int
    elapsed: float
    buffer_bytes: int
    feasible: bool
    exact: bool = field(default=True, repr=False)


@dataclass
class AutotuneReport:
    """Outcome of an autotune search.

    Attributes
    ----------
    best:
        The fastest feasible candidate.
    candidates:
        Every candidate of the grid, in grid order.
    dry_runs:
        Number of feasible candidates: the dry runs an exhaustive search
        makes, whether or not the bound spared some of them.
    """

    best: Candidate
    candidates: List[Candidate]
    dry_runs: int

    def table(self) -> str:
        """Formatted candidate table (fastest first); ``≥`` marks a
        pruned candidate's lower bound."""
        lines = [f"{'chunk':>6} {'streams':>8} {'time':>12} {'buffer':>10}"]
        for c in sorted(self.candidates, key=lambda c: c.elapsed):
            mark = " <- best" if c == self.best else ""
            lines.append(
                f"{c.chunk_size:>6} {c.num_streams:>8} "
                f"{' ' if c.exact else '≥'}{c.elapsed * 1e3:>9.2f}ms "
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
    plan: RegionPlan,
    runtime,
    arrays: Dict[str, np.ndarray],
    kernel: RegionKernel,
    *,
    mem_limit: Optional[int] = None,
    max_streams: int = 8,
) -> AutotuneReport:
    """Search pipeline parameters for a bound region via virtual dry runs.

    Parameters
    ----------
    plan:
        The region bound to ``arrays``
        (:meth:`TargetRegion.bind <repro.core.region.TargetRegion.bind>`);
        its ``chunk_size``/``num_streams`` are treated as a starting
        point only.
    runtime:
        The runtime the region will eventually run on; only its device
        *profile* is used (dry runs price a fresh device of it).
    arrays:
        The host arrays (shapes/dtypes are used; contents are not).
    kernel:
        The region kernel (cost model only; bodies are skipped).
    mem_limit:
        Device bytes the candidates may use (the region's
        ``pipeline_mem_limit``, if any); ``None`` for no limit.

    Returns
    -------
    AutotuneReport
        Best configuration and the full candidate list (pruned ones
        with their lower bound; see the module docstring).  Apply it with
        ``region.pipeline = replace(region.pipeline,
        chunk_size=best.chunk_size, num_streams=best.num_streams)`` or
        pass the values to your config object.
    """
    family = PlanFamily(runtime.profile, plan, arrays, kernel)

    # one pass over the grid: feasibility and every feasible lower bound;
    # a row is ``[cs, ns, elapsed, buffer_bytes, feasible, exact]``
    rows: List[list] = []
    #: ``(bound, grid index, chunk_size, num_streams)`` of each feasible candidate
    live: List[tuple] = []
    inf = float("inf")
    for cs, ns in candidate_grid(plan.loop.trip_count, max_streams=max_streams):
        # the plan ``with_params(cs, ns)`` keeps at most one stream per chunk
        kept = family.streams(cs, ns)
        if mem_limit is not None and family.device_bytes(cs, kept) > mem_limit:
            # ``tune_plan`` would shrink it to a smaller config, which
            # the grid holds.  Ring capacities grow with chunk size and
            # stream count, so ``(1, 1)`` has the family's smallest
            # footprint: when even it is over the limit, every
            # candidate is, and the search raises below.
            continue
        if kept != ns:
            continue  # the same plan as a smaller stream count of the grid
        try:
            bound = family.bound(cs, ns)
        except OutOfDeviceMemory:
            rows.append([cs, ns, inf, family.device_bytes(cs, ns), False, True])
            continue
        live.append((bound, len(rows), cs, ns))
        rows.append([cs, ns, bound, family.device_bytes(cs, ns), True, False])
    if not live:
        raise MemLimitError(family.device_bytes(1, 1), mem_limit or 0)

    # exact dry runs in ascending bound order, while one can still win
    live.sort()
    best = -1
    best_elapsed = inf
    for bound, i, cs, ns in live:
        if bound > best_elapsed * (1.0 + _BOUND_SLACK):
            break
        elapsed = family.exact(cs, ns)
        rows[i][2] = elapsed
        rows[i][5] = True  # exact
        if elapsed < best_elapsed or (elapsed == best_elapsed and i < best):
            best, best_elapsed = i, elapsed
    candidates = [Candidate(*row) for row in rows]
    return AutotuneReport(best=candidates[best], candidates=candidates, dry_runs=len(live))
