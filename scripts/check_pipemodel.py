"""Exhaustive differential check of the analytic dry-run model and its bound.

For every request shape of the benchmark's serve mixes (``MIX_SHAPES``),
a 40-shape slice of its cold-plan shapes and a pipelined ``tofrom``
array over many ring laps, on the K40m and the HD 7970, under dedup and
duplicate halo, this evaluates every candidate ``autotune`` would
dry-run over the full ``candidate_grid`` three ways: with
:func:`repro.core.pipemodel.dry_run_elapsed`, with ``execute_pipeline``
on a fresh virtual runtime and with the bound of
:class:`repro.core.pipemodel.PlanFamily`.  For every
candidate:

* the model's ``elapsed`` must be ``==`` to the simulator's (and to
  ``PlanFamily.exact``, the search's copy), and a plan must run out of
  device memory on both sides or on neither;
* the bound must be at most the exact ``elapsed`` (up to a relative
  1e-12 for rounding), and must run out of memory exactly when the dry
  run does.

Then the pruned ``autotune`` must return the ``best`` candidate and the
``dry_runs`` count of an exhaustive search in grid order over the same
dry runs, and every row an exhaustive search lists: the same grid, each
``buffer_bytes`` equal to ``with_params(cs, ns).device_bytes()``,
infeasible rows at ``inf``, dry-run rows at the exact time and pruned
rows at the family's bound.  Prints the share of feasible candidates
the bound spared a dry run.  Exits 1 on any mismatch or bound
violation.

Run from the repository root::

    PYTHONPATH=src python scripts/check_pipemodel.py

The shapes are imported from ``bench/workloads.py`` read-only (no
bytecode is written there).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
for p in (ROOT / "src", ROOT / "bench"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import numpy as np  # noqa: E402
from workloads import MIX_SHAPES, cold_plan_shapes  # noqa: E402

from repro.core.autotune import autotune, candidate_grid  # noqa: E402
from repro.core.executor import execute_pipeline  # noqa: E402
from repro.core.kernel import make_kernel  # noqa: E402
from repro.core.memlimit import MemLimitError, tune_plan  # noqa: E402
from repro.core.pipemodel import PlanFamily, dry_run_elapsed  # noqa: E402
from repro.core.region import TargetRegion  # noqa: E402
from repro.directives.clauses import Loop  # noqa: E402
from repro.gpu.runtime import Runtime  # noqa: E402
from repro.serve.workload import build_request  # noqa: E402
from repro.sim.memory import OutOfDeviceMemory  # noqa: E402
from repro.sim.profiles import AMD_HD7970, NVIDIA_K40M  # noqa: E402
from repro.sim.varray import VirtualArray  # noqa: E402

COLD_SLICE = 40
#: rounding allowance of ``bound <= exact``
BOUND_RTOL = 1e-12


def _tofrom():
    """An in-place update with a halo over 30 chunks: with a ring of a
    few planes, each input transfer waits on the previous lap's drain
    of its slot (the one wait no app region exercises)."""
    region = TargetRegion.parse(
        "pipeline(static[1,2]) pipeline_map(tofrom: A[k-1:3][0:32][0:32])",
        loop=Loop("k", 1, 31),
    )
    kernel = make_kernel(
        lambda profile, t0, t1: (t1 - t0) * 2e-5, lambda views, t0, t1: None,
        name="tofrom",
    )
    return region, {"A": VirtualArray((32, 32, 32), np.float32)}, kernel


def _cases(shapes):
    """``(label, region, arrays, kernel)`` of every checked shape, built
    fresh, so the caller may set the region's halo mode."""
    for app, config in shapes:
        req = build_request(app, config=dict(config), virtual=True)
        yield f"{app} {config}", req.region, req.arrays, req.kernel
    yield "tofrom", *_tofrom()


def _outcome(run):
    try:
        return run()
    except OutOfDeviceMemory:
        return "oom"


def check_request(profile, region, arrays, kernel):
    """``(candidates, bound violations, mismatches, dry runs, skipped)``
    over every candidate ``autotune`` would dry-run; ``dry runs`` counts
    the feasible candidates and ``skipped`` those the pruned search did
    not dry-run."""
    base = region.bind(arrays)
    limit = region.mem_limit.limit_bytes if region.mem_limit is not None else None
    family = PlanFamily(profile, base, arrays, kernel)
    n, violations, bad = 0, [], []
    best, feasible = None, 0
    #: the exhaustive search's rows, ``(cs, ns, exact or "oom", bytes, bound)``
    rows = []
    for cs, ns in candidate_grid(base.loop.trip_count):
        plan = base.with_params(cs, ns)
        try:
            plan = tune_plan(plan, limit)
        except MemLimitError:
            rows.append((cs, ns, "oom", plan.device_bytes(), None))
            continue
        if (plan.chunk_size, plan.num_streams) != (cs, ns):
            continue
        n += 1
        model = _outcome(lambda: dry_run_elapsed(profile, plan, arrays, kernel))
        sim = _outcome(lambda: execute_pipeline(
            Runtime(profile, virtual=True), plan, arrays, kernel
        ).elapsed)
        exact = _outcome(lambda: family.exact(cs, ns))
        low = _outcome(lambda: family.bound(cs, ns))
        rows.append((cs, ns, model, plan.device_bytes(), low))
        if not model == sim == exact:
            bad.append(
                f"cs={cs} ns={ns}: model {model!r} vs simulator {sim!r} "
                f"vs search {exact!r}"
            )
        if (low == "oom") != (model == "oom") or (
            model != "oom" and low > model * (1.0 + BOUND_RTOL)
        ):
            violations.append(f"cs={cs} ns={ns}: bound {low!r} vs exact {model!r}")
        if model != "oom":
            feasible += 1
            if best is None or model < best[2]:
                best = (cs, ns, model)
    report = autotune(
        base, Runtime(profile, virtual=True), arrays, kernel, mem_limit=limit
    )
    got = (report.best.chunk_size, report.best.num_streams, report.best.elapsed)
    if (got, report.dry_runs) != (best, feasible):
        bad.append(
            f"pruned search: best {got} in {report.dry_runs} dry runs, "
            f"exhaustive {best} in {feasible}"
        )
    bad += check_rows(report.candidates, rows)
    skipped = sum(1 for c in report.candidates if c.feasible and not c.exact)
    return n, violations, bad, report.dry_runs, skipped


def check_rows(candidates, rows):
    """Every row of the pruned search against the exhaustive one: the
    same grid, each ``buffer_bytes`` the plan's ``device_bytes()``, an
    infeasible row at ``inf``, an exact row at its dry-run time and a
    pruned row at the family's bound.  Returns the mismatches."""
    bad = []
    if [(c.chunk_size, c.num_streams) for c in candidates] != [r[:2] for r in rows]:
        return [
            f"rows {[(c.chunk_size, c.num_streams) for c in candidates]} vs "
            f"exhaustive {[r[:2] for r in rows]}"
        ]
    for c, (cs, ns, model, nbytes, low) in zip(candidates, rows):
        if model == "oom":
            want = (math.inf, False, True)
        elif c.exact:
            want = (model, True, True)
        else:
            want = (low, True, False)
        got = (c.elapsed, c.feasible, c.exact)
        if got != want or c.buffer_bytes != nbytes:
            bad.append(
                f"row cs={cs} ns={ns}: (elapsed, feasible, exact) {got} and "
                f"{c.buffer_bytes} B vs {want} and {nbytes} B"
            )
    return bad


def main() -> int:
    shapes = list(MIX_SHAPES) + cold_plan_shapes(COLD_SLICE)
    searches = candidates = failed = violated = dry_runs = skipped = 0
    for profile in (NVIDIA_K40M, AMD_HD7970):
        for halo in ("dedup", "duplicate"):
            for label, region, arrays, kernel in _cases(shapes):
                region.halo_mode = halo
                n, violations, bad, feasible, spared = check_request(
                    profile, region, arrays, kernel
                )
                searches += 1
                candidates += n
                dry_runs += feasible
                skipped += spared
                for kind, lines in (("BOUND", violations), ("MISMATCH", bad)):
                    if lines:
                        print(f"{kind} {profile.name} {halo} {label}:")
                        for line in lines[:5]:
                            print(f"  {line}")
                violated += bool(violations)
                failed += bool(bad)
    print(
        f"pipemodel: {candidates} candidates in {searches} searches checked, "
        f"{failed} search(es) mismatched, {violated} with bound violations; "
        f"the bound spared {skipped} of {dry_runs} dry runs "
        f"({skipped / max(dry_runs, 1):.0%})"
    )
    return 1 if failed or violated else 0


if __name__ == "__main__":
    sys.exit(main())
