"""Exhaustive differential check of the analytic dry-run model and its bound.

For every request shape of the benchmark's serve mixes (``MIX_SHAPES``)
and a 40-shape slice of its cold-plan shapes, on the K40m and the
HD 7970, under dedup and duplicate halo, this evaluates every candidate
``autotune`` would dry-run over the full ``candidate_grid`` three ways:
with :func:`repro.core.pipemodel.dry_run_elapsed`, with
``execute_pipeline`` on a fresh virtual runtime and with
the bound of :class:`repro.core.pipemodel.SearchModel`.  For every
candidate:

* the model's ``elapsed`` must be ``==`` to the simulator's (and to
  ``SearchModel.exact``, the search's copy), and a plan must run out of
  device memory on both sides or on neither;
* the bound must be at most the exact ``elapsed`` (up to a relative
  1e-12 for rounding), and must run out of memory exactly when the dry
  run does.

Then the pruned ``autotune`` must return the ``best`` candidate and the
``dry_runs`` count of an exhaustive search in grid order over the same
dry runs.  Prints the share of feasible candidates the bound spared a
dry run.  Exits 1 on any mismatch or bound violation.

Run from the repository root::

    PYTHONPATH=src python scripts/check_pipemodel.py

The shapes are imported from ``bench/workloads.py`` read-only (no
bytecode is written there).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
for p in (ROOT / "src", ROOT / "bench"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from workloads import MIX_SHAPES, cold_plan_shapes  # noqa: E402

from repro.core.autotune import autotune, candidate_grid  # noqa: E402
from repro.core.executor import execute_pipeline  # noqa: E402
from repro.core.memlimit import MemLimitError, tune_plan  # noqa: E402
from repro.core.pipemodel import SearchModel, chunk_work, dry_run_elapsed  # noqa: E402
from repro.gpu.runtime import Runtime  # noqa: E402
from repro.serve.workload import build_request  # noqa: E402
from repro.sim.memory import OutOfDeviceMemory  # noqa: E402
from repro.sim.profiles import AMD_HD7970, NVIDIA_K40M  # noqa: E402

COLD_SLICE = 40
#: rounding allowance of ``bound <= exact``
BOUND_RTOL = 1e-12


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
    search = SearchModel(profile, base, arrays)
    n, violations, bad = 0, [], []
    best, feasible = None, 0
    for cs, ns in candidate_grid(base.loop.trip_count):
        try:
            plan = tune_plan(base.with_params(cs, ns), limit)
        except MemLimitError:
            continue
        if (plan.chunk_size, plan.num_streams) != (cs, ns):
            continue
        n += 1
        model = _outcome(lambda: dry_run_elapsed(profile, plan, arrays, kernel))
        sim = _outcome(lambda: execute_pipeline(
            Runtime(profile, virtual=True), plan, arrays, kernel
        ).elapsed)
        work = chunk_work(plan, kernel, profile)
        exact = _outcome(lambda: search.exact(plan, work))
        low = _outcome(lambda: search.bound(plan, work))
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
    report = autotune(region, Runtime(profile, virtual=True), arrays, kernel)
    got = (report.best.chunk_size, report.best.num_streams, report.best.elapsed)
    if (got, report.dry_runs) != (best, feasible):
        bad.append(
            f"pruned search: best {got} in {report.dry_runs} dry runs, "
            f"exhaustive {best} in {feasible}"
        )
    skipped = sum(1 for c in report.candidates if c.feasible and not c.exact)
    return n, violations, bad, report.dry_runs, skipped


def main() -> int:
    shapes = list(MIX_SHAPES) + cold_plan_shapes(COLD_SLICE)
    searches = candidates = failed = violated = dry_runs = skipped = 0
    for profile in (NVIDIA_K40M, AMD_HD7970):
        for halo in ("dedup", "duplicate"):
            for app, config in shapes:
                req = build_request(app, config=dict(config), virtual=True)
                req.region.halo_mode = halo
                n, violations, bad, feasible, spared = check_request(
                    profile, req.region, req.arrays, req.kernel
                )
                searches += 1
                candidates += n
                dry_runs += feasible
                skipped += spared
                for kind, lines in (("BOUND", violations), ("MISMATCH", bad)):
                    if lines:
                        print(f"{kind} {profile.name} {halo} {app} {config}:")
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
