"""Exhaustive differential check of the analytic dry-run model and its bound.

For every request shape of the benchmark's serve mixes (``MIX_SHAPES``),
a 40-shape slice of its cold-plan shapes, a pipelined ``tofrom`` array
over many ring laps and an input whose offset clamps several chunks at
its section's low end, on the K40m and the HD 7970, under dedup and
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
  run does;
* the plan's compiled chunk program (:func:`repro.core.pipemodel.compile_plan`),
  which the issuer issues, must hold the commands the family prices:
  the same sequence of transfers and kernels, each waiting on the same
  command ids, in order and with duplicates.  The family builds its
  member's program itself, from its own chunk table and ring
  capacities, so this holds those to the plan's own
  ``dependency_ranges`` and ``ring_capacity``;
* the :class:`~repro.core.pipemodel.CompiledPlan` the family assembles
  for the member after pricing it (``PlanFamily.compiled``, what a
  serve plan-cache miss runs) must ``==`` ``compile_plan`` of its plan;
* the row bound of the candidate's chunk size
  (``PlanFamily.row_bound``, at the row's fewest searched streams) must
  be at most the candidate's bound, up to ``_BOUND_SLACK``: the search
  tables a row only once its row bound could beat what it holds.

Then the pruned ``autotune`` must return the ``best`` candidate and the
``dry_runs`` count of an exhaustive search in grid order over the same
dry runs, and every row an exhaustive search lists: the same grid, each
``buffer_bytes`` equal to ``with_params(cs, ns).device_bytes()``,
infeasible rows at ``inf``, dry-run rows at the exact time and pruned
rows at the family's bound.  Prints the share of feasible candidates
the bound spared a dry run, and on a second line the row-bound
violations and the chunk tables and member bounds the pruned searches
built.  Exits 1 on any mismatch or (row) bound violation.

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

from repro.core import pipemodel  # noqa: E402
from repro.core.autotune import _BOUND_SLACK, autotune, candidate_grid  # noqa: E402
from repro.core.executor import execute_pipeline  # noqa: E402
from repro.core.kernel import make_kernel  # noqa: E402
from repro.core.memlimit import MemLimitError, tune_plan  # noqa: E402
from repro.core.pipemodel import PlanFamily, compile_plan, dry_run_elapsed  # noqa: E402
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
    of its slot (the one wait no app region exercises).  The kernel
    prices a chunk by its extent alone, so the search's row bounds take
    their closed form over an array both read and written."""
    region = TargetRegion.parse(
        "pipeline(static[1,2]) pipeline_map(tofrom: A[k-1:3][0:32][0:32])",
        loop=Loop("k", 1, 31),
    )
    kernel = make_kernel(
        lambda profile, t0, t1: (t1 - t0) * 2e-5, lambda views, t0, t1: None,
        name="tofrom",
    )
    kernel.uniform_chunk_cost = True
    return region, {"A": VirtualArray((32, 32, 32), np.float32)}, kernel


def _wide_offset():
    """An input whose offset is wider than a chunk: at chunk sizes below
    four, the section's low end clamps the first few chunks, not just
    the first (no app region clamps past its first chunk).  The planes
    are large and the kernel cheap, so the bytes the copies move set the
    bound, and the kernel prices a chunk by its extent alone, so the
    search's row bounds take their closed form."""
    region = TargetRegion.parse(
        "pipeline(static[1,2]) pipeline_map(to: A[k-4:6][0:256][0:256]) "
        "pipeline_map(from: B[k:1][0:256][0:256])",
        loop=Loop("k", 0, 32),
    )
    kernel = make_kernel(
        lambda profile, t0, t1: (t1 - t0) * 1e-6, lambda views, t0, t1: None,
        name="wide-offset",
    )
    kernel.uniform_chunk_cost = True
    arrays = {n: VirtualArray((32, 256, 256), np.float32) for n in ("A", "B")}
    return region, arrays, kernel


def _cases(shapes):
    """``(label, region, arrays, kernel)`` of every checked shape, built
    fresh, so the caller may set the region's halo mode."""
    for app, config in shapes:
        req = build_request(app, config=dict(config), virtual=True)
        yield f"{app} {config}", req.region, req.arrays, req.kernel
    yield "tofrom", *_tofrom()
    yield "wide offset", *_wide_offset()


def program_commands(program, d2h_engine: int) -> list:
    """``(engine, waited command ids)`` of each command of an
    integrity-off chunk program, in issue order, numbered as the dry
    run numbers its commands (engines: 0 = dma0, ``d2h_engine`` for
    drains, 2 = compute0), decoded op by op."""
    engines = {pipemodel.H2D: 0, pipemodel.KERNEL: 2, pipemodel.D2H: d2h_engine}
    out = []
    for j in range(len(program.ops) // pipemodel.OP_WIDTH):
        kind, _lane, _lo, _hi, _pos, data, reuse = program.op(j)
        out.append((engines[kind], data + reuse))
    return out


def check_program(profile, family, plan, cs: int, ns: int) -> list:
    """The compiled program of ``plan`` (member ``(cs, ns)`` of
    ``family``) against the commands the family prices; returns the
    mismatches."""
    _dur, engines, _enq, waits, _pred, _host = family.commands(cs, ns)
    model = [(engine, tuple(ids)) for engine, ids in zip(engines, waits)]
    got = program_commands(
        compile_plan(plan).program, 1 if profile.dma_engines > 1 else 0
    )
    if got == model:
        return []
    at = next(
        (i for i, (a, b) in enumerate(zip(got, model)) if a != b), min(len(got), len(model))
    )
    return [
        f"cs={cs} ns={ns}: program command {at} of {len(got)} "
        f"{got[at] if at < len(got) else None} vs dry run's of {len(model)} "
        f"{model[at] if at < len(model) else None}"
    ]


def counted_search(*args, **kw):
    """``autotune(*args, **kw)`` and the chunk tables and member bounds
    it built."""
    counts = [0, 0]
    table, bound = pipemodel._chunk_table, PlanFamily.bound

    def counted_table(*a):
        counts[0] += 1
        return table(*a)

    def counted_bound(*a):
        counts[1] += 1
        return bound(*a)

    pipemodel._chunk_table, PlanFamily.bound = counted_table, counted_bound
    try:
        return autotune(*args, **kw), counts
    finally:
        pipemodel._chunk_table, PlanFamily.bound = table, bound


def _outcome(run):
    try:
        return run()
    except OutOfDeviceMemory:
        return "oom"


def check_request(profile, region, arrays, kernel):
    """``(candidates, bound violations, mismatches, dry runs, skipped,
    program mismatches, row-bound violations, (tables, member bounds))``
    over every candidate ``autotune`` would dry-run; ``dry runs`` counts
    the feasible candidates, ``skipped`` those the pruned search did
    not dry-run, and the last pair what the pruned search built."""
    base = region.bind(arrays)
    limit = region.mem_limit.limit_bytes if region.mem_limit is not None else None
    family = PlanFamily(profile, base, arrays, kernel)
    n, violations, bad, drift, row_violations = 0, [], [], [], []
    best, feasible = None, 0
    #: per chunk size, the fewest streams of its searched feasible members
    fewest = {}
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
            drift += check_program(profile, family, plan, cs, ns)
            if family.compiled(plan) != compile_plan(plan):
                drift.append(f"cs={cs} ns={ns}: the family's compiled plan differs")
            feasible += 1
            if best is None or model < best[2]:
                best = (cs, ns, model)
            if low != "oom" and family.streams(cs, ns) == ns:
                ns0 = fewest.setdefault(cs, ns)
                row = family.row_bound(cs, ns0)
                if row > low * (1.0 + _BOUND_SLACK):
                    row_violations.append(
                        f"cs={cs} ns={ns}: row bound {row!r} at {ns0} streams "
                        f"vs bound {low!r}"
                    )
    report, built = counted_search(
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
    return n, violations, bad, report.dry_runs, skipped, drift, row_violations, built


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
    searches = candidates = failed = violated = dry_runs = skipped = drifted = 0
    row_violated = tables = bounds = 0
    for profile in (NVIDIA_K40M, AMD_HD7970):
        for halo in ("dedup", "duplicate"):
            for label, region, arrays, kernel in _cases(shapes):
                region.halo_mode = halo
                (
                    n, violations, bad, feasible, spared, drift, row_violations,
                    (built_tables, built_bounds),
                ) = check_request(profile, region, arrays, kernel)
                searches += 1
                candidates += n
                dry_runs += feasible
                skipped += spared
                tables += built_tables
                bounds += built_bounds
                for kind, lines in (
                    ("BOUND", violations), ("MISMATCH", bad), ("PROGRAM", drift),
                    ("ROW BOUND", row_violations),
                ):
                    if lines:
                        print(f"{kind} {profile.name} {halo} {label}:")
                        for line in lines[:5]:
                            print(f"  {line}")
                violated += bool(violations)
                failed += bool(bad)
                drifted += len(drift)
                row_violated += bool(row_violations)
    print(
        f"pipemodel: {candidates} candidates in {searches} searches checked, "
        f"{failed} search(es) mismatched, {violated} with bound violations, "
        f"{drifted} compiled program(s) off the dry run's commands; "
        f"the bound spared {skipped} of {dry_runs} dry runs "
        f"({skipped / max(dry_runs, 1):.0%})"
    )
    print(
        f"pipemodel walk: {row_violated} search(es) with row-bound violations; "
        f"the pruned searches built {tables} chunk tables and {bounds} member "
        f"bounds ({tables / max(searches, 1):.2f} and {bounds / max(searches, 1):.2f} "
        f"per search)"
    )
    return 1 if failed or violated or drifted or row_violated else 0


if __name__ == "__main__":
    sys.exit(main())
