"""Exhaustive differential check of the analytic dry-run model.

For every request shape of the benchmark's serve mixes (``MIX_SHAPES``)
and a 40-shape slice of its cold-plan shapes, on the K40m and the
HD 7970, under dedup and duplicate halo, this evaluates every candidate
``autotune`` would dry-run over the full ``candidate_grid`` twice:
with :func:`repro.core.pipemodel.dry_run_elapsed` and with
``execute_pipeline`` on a fresh virtual runtime.  The two ``elapsed``
values must be ``==``, and a plan must run out of device memory on
both sides or on neither.  Exits 1 on any mismatch.

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

from repro.core.autotune import candidate_grid  # noqa: E402
from repro.core.executor import execute_pipeline  # noqa: E402
from repro.core.memlimit import MemLimitError, tune_plan  # noqa: E402
from repro.core.pipemodel import dry_run_elapsed  # noqa: E402
from repro.gpu.runtime import Runtime  # noqa: E402
from repro.serve.workload import build_request  # noqa: E402
from repro.sim.memory import OutOfDeviceMemory  # noqa: E402
from repro.sim.profiles import AMD_HD7970, NVIDIA_K40M  # noqa: E402

COLD_SLICE = 40


def _outcome(run):
    try:
        return run()
    except OutOfDeviceMemory:
        return "oom"


def check_request(profile, region, arrays, kernel):
    """``(candidates, mismatches)`` over every candidate ``autotune``
    would dry-run."""
    base = region.bind(arrays)
    limit = region.mem_limit.limit_bytes if region.mem_limit is not None else None
    n, bad = 0, []
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
        if model != sim:
            bad.append(f"cs={cs} ns={ns}: model {model!r} vs simulator {sim!r}")
    return n, bad


def main() -> int:
    shapes = list(MIX_SHAPES) + cold_plan_shapes(COLD_SLICE)
    searches = candidates = failed = 0
    for profile in (NVIDIA_K40M, AMD_HD7970):
        for halo in ("dedup", "duplicate"):
            for app, config in shapes:
                req = build_request(app, config=dict(config), virtual=True)
                req.region.halo_mode = halo
                n, bad = check_request(profile, req.region, req.arrays, req.kernel)
                searches += 1
                candidates += n
                if bad:
                    failed += 1
                    print(f"MISMATCH {profile.name} {halo} {app} {config}:")
                    for line in bad[:5]:
                        print(f"  {line}")
    print(
        f"pipemodel: {candidates} candidates in {searches} searches checked, "
        f"{failed} search(es) mismatched"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
