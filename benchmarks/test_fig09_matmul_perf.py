"""Figure 9 — matrix multiplication performance across problem sizes.

Paper (K40m): the block-shared (tiled) kernel reaches ~3x over the
naive baseline; the proposed pipeline-buffer version matches the
block-shared version (the non-contiguous transfers overlap completely
with the compute-bound kernel); the two largest sizes (20480, 24576)
exceed device memory for the full-footprint versions and run *only*
under the ring-buffered runtime.
"""

from __future__ import annotations

from repro.analysis import figures
from repro.analysis.figures import MATMUL_SIZES as SIZES
from repro.analysis.report import format_table
from repro.apps import matmul as mm

from conftest import memo


def test_fig9_matmul_speedups(benchmark, cache, report):
    sweep = memo(cache, "fig9", figures.matmul_sweep)
    benchmark.pedantic(
        lambda: mm.run_model(
            "pipeline-buffer", figures.paper_config("matmul", n=4096),
            virtual=True,
        ),
        rounds=3, iterations=1,
    )

    rows = []
    for n in SIZES:
        r = sweep[n]
        base = r["baseline"]
        def spd(res):
            if res is None:
                return "OOM"
            if base is None:
                return "runs"
            return f"{base.elapsed / res.elapsed:.2f}"
        rows.append([n, spd(base), spd(r["block_shared"]), spd(r["pipeline-buffer"])])
    report.emit(
        "Figure 9: matmul speedup over baseline (K40m)",
        format_table(["n", "baseline", "block_shared", "pipeline-buffer"], rows),
    )

    for n in SIZES[:7]:
        r = sweep[n]
        assert r["baseline"] is not None and r["block_shared"] is not None
        ratio = r["baseline"].elapsed / r["block_shared"].elapsed
        # "up to 3x speed up over the baseline"
        assert 2.0 <= ratio <= 3.5, (n, ratio)
        # buffer ~= block-shared once transfers amortize (n >= 4096)
        if n >= 4096:
            close = r["pipeline-buffer"].elapsed / r["block_shared"].elapsed
            assert abs(close - 1.0) < 0.08, (n, close)

    # the two rightmost sizes: only the buffered version runs
    for n in SIZES[7:]:
        r = sweep[n]
        assert r["baseline"] is None and r["block_shared"] is None
        assert r["pipeline-buffer"] is not None

    # speedup of block_shared approaches 3x as n grows
    ratios = [
        sweep[n]["baseline"].elapsed / sweep[n]["block_shared"].elapsed
        for n in SIZES[:7]
    ]
    assert ratios == sorted(ratios)


def test_fig9_transfer_overlap_when_compute_bound(benchmark, cache, report):
    sweep = memo(cache, "fig9", figures.matmul_sweep)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    res = sweep[8192]["pipeline-buffer"]
    report.emit(
        "Figure 9 (companion): pipeline-buffer transfer overlap at n=8192",
        f"overlap fraction = {res.overlap:.3f} "
        "(streamed A/B bands hidden under GEMM; resident C entry/exit "
        "copies are inherently exposed)",
    )
    assert res.overlap > 0.7
