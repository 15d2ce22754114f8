"""Figure 10 — matrix multiplication memory consumption across sizes.

Paper (K40m): the full-footprint versions consume ``3 n^2 * 8`` bytes
(~4.9 GB at n = 14336, the largest size they can run); the
ring-buffered version holds only resident ``C`` plus small A/B bands —
approaching a 66% saving — and scales past device memory.
"""

from __future__ import annotations

from repro.analysis import figures
from repro.analysis.figures import MATMUL_SIZES as SIZES
from repro.analysis.report import format_table
from repro.apps import matmul as mm

from conftest import memo


def test_fig10_matmul_memory(benchmark, cache, report):
    sweep = memo(cache, "fig9", figures.matmul_sweep)
    benchmark.pedantic(
        lambda: mm.run_model(
            "block_shared", figures.paper_config("matmul", n=4096), virtual=True
        ),
        rounds=3, iterations=1,
    )

    rows = []
    for n in SIZES:
        r = sweep[n]
        fmt = lambda res: "OOM" if res is None else f"{res.memory_peak / 1e6:.0f}"
        rows.append(
            [n, fmt(r["baseline"]), fmt(r["block_shared"]), fmt(r["pipeline-buffer"])]
        )
    report.emit(
        "Figure 10: matmul GPU memory usage in MB (K40m)",
        format_table(["n", "baseline", "block_shared", "pipeline-buffer"], rows),
    )

    # full-footprint versions hold 3 n^2 float64 (+context)
    for n in SIZES[:7]:
        r = sweep[n]
        expect = 3 * n * n * 8
        assert expect <= r["baseline"].data_peak <= 1.02 * expect
        assert r["baseline"].memory_peak == r["block_shared"].memory_peak

    # n = 14336 reproduces the paper's ~5 GB tallest full-footprint bar
    assert 4.7e9 <= sweep[14336]["baseline"].memory_peak <= 5.3e9

    # buffer savings grow toward ~2/3 with size
    savings = []
    for n in SIZES[:7]:
        r = sweep[n]
        savings.append(1 - r["pipeline-buffer"].memory_peak / r["baseline"].memory_peak)
    assert savings == sorted(savings)
    assert 0.5 <= savings[-1] <= 0.75  # "nearly 66%"

    # the buffered version stays within device memory even at 24576
    assert sweep[24576]["pipeline-buffer"].memory_peak < 10e9


def test_fig10_buffer_memory_dominated_by_resident_c(benchmark, cache, report):
    """The ring-buffered version's footprint is ~n^2 (resident C) plus
    small streamed bands — the one-dimension reduction the paper
    describes."""
    sweep = memo(cache, "fig9", figures.matmul_sweep)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for n in (8192, 14336, 24576):
        res = sweep[n]["pipeline-buffer"]
        c_bytes = n * n * 8
        assert c_bytes <= res.data_peak <= 1.5 * c_bytes, n
