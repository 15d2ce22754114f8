"""Figure 3 — Lattice QCD time distribution and normalized speedup.

Paper (K40m): the Naive QCD offload spends nearly 50% of its time in
data transfers (HtoD dominating DtoH); pipelining yields ~1.5-1.6x,
with speedup growing with problem size toward (but never reaching) the
theoretical 2x bound.
"""

from __future__ import annotations

from repro.analysis import figures
from repro.analysis.figures import QCD_DATASETS as DATASETS
from repro.analysis.report import ascii_bar_chart, format_table, ratio_band
from repro.apps import qcd as qc

from conftest import memo


def test_fig3_time_distribution(benchmark, cache, report):
    sets = memo(cache, "fig3", figures.fig3)
    benchmark.pedantic(
        lambda: qc.run_all(figures.paper_config("qcd-small"), virtual=True),
        rounds=3, iterations=1,
    )

    rows = []
    for d in DATASETS:
        dist = sets[d].naive.time_distribution
        total = sum(dist.values())
        rows.append(
            [
                d,
                dist["h2d"] / total,
                dist["d2h"] / total,
                dist["kernel"] / total,
            ]
        )
    report.emit(
        "Figure 3 (left): Naive QCD time distribution on K40m",
        format_table(["dataset", "HtoD", "DtoH", "Kernel"], rows),
    )

    for d in DATASETS:
        dist = sets[d].naive.time_distribution
        total = sum(dist.values())
        transfers = (dist["h2d"] + dist["d2h"]) / total
        # paper: "Data transfers consume nearly 50% of execution time"
        assert 0.35 <= transfers <= 0.60, (d, transfers)
        # HtoD (gauge + spinor in) must dominate DtoH (spinor out)
        assert dist["h2d"] > 3 * dist["d2h"]


def test_fig3_normalized_speedup(benchmark, cache, report):
    sets = memo(cache, "fig3", figures.fig3)
    benchmark.pedantic(
        lambda: qc.run_model(
            "pipelined", figures.paper_config("qcd-small"), virtual=True
        ),
        rounds=3, iterations=1,
    )

    speedups = {d: sets[d].speedup("pipelined") for d in DATASETS}
    report.emit(
        "Figure 3 (right): Pipelined QCD speedup over Naive on K40m",
        ascii_bar_chart(list(DATASETS), [speedups[d] for d in DATASETS], unit="x")
        + "\n"
        + "\n".join(
            ratio_band(f"qcd-{d} pipelined speedup", paper, lo, hi).row(speedups[d])
            for d, (paper, lo, hi) in {
                "small": (1.6, 1.25, 1.8),
                "medium": (1.6, 1.4, 1.9),
                "large": (1.6, 1.4, 1.95),
            }.items()
        ),
    )

    # speedup grows with problem size and stays under the 2x bound
    assert speedups["small"] <= speedups["medium"] + 0.02
    assert speedups["medium"] <= speedups["large"] + 0.02
    assert all(1.2 < s < 2.0 for s in speedups.values())
