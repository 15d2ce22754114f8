"""Figure 5 — speedup of the three models across the benchmarks (K40m).

Paper values (speedup over Naive):

=========== =========== ================
benchmark   Pipelined   Pipelined-buffer
=========== =========== ================
3dconv      1.45        1.46
stencil     1.57 (8 st) faster than Pipelined
qcd-small   ~1.4        ~1.4
qcd-medium  ~1.5        ~1.5
qcd-large   1.54+       1.54
=========== =========== ================

Notes: the hand-coded Pipelined stencil uses OpenACC's *default* eight
streams (the paper calls this out explicitly — "the Pipelined version
uses eight (8) streams by default, which explains its execution time");
the proposed runtime uses two.
"""

from __future__ import annotations

from repro.analysis import figures
from repro.analysis.report import format_table, ratio_band
from repro.apps import conv3d as cv

from conftest import memo


PAPER = {
    # benchmark: (paper pipelined, paper buffer, band lo, band hi)
    "3dconv": (1.45, 1.46, 1.30, 1.65),
    "stencil": (1.57, 1.60, 1.40, 1.95),
    "qcdsmall": (1.40, 1.40, 1.20, 1.70),
    "qcdmedium": (1.50, 1.50, 1.35, 1.90),
    "qcdlarge": (1.54, 1.54, 1.40, 1.95),
}


def test_fig5_speedups(benchmark, cache, report):
    sets = memo(cache, "fig5", figures.fig5)
    benchmark.pedantic(
        lambda: cv.run_all(figures.paper_config("3dconv"), virtual=True),
        rounds=3, iterations=1,
    )

    rows = []
    lines = []
    for name, vs in sets.items():
        sp_p = vs.speedup("pipelined")
        sp_b = vs.speedup("pipelined-buffer")
        paper_p, paper_b, lo, hi = PAPER[name]
        rows.append([name, 1.0, sp_p, sp_b])
        lines.append(ratio_band(f"{name} Pipelined", paper_p, lo, hi).row(sp_p))
        lines.append(ratio_band(f"{name} Pipelined-buffer", paper_b, lo, hi).row(sp_b))
    report.emit(
        "Figure 5: normalized speedup over Naive (K40m)",
        format_table(["benchmark", "Naive", "Pipelined", "Pipelined-buffer"], rows)
        + "\n" + "\n".join(lines),
    )
    for name, vs in sets.items():
        report.record(
            f"fig5/{name}",
            {
                "pipelined_speedup": vs.speedup("pipelined"),
                "buffer_speedup": vs.speedup("pipelined-buffer"),
                "naive": vs.naive.to_dict(),
                "buffer": vs.buffer.to_dict(),
            },
        )

    for name, vs in sets.items():
        _, _, lo, hi = PAPER[name]
        assert lo <= vs.speedup("pipelined") <= hi, name
        assert lo <= vs.speedup("pipelined-buffer") <= hi, name

    # paper-specific orderings
    conv = sets["3dconv"]
    assert abs(conv.speedup("pipelined-buffer") - conv.speedup("pipelined")) < 0.05
    sten = sets["stencil"]
    assert sten.speedup("pipelined-buffer") > sten.speedup("pipelined")
    # buffer trails hand-coded slightly for QCD (index translation)
    big = sets["qcdlarge"]
    assert big.speedup("pipelined-buffer") <= big.speedup("pipelined")
