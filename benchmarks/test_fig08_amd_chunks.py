"""Figure 8 — AMD HD 7970: default-chunk degradation and chunk sweep.

Paper: on the Radeon HD 7970 the Pipelined versions *lose* to Naive at
the default chunking (3dconv 57% slower, stencil: Naive 56% faster) —
the chunked transfers fall to ~2 GB/s vs ~6 GB/s for whole arrays, and
per-call overheads multiply.  Sweeping the chunk count shows a modest
win at two chunks (3dconv ~1.2x, stencil ~1.35x), a peak at a handful
of chunks, degradation beyond ~9, and worse-than-Naive at high counts.
"""

from __future__ import annotations

from repro.analysis import figures
from repro.analysis.figures import FIG8_CONV_CHUNKS as CONV_CHUNKS
from repro.analysis.figures import FIG8_STENCIL_CHUNKS as STEN_CHUNKS
from repro.analysis.report import format_table, ratio_band
from repro.apps import conv3d as cv
from repro.apps import stencil as st

from conftest import memo


def test_fig8_left_default_chunks_lose(benchmark, cache, report):
    conv, sten = memo(cache, "fig8", figures.fig8)
    benchmark.pedantic(
        lambda: cv.run_all(
            figures.fig8_config("3dconv", 4), device="hd7970", virtual=True
        ),
        rounds=3, iterations=1,
    )

    c_def = conv[CONV_CHUNKS[-1]].speedup("pipelined")
    s_def = sten[STEN_CHUNKS[-1]].speedup("pipelined")
    report.emit(
        "Figure 8 (left): AMD HD 7970 Pipelined vs Naive at default chunking",
        "\n".join(
            [
                ratio_band("3dconv pipelined (default)", 0.64, 0.25, 0.90).row(c_def),
                ratio_band("stencil pipelined (default)", 0.64, 0.45, 0.95).row(s_def),
            ]
        ),
    )
    # both Pipelined versions lose to Naive at default chunking
    assert c_def < 0.9
    assert s_def < 0.95

    # mechanism check: the paper profiles ~6 GB/s whole-array vs
    # ~2 GB/s chunked transfer rates
    naive_tl = conv[CONV_CHUNKS[-1]].naive.timeline
    pipe_tl = conv[CONV_CHUNKS[-1]].pipelined.timeline
    rate = lambda tl: sum(r.nbytes for r in tl.by_kind("h2d")) / tl.busy_time("h2d")
    assert rate(naive_tl) > 5.5e9
    assert rate(pipe_tl) < 3.0e9


def test_fig8_right_chunk_sweep(benchmark, cache, report):
    conv, sten = memo(cache, "fig8", figures.fig8)
    benchmark.pedantic(
        lambda: st.run_all(
            figures.fig8_config("stencil", 4), device="hd7970", virtual=True
        ),
        rounds=3, iterations=1,
    )

    c = {n: conv[n].speedup("pipelined") for n in CONV_CHUNKS}
    s = {n: sten[n].speedup("pipelined") for n in STEN_CHUNKS}
    report.emit(
        "Figure 8 (right): speedup vs number of chunks (HD 7970)",
        format_table(
            ["chunks", "3dconv"], [[n, c[n]] for n in CONV_CHUNKS]
        )
        + "\n"
        + format_table(["chunks", "stencil"], [[n, s[n]] for n in STEN_CHUNKS]),
    )

    # 3dconv: ~1.2x at two chunks (paper), rising to a peak at 4-12,
    # then degrading below 1.0 well before the default
    assert 1.1 <= c[2] <= 1.6
    peak = max(c[n] for n in (4, 6, 9, 12))
    assert peak > c[2]
    assert c[50] < peak
    assert c[382] < 0.9 and c[382] < c[50]

    # stencil: 1.35x at two chunks, slight improvement at four, then
    # degradation to below Naive at the default
    assert 1.2 <= s[2] <= 1.6
    assert s[4] >= s[2] - 0.02
    assert s[62] < 1.0
    assert s[20] < max(s[4], s[6])
