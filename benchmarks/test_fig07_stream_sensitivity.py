"""Figure 7 — execution time vs GPU stream count, 3dconv & stencil (K40m).

Paper: the hand-coded OpenACC Pipelined version degrades as streams are
added ("increases dramatically") while the proposed Pipelined-buffer
stays stable; at two streams Pipelined is (slightly) ahead, and the
curves cross so that "with over six streams, the Pipelined-buffer
version is faster".  Both stay >= 1.5x over Naive for the stencil.
The buffer's memory grows slightly with stream count.
"""

from __future__ import annotations

from repro.analysis import figures
from repro.analysis.figures import FIG7_STREAMS as STREAMS
from repro.analysis.report import format_table
from repro.apps import stencil as st

from conftest import memo


def test_fig7_stream_sensitivity(benchmark, cache, report):
    data = memo(cache, "fig7", figures.fig7)
    benchmark.pedantic(
        lambda: st.run_model(
            "pipelined", figures.paper_config("stencil", num_streams=4),
            virtual=True,
        ),
        rounds=3, iterations=1,
    )

    for app, (naive, rows) in data.items():
        table = [
            [
                ns,
                naive.elapsed / rows[ns]["pipelined"].elapsed,
                naive.elapsed / rows[ns]["buffer"].elapsed,
            ]
            for ns in STREAMS
        ]
        report.emit(
            f"Figure 7: {app} speedup over Naive vs stream count (K40m)",
            format_table(["streams", "Pipelined", "Pipelined-buffer"], table),
        )

    for app, (naive, rows) in data.items():
        pipe = [rows[ns]["pipelined"].elapsed for ns in STREAMS]
        buf = [rows[ns]["buffer"].elapsed for ns in STREAMS]

        # Pipelined degrades monotonically with stream count...
        assert pipe[-1] > 1.05 * pipe[0], app
        for a, b in zip(pipe, pipe[1:]):
            assert b >= a * 0.999, app
        # ...while the buffer version stays stable (< 3% drift)
        assert max(buf) < 1.03 * min(buf), app

        # buffer clearly leads at 7-8 streams (the crossover)
        assert buf[-1] < pipe[-1], app

    # at 2 streams the hand-coded stencil leads (paper: "If we limit
    # the number of streams to two ... the Pipelined version performs
    # best"); for 3dconv the two are within a couple of percent
    # (paper: 1.45x vs 1.46x)
    s_naive, s_rows = data["stencil"]
    assert s_rows[2]["pipelined"].elapsed <= s_rows[2]["buffer"].elapsed
    c_naive, c_rows = data["3dconv"]
    c_gap = c_rows[2]["pipelined"].elapsed / c_rows[2]["buffer"].elapsed
    assert abs(c_gap - 1.0) < 0.05

    # stencil: both versions stay >= 1.5x over Naive at every count
    naive, rows = data["stencil"]
    for ns in STREAMS:
        assert naive.elapsed / rows[ns]["pipelined"].elapsed >= 1.45
        assert naive.elapsed / rows[ns]["buffer"].elapsed >= 1.45


def test_fig7_buffer_memory_grows_slightly(benchmark, cache, report):
    data = memo(cache, "fig7", figures.fig7)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _, rows = data["stencil"]
    mems = [rows[ns]["buffer"].data_peak for ns in STREAMS]
    report.emit(
        "Figure 7 (companion): stencil buffer bytes vs streams",
        format_table(["streams", "MB"], [[ns, m / 1e6] for ns, m in zip(STREAMS, mems)]),
    )
    assert mems == sorted(mems)
    # still a large saving vs the full footprint at 8 streams
    full = 2 * 64 * 512 * 512 * 4
    assert mems[-1] < 0.35 * full
