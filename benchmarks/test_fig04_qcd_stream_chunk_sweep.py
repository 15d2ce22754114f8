"""Figure 4 — QCD (large) execution time vs stream count and chunk size.

Paper (K40m, large test case): two streams perform significantly
better than one (overlap kicks in); more than four streams offer no
further benefit; chunk size is a secondary effect.
"""

from __future__ import annotations

from repro.analysis import figures
from repro.analysis.figures import FIG4_CHUNKS as CHUNKS, FIG4_STREAMS as STREAMS
from repro.analysis.report import format_table
from repro.apps import qcd as qc

from conftest import memo


def test_fig4_stream_chunk_sweep(benchmark, cache, report):
    grid = memo(cache, "fig4", figures.fig4)
    benchmark.pedantic(
        lambda: qc.run_model(
            "pipelined-buffer", figures.fig4_config(1, 2), virtual=True
        ),
        rounds=3, iterations=1,
    )

    rows = [
        [f"chunk={cs}"] + [f"{grid[(cs, ns)].elapsed * 1e3:.1f}" for ns in STREAMS]
        for cs in CHUNKS
    ]
    report.emit(
        "Figure 4: QCD-large execution time (ms) vs #streams, per chunk size (K40m)",
        format_table([""] + [f"{ns} stream" for ns in STREAMS], rows),
    )

    for cs in CHUNKS:
        t1 = grid[(cs, 1)].elapsed
        t2 = grid[(cs, 2)].elapsed
        # "Using two streams generally performs significantly better
        # than one"
        assert t2 < 0.75 * t1, (cs, t1, t2)
        # "using more than four streams offers no further benefit":
        # 5 streams within a few percent of the 4-stream time
        t4, t5 = grid[(cs, 4)].elapsed, grid[(cs, 5)].elapsed
        assert t5 > 0.95 * t4, (cs, t4, t5)

    # chunk size is secondary at 2 streams: the spread across chunk
    # sizes is far smaller than the 1-stream -> 2-stream gain
    times2 = [grid[(cs, 2)].elapsed for cs in CHUNKS]
    gain12 = grid[(1, 1)].elapsed - grid[(1, 2)].elapsed
    assert max(times2) - min(times2) < gain12


def test_fig4_memory_grows_with_streams(benchmark, cache, report):
    """The paper also notes the prototype's buffer grows slightly with
    stream count (more slots pre-allocated)."""
    grid = memo(cache, "fig4", figures.fig4)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    mems = [grid[(1, ns)].data_peak for ns in STREAMS]
    report.emit(
        "Figure 4 (companion): buffer bytes vs streams (chunk=1)",
        format_table(
            ["streams", "buffer MB"],
            [[ns, m / 1e6] for ns, m in zip(STREAMS, mems)],
        ),
    )
    assert mems == sorted(mems)
    assert mems[-1] < 2.5 * mems[0]  # "slightly more memory"
