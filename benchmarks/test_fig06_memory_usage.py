"""Figure 6 — GPU memory usage of the three models (K40m).

Paper: Naive and Pipelined 3dconv use ~3.5 GB, the proposed runtime
~93 MB (97% saved); stencil saves ~50% (the runtime context dominates
the small dataset); QCD savings grow with problem size (O(C n^4) ->
O(C n^3)).
"""

from __future__ import annotations

from repro.analysis import figures
from repro.analysis.report import format_table
from repro.apps import stencil as st

from conftest import memo


def test_fig6_memory_usage(benchmark, cache, report):
    sets = memo(cache, "fig6", figures.fig6)
    benchmark.pedantic(
        lambda: st.run_all(figures.fig6_config("stencil"), virtual=True),
        rounds=3, iterations=1,
    )

    rows = []
    for name, vs in sets.items():
        rows.append(
            [
                name,
                vs.naive.memory_peak / 1e6,
                vs.pipelined.memory_peak / 1e6,
                vs.buffer.memory_peak / 1e6,
                f"{100 * vs.memory_saving():.0f}%",
            ]
        )
    report.emit(
        "Figure 6: GPU memory usage in MB (K40m)",
        format_table(
            ["benchmark", "Naive", "Pipelined", "Pipelined-buffer", "saved"], rows,
            floatfmt="{:.0f}",
        ),
    )

    conv = sets["3dconv"]
    # paper: ~3.5 GB full footprint -> ~93 MB (97%)
    assert 3.0e9 <= conv.naive.memory_peak <= 4.2e9
    assert conv.buffer.memory_peak <= 250e6
    assert conv.memory_saving() >= 0.93

    sten = sets["stencil"]
    # paper: "nearly 50%", runtime memory dominating the small case
    assert 0.30 <= sten.memory_saving() <= 0.70
    ctx = sten.buffer.memory_peak - sten.buffer.data_peak
    assert ctx > sten.buffer.data_peak

    # QCD: savings increase with problem size; naive/pipelined footprints equal
    savings = [sets[f"qcd{d}"].memory_saving() for d in ("small", "medium", "large")]
    assert savings == sorted(savings)
    assert savings[-1] >= 0.6
    for name, vs in sets.items():
        assert vs.pipelined.memory_peak >= 0.95 * vs.naive.memory_peak, name


def test_fig6_naive_footprint_is_full_arrays(benchmark, cache, report):
    """The full-footprint versions hold every mapped array whole."""
    sets = memo(cache, "fig6", figures.fig6)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    conv = sets["3dconv"]
    arrays_bytes = 2 * 768**3 * 4  # A and B, float32
    assert conv.naive.data_peak >= arrays_bytes
    assert conv.naive.data_peak <= 1.05 * arrays_bytes
