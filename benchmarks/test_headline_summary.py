"""Abstract/headline — 1.41x-1.65x speedup, 52%-97% memory reduction.

The paper's summary claim over the four applications on the K40m.  We
regenerate the full comparison table and check that the proposed
runtime's speedups and savings land in (a generous widening of) the
claimed ranges.
"""

from __future__ import annotations

from repro.analysis import figures
from repro.analysis.report import format_table
from repro.apps import qcd as qc

from conftest import memo


def test_headline_claims(benchmark, cache, report):
    sets, r = memo(cache, "headline", figures.headline)
    benchmark.pedantic(
        lambda: qc.run_all(figures.paper_config("qcd-medium"), virtual=True),
        rounds=3, iterations=1,
    )

    rows = []
    speedups, savings = [], []
    for name, vs in sets.items():
        sp = vs.speedup("pipelined-buffer")
        sv = vs.memory_saving()
        speedups.append(sp)
        savings.append(sv)
        rows.append([name, sp, f"{100 * sv:.0f}%"])

    # matmul's headline quantity is the block-shared-parity + memory cut
    mm_sv = 1 - r["pipeline-buffer"].memory_peak / r["block_shared"].memory_peak
    rows.append(["matmul-14336", r["block_shared"].elapsed / r["pipeline-buffer"].elapsed, f"{100 * mm_sv:.0f}%"])
    savings.append(mm_sv)

    report.emit(
        "Headline: Pipelined-buffer vs Naive (K40m)",
        format_table(["benchmark", "speedup", "memory saved"], rows)
        + "\npaper: 1.41x-1.65x speedup, 52%-97% memory reduction",
    )
    for name, vs in sets.items():
        report.record(
            f"headline/{name}",
            {m: r.to_dict() for m, r in vs.results.items()},
        )

    # speedups within a widened 1.41-1.65 band
    assert all(1.30 <= s <= 1.85 for s in speedups), speedups
    # savings span the paper's range: smallest around half, largest ~97%
    assert min(savings) >= 0.35
    assert max(savings) >= 0.90
