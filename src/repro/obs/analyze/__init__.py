"""Deterministic critical-path and bottleneck-attribution analysis.

The paper's claims come down to *where time goes*: how much transfer
time hides under kernels, which engine saturates, where chunks stall on
ring-slot reuse.  This package answers that from a finished run's
timeline rows, with no re-simulation:

* :func:`analyze_result` / :func:`analyze_timeline` — full analysis of
  one region: critical path, per-chunk wait breakdown (sums exactly to
  wall time), engine occupancy, transfer overlap, what-if bounds.
* :mod:`~repro.obs.analyze.critpath` — the backward dependency walk.
* :mod:`~repro.obs.analyze.breakdown` — the wait taxonomy.
* :mod:`~repro.obs.analyze.whatif` — analytic bounds (perfect overlap,
  +1 DMA engine, deeper ring, chunk-size scaling).
* :mod:`~repro.obs.analyze.snapshot` — byte-stable JSON snapshots and
  the regression-gate diff behind ``repro analyze --baseline``.

Every emitted number is bit-deterministic for a given seed/config, so
analysis output itself is golden-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.analyze.breakdown import (
    WaitBreakdown,
    breakdown_from_path,
    categorize_segment,
)
from repro.obs.analyze.critpath import (
    CriticalPath,
    PathSegment,
    extract_critical_path,
)
from repro.obs.analyze.snapshot import (
    AnalysisDiff,
    diff_analyses,
    round_floats,
    write_analysis,
)
from repro.obs.analyze.whatif import engine_busy, what_if_bounds
from repro.sim.trace import Timeline, overlap_fraction

__all__ = [
    "AnalysisDiff",
    "CriticalPath",
    "PathSegment",
    "RegionAnalysis",
    "WaitBreakdown",
    "analyze_result",
    "analyze_timeline",
    "breakdown_from_path",
    "categorize_segment",
    "diff_analyses",
    "engine_busy",
    "extract_critical_path",
    "round_floats",
    "what_if_bounds",
    "write_analysis",
]


@dataclass
class RegionAnalysis:
    """Everything the analyzer derives from one region's execution."""

    model: str
    wall: float
    t0: float
    t_end: float
    path: CriticalPath
    breakdown: WaitBreakdown
    what_if: Dict[str, Dict[str, object]]
    engines: Dict[str, float]
    overlap: float
    nchunks: int = 0
    chunk_size: int = 0
    num_streams: int = 0
    ncommands: int = 0
    faults: int = 0
    retries: int = 0
    #: free-form labels merged into the snapshot (e.g. app/device name)
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        """Device window: first command start to last finish."""
        return self.path.device_t1 - self.path.device_t0

    @property
    def causes(self) -> Dict[str, float]:
        """Seconds per wait-taxonomy category (sums to ``wall``)."""
        return self.breakdown.totals()

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot (floats rounded; byte-stable when dumped
        with ``sort_keys=True``)."""
        chunks: Dict[str, Dict[str, float]] = {}
        for chunk, row in self.breakdown.per_chunk.items():
            key = "region" if chunk is None else str(chunk)
            chunks[key] = {cat: row[cat] for cat in sorted(row)}
        path_rows: List[Dict[str, object]] = []
        for seg in self.path.segments:
            cmd = seg.cmd
            path_rows.append({
                "t0": seg.start,
                "t1": seg.end,
                "edge": seg.edge,
                "kind": cmd.kind if cmd is not None else "",
                "label": cmd.label if cmd is not None else "",
                "engine": cmd.engine if cmd is not None else "",
                "chunk": (
                    cmd.chunk if cmd is not None
                    else (seg.waiter.chunk if seg.waiter is not None else None)
                ),
            })
        d: Dict[str, object] = {
            "schema": 1,
            "model": self.model,
            "wall_s": self.wall,
            "makespan_s": self.makespan,
            "critical_path_length_s": self.path.length,
            "overlap": self.overlap,
            "nchunks": int(self.nchunks),
            "chunk_size": int(self.chunk_size),
            "num_streams": int(self.num_streams),
            "commands": int(self.ncommands),
            "faults": int(self.faults),
            "retries": int(self.retries),
            "engines_busy_s": {e: self.engines[e] for e in sorted(self.engines)},
            "causes": {c: v for c, v in sorted(self.causes.items())},
            "chunks": chunks,
            "critical_path": path_rows,
            "what_if": {
                name: {
                    "bound_s": wi["bound_s"],
                    "speedup": wi["speedup"],
                    "note": wi["note"],
                }
                for name, wi in sorted(self.what_if.items())
            },
        }
        for k, v in sorted(self.meta.items()):
            d[k] = v
        return round_floats(d)

    def report(self, *, top: int = 8) -> str:
        """Terminal-friendly rendering of the full analysis."""
        w = self.wall
        lines = [
            "== critical-path analysis ==",
            f"model            {self.model}",
            f"wall             {w * 1e3:.3f} ms "
            f"(makespan {self.makespan * 1e3:.3f} ms, "
            f"critical path {self.path.length * 1e3:.3f} ms)",
            f"chunks           {self.nchunks} (chunk_size={self.chunk_size}, "
            f"streams={self.num_streams})",
            f"transfer overlap {self.overlap:.1%}",
        ]
        for e in sorted(self.engines):
            b = self.engines[e]
            lines.append(
                f"engine {e:<10} busy {b * 1e3:9.3f} ms  ({b / w:6.1%} of wall)"
            )
        lines.append("")
        lines.append("== where the wall time went ==")
        causes = self.causes
        for cat in sorted(causes, key=lambda c: -causes[c]):
            lines.append(
                f"  {cat:<18} {causes[cat] * 1e3:>10.4f} ms  {causes[cat] / w:6.1%}"
            )
        lines.append(
            f"  {'total':<18} {sum(causes.values()) * 1e3:>10.4f} ms  (= wall)"
        )
        chunk_totals = self.breakdown.chunk_totals()
        ranked = sorted(
            chunk_totals.items(),
            key=lambda kv: (-kv[1], -1 if kv[0] is None else kv[0]),
        )[:top]
        lines.append("")
        lines.append(f"== top chunks on the critical path (top {len(ranked)}) ==")
        for chunk, total in ranked:
            row = self.breakdown.per_chunk[chunk]
            dominant = max(sorted(row), key=lambda c: row[c])
            name = "region" if chunk is None else f"chunk {chunk}"
            lines.append(
                f"  {name:<10} {total * 1e3:>10.4f} ms  "
                f"(mostly {dominant}: {row[dominant] * 1e3:.4f} ms)"
            )
        segs = sorted(self.path.segments, key=lambda s: -s.duration)[:top]
        lines.append("")
        lines.append(f"== longest critical-path segments (top {len(segs)}) ==")
        for seg in segs:
            what = seg.cmd.label or seg.cmd.kind if seg.cmd is not None else f"[{seg.edge}]"
            lines.append(
                f"  {seg.start * 1e3:>9.4f}..{seg.end * 1e3:<9.4f} "
                f"{seg.duration * 1e3:>9.4f} ms  {what}"
            )
        lines.append("")
        lines.append("== what-if bounds ==")
        for name in sorted(self.what_if):
            wi = self.what_if[name]
            lines.append(
                f"  {name:<20} {float(wi['bound_s']) * 1e3:>10.4f} ms  "
                f"(speedup {float(wi['speedup']):.2f}x) — {wi['note']}"
            )
        return "\n".join(lines)


def analyze_timeline(
    timeline: Timeline,
    t0: float,
    t_end: float,
    *,
    model: str = "",
    nchunks: int = 0,
    chunk_size: int = 0,
    num_streams: int = 0,
    faults: int = 0,
    retries: int = 0,
    meta: Optional[Dict[str, object]] = None,
) -> RegionAnalysis:
    """Analyze a timeline's rows over the window ``[t0, t_end]``."""
    rows = timeline.rows()
    path = extract_critical_path(rows, t0, t_end)
    bd = breakdown_from_path(path)
    wall = t_end - t0
    return RegionAnalysis(
        model=model,
        wall=wall,
        t0=t0,
        t_end=t_end,
        path=path,
        breakdown=bd,
        what_if=what_if_bounds(rows, wall, bd),
        engines=engine_busy(rows),
        overlap=overlap_fraction(timeline),
        nchunks=nchunks,
        chunk_size=chunk_size,
        num_streams=num_streams,
        ncommands=len(rows),
        faults=faults,
        retries=retries,
        meta=dict(meta or {}),
    )


def analyze_result(result, *, meta: Optional[Dict[str, object]] = None) -> RegionAnalysis:
    """Analyze a :class:`~repro.core.executor.RegionResult`.

    The analysis window is the result's own measurement window
    ``[t_begin, t_begin + elapsed]``; raises ``ValueError`` when the
    result's timeline is empty.
    """
    if not result.timeline:
        raise ValueError("result carries no retired commands to analyze")
    return analyze_timeline(
        result.timeline,
        result.t_begin,
        result.t_begin + result.elapsed,
        model=result.model,
        nchunks=result.nchunks,
        chunk_size=result.chunk_size,
        num_streams=result.num_streams,
        faults=result.faults,
        retries=result.retries,
        meta=meta,
    )
