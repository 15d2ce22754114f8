"""Structured observability: span tracing, metrics, and exporters.

The paper's entire argument is a scheduling claim — chunked async
transfers overlap compute, a ring buffer caps memory — and its figures
presuppose a profiler that can *see* that schedule.  This subpackage
is that profiler for the simulated runtime:

* :class:`~repro.obs.tracer.Tracer` — nested spans with per-span
  attributes, recorded against virtual clocks at every layer: the
  simulator (one span per retired command, per-engine tracks, queue
  depth at dispatch), the host runtime (every API call, with bytes and
  stream), and the pipelined executor (per-chunk lifecycle:
  plan -> H2D -> kernel -> D2H -> slot-release, tagged with chunk id
  and ring-buffer slot).
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  histograms (bytes per direction, engine utilization, slot-reuse
  stall time, allocator high-water marks), snapshotted onto every
  :class:`~repro.core.executor.RegionResult`.
* :mod:`~repro.obs.export` — Chrome trace-event JSON
  (``chrome://tracing`` / Perfetto) and a plain-text profile report,
  surfaced as the ``repro trace`` / ``repro profile`` CLI commands.
* :mod:`~repro.obs.analyze` — deterministic critical-path extraction,
  per-chunk wait breakdown (sums exactly to wall time), analytic
  what-if bounds, and the byte-stable snapshots behind the
  ``repro analyze`` perf-regression gate.
* :class:`~repro.obs.recorder.FlightRecorder` — bounded deterministic
  event ring dumped as structured JSON on scheduler failures.
* :mod:`~repro.obs.telemetry` — continuous telemetry: deterministic
  virtual-time-windowed frames (queue depth, utilization, PCIe
  occupancy) with a per-tenant SLO/error-budget engine, exported as
  JSONL, Prometheus text, Chrome counter events, and the ``repro top``
  ASCII dashboard.

Usage::

    from repro import NVIDIA_K40M, Runtime
    from repro.obs import Observability

    obs = Observability()
    rt = Runtime(NVIDIA_K40M, obs=obs)
    result = region.run(rt, arrays, kernel)
    print(obs.report())
    obs.write_chrome_trace("run.json")

Observability is **opt-in and zero-cost when off**: the default
runtime carries the no-op :data:`~repro.obs.tracer.NULL_TRACER` and
:data:`~repro.obs.metrics.NULL_METRICS`, and no instrument ever
advances virtual time, so enabling tracing never changes measured
results.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.export import (
    chrome_counter_events,
    overlap_from_events,
    profile_report,
    spans_to_chrome,
    write_span_trace,
)
from repro.obs.intervals import union_length
from repro.obs.io import atomic_write_json, atomic_write_text
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.telemetry import (
    SLO,
    SLOTracker,
    TelemetrySampler,
    prometheus_text,
    read_telemetry_jsonl,
    render_top,
    write_telemetry_jsonl,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "AnalysisDiff",
    "Counter",
    "CriticalPath",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTracer",
    "OBS_NULL",
    "Observability",
    "RegionAnalysis",
    "SLO",
    "SLOTracker",
    "Span",
    "TelemetrySampler",
    "Tracer",
    "WaitBreakdown",
    "analyze_result",
    "analyze_timeline",
    "atomic_write_json",
    "atomic_write_text",
    "chrome_counter_events",
    "diff_analyses",
    "extract_critical_path",
    "overlap_from_events",
    "profile_report",
    "prometheus_text",
    "read_telemetry_jsonl",
    "render_top",
    "spans_to_chrome",
    "union_length",
    "what_if_bounds",
    "write_analysis",
    "write_span_trace",
    "write_telemetry_jsonl",
]

#: names resolved lazily from :mod:`repro.obs.analyze` (PEP 562) so the
#: analyzer — which imports :mod:`repro.sim.trace` — never joins the
#: eager import graph of packages that only want the tracer/metrics
_ANALYZE_NAMES = frozenset(
    {
        "AnalysisDiff",
        "CriticalPath",
        "RegionAnalysis",
        "WaitBreakdown",
        "analyze_result",
        "analyze_timeline",
        "diff_analyses",
        "extract_critical_path",
        "what_if_bounds",
        "write_analysis",
    }
)


def __getattr__(name: str):
    if name in _ANALYZE_NAMES:
        import repro.obs.analyze as _analyze

        return getattr(_analyze, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Observability:
    """A tracer + metrics pair threaded through one runtime.

    ``Observability()`` is fully enabled; pass ``tracer=NULL_TRACER``
    or ``metrics=NULL_METRICS`` to enable only one half.  The shared
    disabled instance is :data:`OBS_NULL`.
    """

    __slots__ = ("tracer", "metrics")

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def enabled(self) -> bool:
        """Whether either half records anything."""
        return self.tracer.enabled or self.metrics.enabled

    def report(self, *, top: int = 8) -> str:
        """Plain-text profile of everything recorded so far."""
        return profile_report(self, top=top)

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (dict form) of all recorded spans."""
        return spans_to_chrome(self.tracer.spans)

    def write_chrome_trace(self, path: str) -> None:
        """Write all recorded spans as ``chrome://tracing`` JSON."""
        write_span_trace(self.tracer.spans, path)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "enabled" if self.enabled else "disabled"
        return f"Observability({state}, {len(self.tracer.spans)} spans)"


#: Shared disabled pair — the default for every :class:`repro.gpu.Runtime`.
OBS_NULL = Observability(NULL_TRACER, NULL_METRICS)
