"""The repository's layers, the calls that enter them, and their metrics.

Layer names are the repo's module names.  Each layer lists the public
calls the traced run wraps (see :mod:`ledger`), patched where their
callers look them up.  Three one-line helpers are left unwrapped:
``RegionPlan.buffer_bytes``/``resident_bytes`` and
``DevicePool.headroom``.  Nearly all of their calls come from inside the
wrapped ``device_bytes``/``fits``, whose spans already cover them, and
a wrapper costs about ten times their bodies, so wrapping them would
mostly time the wrapper.

:func:`layer_metrics` turns a traced run's ledger into the per-layer
metrics named in ``BENCHMARK.json``: self time per pass, share of the
traced wall, and each layer's counts per pass.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ledger import Ledger, Target

__all__ = ["LAYERS", "PER_LAYER_UNITS", "TARGETS", "layer_metrics"]


def _methods(layer: str, owner: str, names: str, **counts) -> List[Target]:
    return [Target(layer, f"{owner}.{n}", counts.get(n)) for n in names.split()]


def _is_set(args, result) -> int:
    return result is not None


TARGETS: List[Target] = [
    Target("serve.scheduler", "repro.serve.scheduler:RegionScheduler.run"),
    Target("core.plan", "repro.core.plan:RegionPlan.device_bytes"),
    Target("core.plan", "repro.core.region:TargetRegion.bind"),
    Target("core.plan", "repro.core.region:tune_plan"),
    Target("core.plan", "repro.core.autotune:tune_plan"),
    Target("core.plan", "repro.core.multidevice:tune_plan"),
    Target("core.plan", "repro.serve.scheduler:tune_plan"),
    *_methods(
        "serve.pool", "repro.serve.pool:DevicePool",
        "fits best_fit reserve release",
    ),
    Target("serve.cache", "repro.serve.cache:PlanCache.key_for"),
    Target("serve.cache", "repro.serve.cache:PlanCache.get", {"hits": _is_set}),
    Target("serve.cache", "repro.serve.cache:PlanCache.put"),
    Target("core.autotune", "repro.serve.scheduler:autotune",
           {"dry_runs": lambda a, r: r.dry_runs}),
    *_methods(
        "core.issuer", "repro.core.executor:PipelineIssuer",
        "open issue_next drain recover finalize abort",
        issue_next={"chunks": _is_set},
    ),
    *_methods(
        "core.issuer", "repro.core.multidevice:ShardedIssuer",
        "open issue_next drain recover finalize abort",
    ),
    *_methods(
        "gpu.runtime", "repro.gpu.runtime:Runtime",
        "memcpy_h2d_async memcpy_d2h_async memcpy_h2d memcpy_d2h launch "
        "malloc free synchronize stream_synchronize event_synchronize "
        "create_stream event record_event stream_wait_event",
    ),
    *_methods(
        "sim.engine", "repro.sim.engine:Simulator",
        "enqueue run_until run_all wait_command wait_event advance_to",
    ),
    Target("integrity", "repro.core.executor:digest", {"bytes": lambda a, r: a[0].nbytes}),
    *_methods("serve.journal", "repro.serve.journal:JournalWriter", "append close"),
    Target("serve.journal", "repro.serve.scheduler:RegionScheduler.checkpoint"),
    *_methods(
        "obs.telemetry", "repro.obs.telemetry:TelemetrySampler",
        "advance finish inc observe add_interval slo_report",
        finish={"frames": lambda a, r: len(r)},
    ),
    *_methods("obs.recorder", "repro.obs.recorder:FlightRecorder", "record dump"),
    Target("obs.trace", "repro.obs.tracer:Tracer.spans", {"spans": lambda a, r: len(r)}),
    Target("obs.trace", "repro.obs.metrics:MetricsRegistry.snapshot"),
    Target("kernels", "repro.kernels.stencil3d:StencilKernel.run"),
    Target("kernels", "repro.kernels.conv3d:Conv3dKernel.run"),
    Target("kernels", "repro.kernels.qcd:DslashKernel.run"),
    Target("kernels", "repro.kernels.matmul:MatmulChunkKernel.run"),
    Target("kernels", "repro.kernels.matmul:MatmulWholeKernel.run"),
]

#: timed layers in report order (each gets ``self_s`` and ``share``)
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS))

#: every per-layer metric and its unit, in ``BENCHMARK.json`` order
PER_LAYER_UNITS: Dict[str, str] = {}
_EXTRA = {
    "serve.scheduler": {"self_us_per_request": "us"},
    "core.plan": {"calls": "count"},
    "serve.pool": {"calls": "count"},
    "serve.cache": {"lookups": "count", "hit_rate": "ratio"},
    "core.autotune": {"calls": "count", "dry_runs": "count", "incl_s": "s",
                      "incl_share": "ratio"},
    "core.issuer": {"chunks": "count", "self_us_per_chunk": "us", "recover_incl_s": "s"},
    "gpu.runtime": {"calls": "count"},
    "sim.engine": {"events": "count", "events_per_s": "1/s"},
    "integrity": {"digests": "count", "bytes": "B"},
    "serve.journal": {"records": "count", "bytes": "B"},
    "obs.telemetry": {"frames": "count"},
    "obs.recorder": {"events": "count"},
    "obs.trace": {"spans": "count"},
    "kernels": {"calls": "count"},
}
for _layer in LAYERS:
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"
    PER_LAYER_UNITS[f"{_layer}.share"] = "ratio"
    for _m, _u in _EXTRA[_layer].items():
        PER_LAYER_UNITS[f"{_layer}.{_m}"] = _u
PER_LAYER_UNITS.update({
    "faults.injected": "count",
    "faults.retries": "count",
    "faults.replay_ratio": "ratio",
    "sim.device.h2d_util": "ratio",
    "sim.device.d2h_util": "ratio",
    "sim.device.kernel_util": "ratio",
    "bench.unattributed": "ratio",
    "bench.trace_overhead": "ratio",
})


def layer_metrics(
    ledger: Ledger,
    *,
    traced_wall_s: float,
    passes: int,
    requests: int,
    program: Dict[str, float],
    trace_overhead: float,
) -> Dict[str, float]:
    """Per-layer metrics from a traced run.

    ``traced_wall_s`` is the summed wall of the traced timed phases and
    ``passes`` their count; times and counts are reported per pass.
    ``requests`` is the ok request count over those passes.
    ``program`` carries the values read from the program's own results
    (journal bytes, fault counters, device utilization), already per
    pass.
    """
    c = ledger.counts

    def per_pass(v: float) -> float:
        return v / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_pass(ledger.self_s(layer))
        out[f"{layer}.share"] = ledger.self_s(layer) / traced_wall_s
    for layer in ("core.plan", "serve.pool", "core.autotune", "gpu.runtime", "kernels"):
        out[f"{layer}.calls"] = per_pass(ledger.calls(layer))
    out["serve.scheduler.self_us_per_request"] = 1e6 * ratio(
        ledger.self_s("serve.scheduler"), requests
    )
    lookups = ledger.calls_of("repro.serve.cache:PlanCache.get")
    out["serve.cache.lookups"] = per_pass(lookups)
    out["serve.cache.hit_rate"] = ratio(c["serve.cache.hits"], lookups)
    out["core.autotune.dry_runs"] = per_pass(c["core.autotune.dry_runs"])
    autotune_s = ledger.incl_s("repro.serve.scheduler:autotune")
    out["core.autotune.incl_s"] = per_pass(autotune_s)
    out["core.autotune.incl_share"] = autotune_s / traced_wall_s
    out["core.issuer.chunks"] = per_pass(c["core.issuer.chunks"])
    out["core.issuer.self_us_per_chunk"] = 1e6 * ratio(
        ledger.self_s("core.issuer"), c["core.issuer.chunks"]
    )
    out["core.issuer.recover_incl_s"] = per_pass(
        ledger.incl_s("repro.core.executor:PipelineIssuer.recover")
        + ledger.incl_s("repro.core.multidevice:ShardedIssuer.recover")
    )
    events = ledger.calls_of("repro.sim.engine:Simulator.enqueue")
    out["sim.engine.events"] = per_pass(events)
    out["sim.engine.events_per_s"] = ratio(events, ledger.self_s("sim.engine"))
    out["integrity.digests"] = per_pass(ledger.calls("integrity"))
    out["integrity.bytes"] = per_pass(c["integrity.bytes"])
    out["serve.journal.records"] = per_pass(
        ledger.calls_of("repro.serve.journal:JournalWriter.append")
    )
    out["obs.telemetry.frames"] = per_pass(c["obs.telemetry.frames"])
    out["obs.recorder.events"] = per_pass(
        ledger.calls_of("repro.obs.recorder:FlightRecorder.record")
    )
    out["obs.trace.spans"] = per_pass(c["obs.trace.spans"])
    out.update(program)
    out["bench.unattributed"] = 1.0 - sum(out[f"{layer}.share"] for layer in LAYERS)
    out["bench.trace_overhead"] = trace_overhead
    missing = set(PER_LAYER_UNITS) ^ set(out)
    if missing:
        raise KeyError(f"per-layer metrics out of step with the table: {sorted(missing)}")
    return {name: out[name] for name in PER_LAYER_UNITS}
