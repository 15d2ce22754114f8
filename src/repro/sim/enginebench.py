"""Engine throughput benchmark + regression gate.

Measures the fast event-loop kernel (:class:`repro.sim.engine.Simulator`
with free-listed object recycling) against the preserved pre-refactor
loop (:class:`repro.sim.engine_ref.ReferenceSimulator` as shipped: plain
allocation, no recycling) on two workloads:

* **bare-engine replay** — a mixed-8-shaped command stream (four
  compute-rich and four transfer-heavy pipelines' worth of
  h2d -> kernel -> d2h chunk triplets on three streams, with event-token
  cross-stream dependencies), tiled to ``events`` commands and driven in
  enqueue/drain segments like a serving scheduler.  The headline
  ``events_per_sec`` numbers (events = retired commands) and their
  ``events_per_sec_ratio`` come from here.  Long streams are the honest
  setting: the old loop's ``Command <-> EventToken`` reference cycles
  pile into the cyclic garbage collector and degrade with run length;
  the fast kernel's retirement never forms them.
* **mixed-8 serve** — the dense (chunk_size=1) 4x qcd + 4x stencil
  serve workload end-to-end, observability on, once per kernel, for a
  wall-clock ratio that includes scheduler/runtime overhead.

:func:`gate` compares a metrics dict against a checked-in baseline with
multiplicative slack — the same snapshot-as-baseline pattern as
``repro analyze --baseline`` — returning the CLI exit code: 0 ok,
1 regression, 2 unusable baseline.  Only machine-relative ratios are
gated; absolute events/sec depend on the host and are reported only.
"""

from __future__ import annotations

import gc
import json
import time
from typing import Dict, List, Optional, Tuple

from repro.sim.engine import Command, EventToken, Simulator, engine_kernel
from repro.sim.stream import SimStream, reset_stream_ids

__all__ = [
    "BASELINE_SLACK",
    "GATED_RATIOS",
    "SCHEMA",
    "gate",
    "load_baseline",
    "replay_throughput",
    "run_bench",
    "serve_wall",
    "write_metrics",
]

SCHEMA = "repro/engine-bench/v1"

#: a new measurement may trail its baseline by at most this factor
BASELINE_SLACK = 0.90

#: baseline-gated keys — ratios of fast over reference on the same
#: host, so the gate is machine-independent
GATED_RATIOS = ("events_per_sec_ratio", "serve_wall_ratio")

#: chunk triplets enqueued per drain segment of the bare replay —
#: roughly a scheduler issue quantum's worth of in-flight work
_SEGMENT_CHUNKS = 512

#: synthetic per-command durations (seconds of virtual time), shaped
#: like the mixed-8 profile: transfer-heavy stencil chunks interleaved
#: with compute-rich qcd chunks
_MIX = (
    # (h2d_s, kernel_s, d2h_s) per chunk, alternating app flavours
    (40e-6, 25e-6, 38e-6),   # stencil-like: DMA-bound
    (8e-6, 120e-6, 7e-6),    # qcd-like: compute-bound
)


def _make_obs(kernel: str):
    """Build the per-kernel observability pair for the replay.

    The reference pairing is the pre-refactor observability cost model:
    an eager tracer (every retirement builds its :class:`Span` on the
    spot) plus eager per-retirement metric updates.  The fast pairing
    is the shipped lazy path: retirement appends the command to the
    tracer and metrics backlogs, exactly what
    :meth:`repro.gpu.runtime.Runtime._make_observer` installs.
    """
    from repro.gpu.runtime import _replay_retired, _retired_span
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

    tracer = Tracer(eager=(kernel == "reference"))
    tracer.set_command_inflater(_retired_span)
    metrics = MetricsRegistry()
    metrics.set_command_replay(_replay_retired)
    if kernel == "reference":
        def observer(cmd: Command) -> None:
            tracer.defer_command(cmd)       # eager: Span built now
            _replay_retired(metrics, cmd)   # eager instrument updates
    else:
        span_append = tracer._spans.append
        metric_append = metrics._deferred.append

        def observer(cmd: Command) -> None:
            tracer._dirty = True
            span_append(cmd)
            metric_append(cmd)
    return tracer, metrics, observer


def _replay(
    sim: Simulator, n_commands: int, streams_n: int, recycle: bool,
    obs=None,
) -> int:
    """Drive ``n_commands`` of mixed-8-shaped pipeline traffic through
    ``sim``; returns the number of commands retired.

    ``obs`` is an optional ``(tracer, metrics)`` pair whose recorded
    segment is dropped at each drain point (the serving steady state:
    every request's trace is *available* until the request completes,
    then discarded unread).  Dropping is what recycling requires — a
    retained trace pins its commands.
    """
    sim.add_engine("dma0")
    sim.add_engine("compute0")
    acquire_cmd = Command.acquire if recycle else Command
    acquire_tok = EventToken.acquire if recycle else EventToken
    streams = [SimStream(f"s{i}") for i in range(streams_n)]
    enqueue = sim.enqueue
    retired = 0
    chunk = 0
    mix_n = len(_MIX)
    # precomputed (durations, stream-slot) pattern: the per-chunk
    # modulo/index arithmetic is driver overhead paid identically by
    # both kernels, so it is hoisted out of the measured loop
    period = mix_n * streams_n
    pattern = [(_MIX[i % mix_n], i % streams_n) for i in range(period)]
    while retired < n_commands:
        seg = min(_SEGMENT_CHUNKS, (n_commands - retired + 2) // 3)
        for _ in range(seg):
            (h2d_s, kern_s, d2h_s), slot = pattern[chunk % period]
            st = streams[slot]
            # token names are debug labels; constants keep the driver
            # (paid identically by both kernels) out of the measurement
            htok = acquire_tok("h2d")
            ktok = acquire_tok("kernel")
            enqueue(
                acquire_cmd("h2d", "dma0", h2d_s, stream=st, nbytes=1 << 16),
                records=(htok,),
            )
            enqueue(
                acquire_cmd("kernel", "compute0", kern_s, stream=st),
                waits=(htok,), records=(ktok,),
            )
            enqueue(
                acquire_cmd("d2h", "dma0", d2h_s, stream=st, nbytes=1 << 16),
                waits=(ktok,),
            )
            chunk += 1
        sim.run_all()
        retired += seg * 3
        if obs is not None:
            tracer, metrics = obs
            tracer.clear()
            metrics._deferred.clear()
        if recycle:
            sim.recycle_completed()
            # recycling drops stream tails; fresh identities keep the
            # next segment's implicit ordering self-contained
            streams = [SimStream(f"s{i}") for i in range(streams_n)]
    return retired


def replay_throughput(
    kernel: str, *, events: int = 240_000, streams: int = 3, repeats: int = 2
) -> Dict[str, float]:
    """Run the bare-engine replay on one kernel; returns
    ``{"commands", "seconds", "events_per_sec"}`` for the best of
    ``repeats`` runs (fastest wall time, the standard noise filter).

    ``kernel`` is ``"fast"`` (pooled objects, per-segment recycling) or
    ``"reference"`` (the pre-refactor loop as shipped: plain allocation,
    retired objects left to the garbage collector).  The default run
    length matters: the reference loop's retired population is walked by
    every collector sweep, so its throughput *decays* with stream
    length, while the recycling kernel holds a bounded live set — short
    replays understate exactly the degradation long serves hit.
    """
    from repro.sim.engine import make_simulator

    best: Optional[float] = None
    retired = 0
    for _ in range(max(1, repeats)):
        reset_stream_ids()
        gc.collect()
        with engine_kernel(kernel):
            sim = make_simulator()
            tracer, metrics, observer = _make_obs(kernel)
            sim.observer = observer
            t0 = time.perf_counter()
            retired = _replay(
                sim, events, streams,
                recycle=(kernel == "fast"), obs=(tracer, metrics),
            )
            seconds = time.perf_counter() - t0
        if best is None or seconds < best:
            best = seconds
    return {
        "commands": retired,
        "seconds": best,
        "events_per_sec": retired / best if best and best > 0 else 0.0,
    }


def _dense_mixed8():
    """The mixed-8 serve workload pinned to chunk_size=1: the same
    4x qcd + 4x stencil mix as ``benchmarks/test_serve_throughput.py``,
    sized so the engine retires thousands of commands per run."""
    from repro.serve import build_request

    reqs = []
    for i in range(4):
        reqs.append(build_request(
            "qcd", tenant=f"qcd{i}",
            config={"n": 16, "chunk_size": 1, "num_streams": 3},
        ))
        reqs.append(build_request(
            "stencil", tenant=f"sten{i}",
            config={"nz": 202, "ny": 32, "nx": 32,
                    "chunk_size": 1, "num_streams": 2},
        ))
    return reqs


def serve_wall(kernel: str, *, repeats: int = 3) -> float:
    """Wall-clock seconds for one dense mixed-8 serve run on ``kernel``
    with observability enabled (autotune off, so planning overhead does
    not mask the engine); best of ``repeats`` runs."""
    from repro.obs import Observability
    from repro.serve import DevicePool, RegionScheduler, ServeConfig

    best: Optional[float] = None
    for _ in range(max(1, repeats)):
        reset_stream_ids()
        gc.collect()
        with engine_kernel(kernel):
            obs = Observability()
            if kernel == "reference":
                # reference runs pair with an eager tracer: spans built
                # at emission, the pre-refactor observability cost model
                obs = Observability(type(obs.tracer)(eager=True), obs.metrics)
            pool = DevicePool("k40m", obs=obs)
            sched = RegionScheduler(pool, ServeConfig(autotune=False))
            sched.submit_all(_dense_mixed8())
            t0 = time.perf_counter()
            report = sched.run()
            # force full materialization so lazy observability pays its
            # bill inside the measured region, not never
            n_spans = len(obs.tracer.spans)
            obs.metrics.snapshot()
            seconds = time.perf_counter() - t0
        if not report.ok:  # pragma: no cover - bench invariant
            raise RuntimeError("engine-bench serve run failed")
        if n_spans == 0:  # pragma: no cover - bench invariant
            raise RuntimeError("engine-bench serve run recorded no spans")
        if best is None or seconds < best:
            best = seconds
    return best


def run_bench(*, events: int = 240_000, serve: bool = True) -> Dict[str, object]:
    """Measure both kernels; returns the JSON-safe metrics dict.

    The reference kernel is measured first in each pairing, with a GC
    sweep between runs, so allocator/collector state never favours the
    fast kernel.
    """
    ref = replay_throughput("reference", events=events)
    fast = replay_throughput("fast", events=events)
    metrics: Dict[str, object] = {
        "schema": SCHEMA,
        "events": events,
        "reference_events_per_sec": ref["events_per_sec"],
        "fast_events_per_sec": fast["events_per_sec"],
        "events_per_sec_ratio": (
            fast["events_per_sec"] / ref["events_per_sec"]
            if ref["events_per_sec"] else 0.0
        ),
    }
    if serve:
        ref_wall = serve_wall("reference")
        fast_wall = serve_wall("fast")
        metrics["serve_wall_reference_s"] = ref_wall
        metrics["serve_wall_fast_s"] = fast_wall
        metrics["serve_wall_ratio"] = ref_wall / fast_wall if fast_wall else 0.0
    return metrics


def write_metrics(metrics: Dict[str, object], path: str) -> None:
    """Write the metrics dict as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_baseline(path: str) -> Dict[str, object]:
    """Load a baseline file; raises ``ValueError`` if unusable.

    A usable baseline is a JSON object carrying a numeric value for at
    least one gated ratio.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable baseline {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"baseline {path!r} is not a JSON object")
    gated = [
        k for k in GATED_RATIOS
        if isinstance(data.get(k), (int, float))
        and not isinstance(data.get(k), bool)
    ]
    if not gated:
        raise ValueError(
            f"baseline {path!r} has no numeric gated ratio "
            f"(expected one of {', '.join(GATED_RATIOS)})"
        )
    return data


def gate(
    metrics: Dict[str, object],
    baseline: Dict[str, object],
    *,
    slack: float = BASELINE_SLACK,
) -> Tuple[int, List[str]]:
    """Compare ``metrics`` against ``baseline``; returns
    ``(exit_code, report_lines)`` — 0 ok, 1 regression.

    Each gated ratio present in the baseline must satisfy
    ``measured >= baseline * slack``.  A gated ratio the baseline pins
    but the metrics dict lacks is a regression (the bench stopped
    measuring it).
    """
    code = 0
    lines: List[str] = []
    for key in GATED_RATIOS:
        ref = baseline.get(key)
        if not isinstance(ref, (int, float)) or isinstance(ref, bool):
            continue
        got = metrics.get(key)
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            lines.append(f"FAIL {key}: missing from measurement "
                         f"(baseline {ref:.3f})")
            code = 1
            continue
        floor = ref * slack
        verdict = "ok" if got >= floor else "FAIL"
        lines.append(
            f"{verdict} {key}: {got:.3f} vs baseline {ref:.3f} "
            f"(floor {floor:.3f})"
        )
        if got < floor:
            code = 1
    return code, lines
