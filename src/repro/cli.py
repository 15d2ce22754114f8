"""Command-line harness: regenerate the paper's experiments.

Usage (installed as ``python -m repro``)::

    python -m repro list
    python -m repro run fig5            # one figure
    python -m repro run all             # everything
    python -m repro run fig8 --device k40m   # default: the figure's own device
    python -m repro compare stencil     # three models on one app
    python -m repro trace stencil -o stencil.json   # chrome://tracing
    python -m repro profile 3dconv      # span/metrics profile report
    python -m repro chaos stencil --profile transient --seed 7
    python -m repro serve examples/serve_workload.json   # multi-tenant
    python -m repro serve wl.json --telemetry tele.jsonl --slo-report
    python -m repro top tele.jsonl                       # ASCII dashboard
    python -m repro analyze stencil                      # critical path
    python -m repro analyze stencil --baseline base.json # perf gate
    python -m repro engine-bench -o BENCH_engine.json    # engine kernel bench

The figure experiments read the same definitions as ``benchmarks/``
(:mod:`repro.analysis.figures`), which also asserts shape bands; the
CLI is for interactive exploration and report generation.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional

from repro.analysis import figures
from repro.analysis.gantt import ascii_gantt
from repro.analysis.report import ascii_bar_chart, format_table
from repro.apps import conv3d as cv
from repro.apps import stencil as st
from repro.sim.memory import OutOfDeviceMemory

__all__ = ["main"]


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------
def _fig3(device: str) -> str:
    sets = figures.fig3(device)
    rows = []
    for d, vs in sets.items():
        dist = vs.naive.time_distribution
        total = sum(dist.values())
        rows.append([d] + [dist[k] / total for k in ("h2d", "d2h", "kernel")])
    return (
        format_table(["dataset", "HtoD", "DtoH", "kernel"], rows,
                     title="Naive QCD time distribution")
        + "\n\n"
        + ascii_bar_chart(
            list(sets), [vs.speedup("pipelined") for vs in sets.values()],
            unit="x", title="Pipelined speedup over Naive",
        )
    )


def _fig4(device: str) -> str:
    grid = figures.fig4(device)
    rows = [
        [f"chunk={cs}"]
        + [f"{grid[(cs, ns)].elapsed * 1e3:.1f}" for ns in figures.FIG4_STREAMS]
        for cs in figures.FIG4_CHUNKS
    ]
    return format_table(
        [""] + [f"{s} stream" for s in figures.FIG4_STREAMS], rows,
        title="QCD-large execution time (ms)",
    )


def _fig5_fig6(device: str) -> str:
    speed, memory = figures.fig5(device), figures.fig6(device)
    rows = [
        [
            # figures key the QCD datasets "qcdsmall"...; print "qcd-small"
            name.replace("qcd", "qcd-"),
            vs.speedup("pipelined"),
            vs.speedup("pipelined-buffer"),
            memory[name].naive.memory_peak / 1e6,
            memory[name].buffer.memory_peak / 1e6,
            f"{100 * memory[name].memory_saving():.0f}%",
        ]
        for name, vs in speed.items()
    ]
    return format_table(
        ["benchmark", "pipelined x", "buffer x", "naive MB", "buffer MB", "saved"],
        rows,
        title="Speedup and memory by benchmark (Figures 5 & 6)",
        floatfmt="{:.2f}",
    )


def _fig7(device: str) -> str:
    return "\n\n".join(
        format_table(
            ["streams", "Pipelined", "Pipelined-buffer"],
            [
                [ns, naive.elapsed / r["pipelined"].elapsed,
                 naive.elapsed / r["buffer"].elapsed]
                for ns, r in runs.items()
            ],
            title=f"{app}: speedup vs stream count",
        )
        for app, (naive, runs) in figures.fig7(device).items()
    )


def _fig8(device: str) -> str:
    return "\n\n".join(
        format_table(
            ["chunks", "speedup"],
            [[n, vs.speedup("pipelined")] for n, vs in sweep.items()],
            title=f"{app}: speedup vs chunk count ({device})",
        )
        for app, sweep in zip(("3dconv", "stencil"), figures.fig8(device))
    )


def _fig9_fig10(device: str) -> str:
    rows = []
    for n, r in figures.matmul_sweep(device).items():
        base = r["baseline"]
        cells = [n]
        for res in r.values():
            if res is None:
                cells.append("OOM")
            else:
                sp = f"{base.elapsed / res.elapsed:.2f}x" if base else "runs"
                cells.append(f"{sp}/{res.memory_peak / 1e6:.0f}MB")
        rows.append(cells)
    return format_table(
        ["n", "baseline", "block_shared", "pipeline-buffer"], rows,
        title="Matmul speedup/memory (Figures 9 & 10)",
    )


EXPERIMENTS: Dict[str, Callable[[str], str]] = {
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5_fig6,
    "fig6": _fig5_fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9_fig10,
    "fig10": _fig9_fig10,
}

_APPS = ("stencil", "3dconv", "qcd", "matmul")


def _compare(app: str, device: str) -> str:
    if app in ("stencil", "3dconv"):
        mod = st if app == "stencil" else cv
        return mod.run_all(figures.paper_config(app), device, virtual=True).summary_row()
    if app == "qcd":
        return "\n".join(vs.summary_row() for vs in figures.fig3(device).values())
    if app == "matmul":
        return _fig9_fig10(device)
    raise SystemExit(f"unknown app {app!r}; know {_APPS}")


#: the small deterministic pipelined-buffer run behind ``analyze``,
#: ``trace`` and ``profile``, keyed by CLI app name: (workload-builder
#: app name, config keywords)
_ANALYSIS_CONFIGS = {
    "stencil": ("stencil", {"nz": 16, "ny": 64, "nx": 64, "iters": 1}),
    "3dconv": ("conv3d", {"nz": 16, "ny": 64, "nx": 64}),
    "qcd": ("qcd", {"n": 8}),
    "matmul": ("matmul", {"n": 48, "block": 8}),
}


def _analysis_request(app: str, *, virtual: bool):
    """``app``'s analysis region as a request (region, arrays, kernel)."""
    from repro.serve.workload import build_request

    try:
        wl_app, config = _ANALYSIS_CONFIGS[app]
    except KeyError:
        raise SystemExit(f"unknown app {app!r}; know {_APPS}") from None
    return build_request(wl_app, config=config, virtual=virtual)


def _analysis_run(app: str, device: str, obs=None):
    """``app``'s analysis run: virtual, or with real payloads under
    ``obs`` (``trace``/``profile``)."""
    from repro.apps.common import new_runtime

    req = _analysis_request(app, virtual=obs is None)
    rt = new_runtime(device, virtual=obs is None, obs=obs)
    return req.region.run(rt, req.arrays, req.kernel, model="pipelined-buffer")


def _sharded_analysis_run(app: str, device: str, devices: int):
    """The analysis run sharded over ``devices`` virtual devices.

    Returns the primary shard's per-device result (same protocol as
    the single-device run) plus the sharded aggregate for invariants.
    """
    from repro.core import execute_sharded
    from repro.core.placement import resolve_runtimes

    req = _analysis_request(app, virtual=True)
    runtimes = resolve_runtimes([device] * devices, virtual=True)
    sharded = execute_sharded(runtimes, req.region, req.arrays, req.kernel)
    return sharded.per_device[0], sharded


def _observed_run(app: str, device: str):
    """``app``'s analysis run with observability on (stencil/3dconv)."""
    from repro.obs import Observability

    if app not in ("stencil", "3dconv"):
        raise SystemExit(f"trace/profile support stencil/3dconv, not {app!r}")
    obs = Observability()
    return _analysis_run(app, device, obs=obs), obs


def _trace(app: str, device: str, out: Optional[str], width: int) -> str:
    res, obs = _observed_run(app, device)
    if out:
        obs.write_chrome_trace(out)
        return f"wrote {out} (open in chrome://tracing or ui.perfetto.dev)"
    return ascii_gantt(res.timeline, width=width)


def _profile(app: str, device: str, top: int) -> str:
    from repro.obs import profile_report

    _, obs = _observed_run(app, device)
    return profile_report(obs, top=top)


def _analyze(args) -> int:
    """Critical-path / bottleneck analysis of one pipelined run.

    Default prints the human report; ``--json`` the snapshot.  With
    ``--baseline FILE`` the snapshot is diffed against the stored one
    and the exit code is non-zero when anything regressed beyond
    ``--tolerance`` — the CI perf gate.
    """
    import json

    from repro.obs import analyze_result, diff_analyses, write_analysis

    meta = {"app": args.app, "device": args.device}
    devices = getattr(args, "devices", None) or 1
    if devices > 1:
        res, sharded = _sharded_analysis_run(args.app, args.device, devices)
        # sharding invariants the CI smoke leans on
        if sharded.elapsed > max(r.elapsed for r in sharded.per_device) + 1e-12:
            print("sharding invariant violated: aggregate elapsed exceeds "
                  "slowest shard", file=sys.stderr)
            return 1
        if len(sharded.shares) != devices or any(
            s < 1 for s in sharded.shares
        ):
            print("sharding invariant violated: expected one positive "
                  "iteration share per device", file=sys.stderr)
            return 1
        meta.update(shards=len(sharded.shares), shares=list(sharded.shares))
    else:
        res = _analysis_run(args.app, args.device)
    analysis = analyze_result(res, meta=meta)
    snap = analysis.to_dict()
    if args.out:
        write_analysis(snap, args.out)
        print(f"wrote {args.out}")
    if args.baseline:
        try:
            with open(args.baseline) as fh:
                base = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"bad baseline {args.baseline!r}: {exc}", file=sys.stderr)
            return 2
        diff = diff_analyses(base, snap, tolerance=args.tolerance)
        print(diff.report())
        return 0 if diff.ok else 1
    if args.json:
        print(json.dumps(snap, indent=2, sort_keys=True))
    else:
        print(analysis.report())
    return 0


def _engine_bench(args) -> int:
    """Benchmark the fast event-loop kernel against the reference loop.

    Prints the measured events/sec and wall-time ratios; ``-o`` writes
    the metrics JSON (the ``BENCH_engine.json`` schema).  With
    ``--baseline FILE`` the machine-relative ratios are gated against
    the stored ones: exit 0 ok, 1 regression, 2 unusable baseline —
    the same contract as ``repro analyze --baseline``.
    """
    from repro.sim.enginebench import (
        gate, load_baseline, run_bench, write_metrics,
    )

    metrics = run_bench(events=args.events, serve=not args.no_serve)
    for key in sorted(metrics):
        val = metrics[key]
        print(f"{key}: {val:.3f}" if isinstance(val, float) else f"{key}: {val}")
    if args.out:
        write_metrics(metrics, args.out)
        print(f"wrote {args.out}")
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        code, lines = gate(metrics, baseline, slack=args.slack)
        for line in lines:
            print(line)
        return code
    return 0


def _chaos(args) -> int:
    """Run one app under a named fault profile with self-healing on.

    Exit code 0 iff the recovered output matches the NumPy reference.
    """
    from repro.faults import FaultPolicy, RegionFailure, run_chaos

    policy = FaultPolicy(
        max_retries=args.retries,
        degrade=() if args.no_degrade else ("pipelined", "naive"),
    )
    try:
        report = run_chaos(
            args.app,
            args.profile,
            seed=args.seed,
            device=args.device,
            model=args.model,
            policy=policy,
            integrity=args.integrity,
        )
    except KeyError as exc:  # unknown app or profile name
        print(exc.args[0], file=sys.stderr)
        return 2
    except RegionFailure as exc:  # recovery exhausted (e.g. --no-degrade)
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    print(report.summary())
    if not report.matches_reference:
        print(
            "chaos: recovered output does not match the NumPy reference "
            f"(max abs err {report.max_error:.3g})",
            file=sys.stderr,
        )
        return 1
    return 0


def _serve(args) -> int:
    """Replay a JSON workload through the multi-tenant scheduler.

    ``--chaos PROFILE`` installs per-device seeded fault injectors
    (``--seed``), turning on the scheduler's replay/failover/breaker
    machinery; ``--devices SPEC`` overrides the workload's pool with a
    device count (``"2"``) or comma-separated profile names
    (``"k40m,hd7970"``).  ``--journal PATH`` makes the run
    crash-consistent (``--resume`` picks a crashed run back up; the
    ``hostcrash`` chaos profile or ``--crash-after K`` injects the
    crash).  Exit codes: 0 all requests ok; 1 any request failed,
    shed, or cancelled; 2 bad arguments or unusable journal; 3 an
    injected host crash cut the run (resumable).
    """
    import json

    from repro.core.placement import parse_devices_arg
    from repro.errors import ReproError
    from repro.faults import HostCrashError
    from repro.obs import Observability
    from repro.serve import (
        DevicePool,
        JournalError,
        RegionScheduler,
        ServeConfig,
        load_workload,
    )

    if args.resume and not args.journal:
        print("--resume requires --journal PATH", file=sys.stderr)
        return 2

    try:
        # integrity verification needs real payloads to compare; plain
        # scheduling runs stay virtual (metadata-only arrays)
        spec = load_workload(args.workload, virtual=args.integrity == "off")
    except (OSError, ValueError, TypeError, ReproError, json.JSONDecodeError) as exc:
        print(f"bad workload {args.workload!r}: {exc}", file=sys.stderr)
        return 2
    pool_spec, count = spec.device, spec.devices
    if args.devices is not None:
        try:
            parsed = parse_devices_arg(args.devices)
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if isinstance(parsed, int):
            count = parsed
        else:
            pool_spec, count = parsed, 1
    n_devices = count if isinstance(pool_spec, str) else len(pool_spec)
    plans = None
    if args.chaos:
        from repro.faults import pool_fault_plans

        try:
            plans = pool_fault_plans(args.chaos, seed=args.seed, count=n_devices)
        except (KeyError, ValueError) as exc:
            print(
                exc.args[0] if exc.args else str(exc), file=sys.stderr
            )
            return 2
    obs = Observability() if args.trace else None
    try:
        config = ServeConfig(
            max_active=1 if args.serial else None,
            integrity=args.integrity,
            straggler_watchdog=args.watchdog,
            journal_path=args.journal,
            snapshot_every=args.snapshot_every,
            crash_after_events=args.crash_after,
            # SLOs declared in the workload always flow through; the
            # sampler also runs for --telemetry PATH / --slo-report
            telemetry=args.slo_report,
            telemetry_path=args.telemetry,
            slos=spec.slos,
        )
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    with DevicePool(
        pool_spec,
        count=count,
        budget_bytes=spec.budget_bytes,
        obs=obs,
        # checksums need executing payloads: a real pool, not a virtual one
        virtual=args.integrity == "off",
    ) as pool:
        if plans is not None:
            pool.install_faults(plans)
        try:
            if args.resume:
                sched = RegionScheduler.resume(
                    args.journal, pool, spec.requests, config=config
                )
            else:
                sched = RegionScheduler(pool, config)
                sched.submit_all(spec.requests)
            report = sched.run()
        except HostCrashError as exc:
            # echo every flag that shapes the journalled config: resume
            # byte-verifies the header, so a hint that drops one of
            # these would diverge at record 0
            hint = f"repro serve {args.workload} --journal {args.journal}"
            if args.snapshot_every != 32:
                hint += f" --snapshot-every {args.snapshot_every}"
            if args.serial:
                hint += " --serial"
            if args.integrity != "off":
                hint += f" --integrity {args.integrity}"
            if args.watchdog:
                hint += " --watchdog"
            if args.telemetry:
                hint += f" --telemetry {args.telemetry}"
            print(f"{exc}\nresume with: {hint} --resume", file=sys.stderr)
            return 3
        except JournalError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.trace:
        if report.telemetry:
            # frames render alongside the spans as counter tracks
            from repro.obs import atomic_write_json, chrome_counter_events

            trace = obs.chrome_trace()
            trace["traceEvents"].extend(chrome_counter_events(report.telemetry))
            atomic_write_json(args.trace, trace)
        else:
            obs.write_chrome_trace(args.trace)
        print(f"wrote {args.trace} (open in chrome://tracing or ui.perfetto.dev)")
    if args.telemetry:
        print(f"wrote {args.telemetry} (+ {args.telemetry}.prom)")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    if args.slo_report:
        print(json.dumps(report.slo, indent=2, sort_keys=True))
    if not report.ok:
        print(
            f"serve: {report.failed} failed, {report.shed} shed, "
            f"{report.cancelled} cancelled request(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _top(args) -> int:
    """Deterministic ASCII telemetry dashboard.

    ``SOURCE`` is either a saved telemetry JSONL stream (written by
    ``repro serve --telemetry PATH``) or a workload JSON file — the
    latter runs a live serve with telemetry enabled and renders its
    frames.  ``--json`` prints the canonical telemetry JSONL instead
    of the dashboard (byte-identical across runs of the same seeded
    workload — the determinism tests pin this).
    """
    import json

    from repro.errors import ReproError
    from repro.obs.telemetry import (
        TELEMETRY_SCHEMA,
        read_telemetry_jsonl,
        render_top,
        telemetry_lines,
    )

    try:
        with open(args.source, encoding="utf-8") as fh:
            first = fh.readline()
    except OSError as exc:
        print(f"cannot read {args.source!r}: {exc}", file=sys.stderr)
        return 2
    try:
        head = json.loads(first) if first.strip() else None
    except json.JSONDecodeError:
        head = None
    if isinstance(head, dict) and head.get("schema") == TELEMETRY_SCHEMA:
        try:
            header, frames = read_telemetry_jsonl(args.source)
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"bad telemetry stream {args.source!r}: {exc}", file=sys.stderr)
            return 2
        window = float(header.get("window_s", args.window))
    else:
        from repro.serve import (
            DevicePool,
            RegionScheduler,
            ServeConfig,
            load_workload,
        )

        try:
            spec = load_workload(args.source)
        except (OSError, ValueError, TypeError, ReproError,
                json.JSONDecodeError) as exc:
            print(
                f"{args.source!r} is neither a telemetry stream nor a "
                f"workload file: {exc}",
                file=sys.stderr,
            )
            return 2
        window = args.window
        config = ServeConfig(
            telemetry=True, telemetry_window=window, slos=spec.slos
        )
        with DevicePool(
            spec.device, count=spec.devices, budget_bytes=spec.budget_bytes
        ) as pool:
            sched = RegionScheduler(pool, config)
            sched.submit_all(spec.requests)
            frames = sched.run().telemetry
    try:
        if args.json:
            print("\n".join(telemetry_lines(frames, window=window)))
        else:
            print(render_top(frames, width=args.width))
        sys.stdout.flush()
    except BrokenPipeError:
        # a top-style tool is routinely piped to head/grep -q; a
        # consumer hanging up early is not an error.  Point stdout at
        # devnull so the interpreter's exit-time flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition (exposed for tests)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate experiments from 'Directive-Based "
        "Partitioning and Pipelining for GPUs' (IPDPS 2017)",
    )
    sub = p.add_subparsers(dest="cmd", required=True)
    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one figure experiment (or 'all')")
    run.add_argument("experiment", help="fig3..fig10 or 'all'")
    run.add_argument(
        "--device", default=None,
        help="k40m or hd7970 (default: the device the paper used for the "
        "figure; hd7970 for fig8, k40m for the rest)",
    )

    cmp_ = sub.add_parser("compare", help="three models on one application")
    cmp_.add_argument("app", help="/".join(_APPS))
    cmp_.add_argument("--device", default="k40m")

    tr = sub.add_parser("trace", help="timeline of a pipelined run")
    tr.add_argument("app", help="stencil or 3dconv")
    tr.add_argument("--device", default="k40m")
    tr.add_argument("-o", "--out", default=None, help="write chrome-trace JSON here")
    tr.add_argument("--width", type=int, default=100, help="ascii gantt width")

    pr = sub.add_parser("profile", help="span/metrics profile of a pipelined run")
    pr.add_argument("app", help="stencil or 3dconv")
    pr.add_argument("--device", default="k40m")
    pr.add_argument("--top", type=int, default=8, help="longest spans to list")

    an = sub.add_parser(
        "analyze",
        help="critical-path and bottleneck analysis of a pipelined run",
    )
    an.add_argument("app", help="/".join(_APPS))
    an.add_argument("--device", default="k40m")
    an.add_argument(
        "--devices", type=int, default=1, metavar="N",
        help="shard the analyzed region across N devices of --device "
        "(default 1: single-device run)",
    )
    an.add_argument(
        "--json", action="store_true",
        help="print the analysis snapshot as JSON instead of the report",
    )
    an.add_argument(
        "-o", "--out", default=None,
        help="also write the snapshot JSON here (atomic, byte-stable)",
    )
    an.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="diff against this stored snapshot; exit 1 on regression",
    )
    an.add_argument(
        "--tolerance", type=float, default=0.05,
        help="regression threshold as a fraction of baseline wall "
        "(default 0.05)",
    )

    eb = sub.add_parser(
        "engine-bench",
        help="benchmark the fast event-loop kernel vs the reference loop",
    )
    eb.add_argument(
        "--events", type=int, default=240_000,
        help="commands per bare-engine replay (default 240000; long "
        "replays capture the reference loop's GC degradation)",
    )
    eb.add_argument(
        "--no-serve", action="store_true",
        help="skip the end-to-end mixed-8 serve wall-time pair",
    )
    eb.add_argument(
        "-o", "--out", default=None,
        help="write the metrics JSON here (BENCH_engine.json schema)",
    )
    eb.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="gate the measured ratios against this stored metrics "
        "file; exit 1 on regression, 2 on an unusable baseline",
    )
    eb.add_argument(
        "--slack", type=float, default=0.90,
        help="a gated ratio may trail its baseline by this factor "
        "(default 0.90)",
    )

    ch = sub.add_parser(
        "chaos",
        help="run one app under injected faults and verify recovery",
    )
    ch.add_argument("app", help="/".join(_APPS))
    ch.add_argument(
        "--profile", default="transient",
        help="fault profile: transient (default), jitter, pressure, "
        "chaos, failover, sdc, straggler, hostcrash",
    )
    ch.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    ch.add_argument("--device", default="k40m")
    ch.add_argument(
        "--model", default="buffer", help="starting execution model (default buffer)"
    )
    ch.add_argument(
        "--retries", type=int, default=4, help="max replays per chunk (default 4)"
    )
    ch.add_argument(
        "--no-degrade", action="store_true",
        help="fail instead of falling back to pipelined/naive models",
    )
    ch.add_argument(
        "--integrity", default="off", choices=("off", "checksum", "vote"),
        help="verify data integrity at chunk granularity: checksum "
        "(transfer checksums) or vote (plus dual-execution kernel "
        "voting); detected corruptions are recomputed in place",
    )

    sv = sub.add_parser(
        "serve",
        help="replay a multi-tenant workload file through the scheduler",
    )
    sv.add_argument("workload", help="workload JSON file (see docs/serve.md)")
    sv.add_argument(
        "--serial", action="store_true",
        help="serial baseline: one region in service at a time",
    )
    sv.add_argument(
        "--trace", default=None, metavar="OUT",
        help="write a chrome-trace JSON of the shared timeline here",
    )
    sv.add_argument(
        "--json", action="store_true",
        help="print the full report as JSON instead of the summary table",
    )
    sv.add_argument(
        "--chaos", default=None, metavar="PROFILE",
        help="install per-device fault injectors from a named profile "
        "(transient, jitter, pressure, chaos, failover, sdc, "
        "straggler, hostcrash)",
    )
    sv.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    sv.add_argument(
        "--integrity", default="off", choices=("off", "checksum", "vote"),
        help="pool-wide integrity verification mode (workload requests "
        "may override per tenant); implies real array payloads",
    )
    sv.add_argument(
        "--watchdog", action="store_true",
        help="enable the sharded-region straggler watchdog (re-splits "
        "work away from slow-but-alive devices)",
    )
    sv.add_argument(
        "--devices", default=None, metavar="SPEC",
        help="override the workload's pool: a count (\"2\") or "
        "comma-separated profile names (\"k40m,hd7970\")",
    )
    sv.add_argument(
        "--journal", default=None, metavar="PATH",
        help="write-ahead journal for crash-consistent serving; an "
        "injected host crash (hostcrash profile or --crash-after) "
        "exits 3 and the run resumes with --resume",
    )
    sv.add_argument(
        "--resume", action="store_true",
        help="resume a crashed run from --journal PATH: completed "
        "requests are never re-executed, the report and outputs are "
        "byte-identical to the uninterrupted run",
    )
    sv.add_argument(
        "--snapshot-every", type=int, default=32, metavar="N",
        dest="snapshot_every",
        help="checkpoint cadence in journal records (default 32; "
        "0 disables snapshots)",
    )
    sv.add_argument(
        "--crash-after", type=int, default=None, metavar="K",
        dest="crash_after",
        help="inject a host crash once K journal records are durable "
        "(requires --journal; overrides the hostcrash profile's index)",
    )
    sv.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="write the continuous-telemetry JSONL stream here (plus a "
        "Prometheus text dump at PATH.prom); render it with 'repro top'",
    )
    sv.add_argument(
        "--slo-report", action="store_true", dest="slo_report",
        help="print the per-tenant SLO digest (compliance, error "
        "budget, burn) as JSON after the report",
    )

    tp = sub.add_parser(
        "top",
        help="ASCII telemetry dashboard from a saved stream or a live "
        "serve run",
    )
    tp.add_argument(
        "source",
        help="telemetry JSONL file (from serve --telemetry) or a "
        "workload JSON file (runs a live serve with telemetry on)",
    )
    tp.add_argument(
        "--json", action="store_true",
        help="print the canonical telemetry JSONL instead of the dashboard",
    )
    tp.add_argument(
        "--width", type=int, default=48,
        help="sparkline width in characters (default 48)",
    )
    tp.add_argument(
        "--window", type=float, default=1e-3, metavar="S",
        help="telemetry window in virtual seconds for a live run "
        "(default 1e-3; ignored for saved streams)",
    )
    return p


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.cmd == "list":
        for name in sorted(set(EXPERIMENTS)):
            print(name)
        return 0
    if args.cmd == "run":
        names = sorted(set(EXPERIMENTS)) if args.experiment == "all" else [args.experiment]
        seen = set()
        for name in names:
            fn = EXPERIMENTS.get(name)
            if fn is None:
                print(f"unknown experiment {name!r}; try 'list'", file=sys.stderr)
                return 2
            if fn in seen:  # fig5/fig6 and fig9/fig10 share a generator
                continue
            seen.add(fn)
            device = args.device or figures.PAPER_DEVICE[name]
            print(f"\n===== {name} ({device}) =====")
            try:
                print(fn(device))
            except OutOfDeviceMemory as exc:
                # the figures' datasets are sized for the device the paper
                # measured them on
                print(
                    f"{name} does not fit the {device}: an allocation needs "
                    f"{exc.requested} B, and {exc.free} B of "
                    f"{exc.capacity} B usable are free",
                    file=sys.stderr,
                )
                return 2
        return 0
    if args.cmd == "compare":
        print(_compare(args.app, args.device))
        return 0
    if args.cmd == "trace":
        print(_trace(args.app, args.device, args.out, args.width))
        return 0
    if args.cmd == "profile":
        print(_profile(args.app, args.device, args.top))
        return 0
    if args.cmd == "analyze":
        return _analyze(args)
    if args.cmd == "engine-bench":
        return _engine_bench(args)
    if args.cmd == "chaos":
        return _chaos(args)
    if args.cmd == "serve":
        return _serve(args)
    if args.cmd == "top":
        return _top(args)
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
