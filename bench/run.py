"""Benchmark entry point: measure, sweep, compare.

Measure one workload in this process (what ``BENCHMARK.json``'s command
runs)::

    python3 bench/run.py --workload serve_backlog --seed 1 --seconds 12 --trace 0

The run repeats *passes* — set up, then run the timed phase — until
``--seconds`` have elapsed, prints every metric by name and unit, checks
the outputs, and ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics
of untraced passes; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics of the traced ones.  ``-o OUT.json``
also saves everything, including the exact virtual-time metrics, and
with ``--trace 1`` writes the kept spans to ``OUT.trace.json`` in Chrome
format.  A failed check exits 1.

Run every workload ``--repeat`` times, each run in its own fresh
subprocess, one at a time::

    python3 bench/run.py sweep --repeat 5 --traced -o OUT.json

Compare two sweeps (or a sweep against ``bench/baseline/seed.json``);
exits 1 on a regression outside the bounds in ``BENCHMARK.json``::

    python3 bench/run.py compare PARENT.json CHANGE.json
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"


def cap_threads() -> None:
    """One compute thread: a run measures one single-threaded process,
    so numerical libraries must not fan out over the cores."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def use_source_tree() -> None:
    """Import the program from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source at {src / 'repro'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def load_spec() -> Dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: List[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def env_info() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# measure one workload
# ----------------------------------------------------------------------
def measure(
    workload: str,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    quick: bool = False,
    chrome_path: Optional[str] = None,
) -> Dict:
    """Run passes of ``workload`` for ``seconds``; returns every result."""
    # these import the program, so only after use_source_tree() and cap_threads()
    from layers import TARGETS, layer_metrics
    from ledger import Ledger, install, write_chrome_trace
    from workloads import WORKLOADS

    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    wl = WORKLOADS[workload](seed, quick=quick, workdir=workdir)
    # keeping spans adds to the cost of every wrapped call: only for a Chrome trace
    ledger = Ledger(span_cap=100_000 if chrome_path else 0)
    passes: List[Dict] = []
    outcomes = []
    try:
        wl.prepare()
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            for traced in (False, True) if trace else (False,):
                gc.collect()
                t0 = time.perf_counter()
                state = wl.setup()
                t1 = time.perf_counter()
                gc.collect()
                restore = install(ledger, TARGETS) if traced else None
                try:
                    t2 = time.perf_counter()
                    raw = wl.run(state)
                    t3 = time.perf_counter()
                finally:
                    if restore is not None:
                        restore()
                outcome = wl.outcome(state, raw, traced=traced)
                del state, raw
                passes.append({"setup_s": t1 - t0, "wall_s": t3 - t2, "traced": traced,
                               "ok": outcome.ok})
                outcomes.append(outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [e for o in outcomes for e in o.errors]
    if any(o.digest != outcomes[0].digest for o in outcomes):
        errors.append("virtual results differ between passes (tracing or state leak)")
    untraced = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in untraced]
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "passes": passes,
        "correct": not errors,
        "errors": errors,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.attempted - o.ok for o in outcomes),
        "inexact_outputs": sum(o.inexact for o in outcomes),
        "host": {
            "wall_s": statistics.median(walls),
            "requests_per_s": statistics.median(p["ok"] for p in untraced)
            / statistics.median(walls),
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "virtual": outcomes[0].virtual,
    }
    if trace:
        traced_passes = [(p, o) for p, o in zip(passes, outcomes) if p["traced"]]
        traced_walls = [p["wall_s"] for p, _ in traced_passes]
        program = {
            k: statistics.fmean(o.program[k] for _, o in traced_passes)
            for k in traced_passes[0][1].program
        }
        result["per_layer"] = layer_metrics(
            ledger,
            traced_wall_s=sum(traced_walls),
            passes=len(traced_passes),
            requests=sum(o.ok for _, o in traced_passes),
            program=program,
            trace_overhead=statistics.median(traced_walls) / statistics.median(walls) - 1,
        )
        if chrome_path:
            write_chrome_trace(ledger, chrome_path)
    return result


def final_line(result: Dict, spec: Dict) -> Dict:
    """The contract's last line: exactly the metrics ``BENCHMARK.json`` names."""
    if result["trace"]:
        names, values = spec["per_layer"], result["per_layer"]
    else:
        names, values = spec["end_to_end"], result["host"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }


def describe(result: Dict, spec: Dict) -> List[str]:
    """Human-readable lines: every metric by name, value and unit."""
    from layers import PER_LAYER_UNITS
    from workloads import EXACT_METRICS

    untraced = [p for p in result["passes"] if not p["traced"]]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  "
        f"passes {len(result['passes'])} ({len(untraced)} untraced)  "
        f"requests/pass {untraced[0]['ok']}",
        "end-to-end (host; median over untraced passes, [q1, q3])",
    ]
    series = {
        "wall_s": [p["wall_s"] for p in untraced],
        "setup_s": [p["setup_s"] for p in result["passes"]],
    }
    for m in spec["end_to_end"]:
        name = m["name"]
        spread = ""
        if name in series:
            q1, _, q3 = quartiles(series[name])
            spread = f"  [{q1:.6g}, {q3:.6g}]"
        lines.append(f"  {name:<24} {result['host'][name]:>14.6g} {m['unit']}{spread}")
    lines.append("exact (virtual time, identical on every pass)")
    for name, value in result["virtual"].items():
        lines.append(f"  {name:<24} {value:>14.10g} {EXACT_METRICS[name][0]}")
    if result["trace"]:
        lines.append("per layer (traced passes; times and counts per pass)")
        for name, value in result["per_layer"].items():
            lines.append(f"  {name:<36} {value:>14.6g} {PER_LAYER_UNITS[name]}")
    lines.append("checks: " + ("ok" if result["correct"] else "; ".join(result["errors"])))
    if result["inexact_outputs"]:
        lines.append(f"  {result['inexact_outputs']} accumulator output(s) matched the "
                     "reference within rtol 1e-12 (replay reorders the sum)")
    return lines


# ----------------------------------------------------------------------
# sweep: every workload, repeated, each run in a fresh subprocess
# ----------------------------------------------------------------------
def _child(name: str, args, *, trace: bool, out: Path) -> Dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if trace else "0", "-o", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    if not out.is_file():
        raise SystemExit(f"bench: {name} run exited {proc.returncode} without a result")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    result["elapsed_s"] = elapsed
    result["exit_code"] = proc.returncode
    status = "ok" if proc.returncode == 0 else f"FAILED ({proc.returncode})"
    print(f"  {name:<16} {'traced' if trace else 'run':<6} {elapsed:6.1f}s  {status}",
          flush=True)
    return result


def summarize(runs: List[Dict], spec: Dict) -> Dict[str, Dict]:
    out = {}
    for m in spec["end_to_end"]:
        values = [r["host"][m["name"]] for r in runs]
        q1, med, q3 = quartiles(values)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"]}
    return out


def sweep(args) -> int:
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    out_path = Path(args.output).resolve()
    data = {"env": env_info(), "seed": args.seed, "seconds": args.seconds,
            "repeat": args.repeat, "workloads": {}}
    failed = False
    with tempfile.TemporaryDirectory(dir=out_path.parent) as tmp:
        for name in names:
            runs = [
                _child(name, args, trace=False, out=Path(tmp) / f"{name}-{i}.json")
                for i in range(args.repeat)
            ]
            entry = {"runs": runs, "summary": summarize(runs, spec), "traced": None}
            if args.traced:
                traced_out = Path(tmp) / f"{name}-traced.json"
                entry["traced"] = _child(name, args, trace=True, out=traced_out)
                trace_file = traced_out.with_suffix(".trace.json")
                if trace_file.is_file():
                    shutil.move(str(trace_file),
                                str(out_path.with_suffix(f".{name}.trace.json")))
            done = runs + ([entry["traced"]] if entry["traced"] else [])
            failed |= any(r["exit_code"] for r in done)
            data["workloads"][name] = entry
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
    for name, entry in data["workloads"].items():
        for metric, s in entry["summary"].items():
            print(f"{name:<16} {metric:<16} {s['median']:>12.6g} "
                  f"[{s['q1']:.6g}, {s['q3']:.6g}] {s['unit']}")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# compare two sweeps
# ----------------------------------------------------------------------
def _load_runs(path: str) -> Dict[str, List[Dict]]:
    """Runs per workload; a baseline file's ``sets`` are pooled."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    runs: Dict[str, List[Dict]] = {}
    for one in data.get("sets", [data]):
        for name, entry in one["workloads"].items():
            runs.setdefault(name, []).extend(entry["runs"])
    return runs


def host_verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    """Verdict for one metric on one workload.

    ``better``: every change run beats every parent run, or the change
    wins nine tenths of all run pairs and the medians differ by more
    than the parent's quartile spread.  ``worse``: the median moved the
    wrong way by more than ``bound``.  ``unresolved``: the run-to-run
    spread (quartile distance over median) is wider than the bound, so
    a difference within it cannot be told from noise.
    """
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse_by = sign * (cm - pm) / pm
    gain_beyond_noise = -worse_by * pm > p3 - p1
    beats = [sign * (c - p) < 0 for c in change for p in parent]
    if max((p3 - p1) / pm, (c3 - c1) / cm) > bound:
        if all(beats):
            return "better" if gain_beyond_noise else "unchanged"
        if worse_by > bound and not any(beats):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if sum(beats) >= 0.9 * len(beats) and gain_beyond_noise:
        return "better"
    return "unchanged"


def exact_verdict(parent: List[float], change: List[float], better: str) -> str:
    if len(set(parent)) > 1 or len(set(change)) > 1:
        return "unresolved"  # an exact metric varied between runs of one side
    p, c = parent[0], change[0]
    if math.isclose(p, c, rel_tol=1e-9, abs_tol=1e-15):
        return "unchanged"
    return "better" if (c < p) == (better == "lower") else "worse"


def compare(parent_path: str, change_path: str) -> int:
    from workloads import EXACT_METRICS

    spec = load_spec()
    parent, change = _load_runs(parent_path), _load_runs(change_path)
    order = [w["name"] for w in spec["workloads"]]
    regressions = 0
    print(f"{'workload':<16} {'metric':<22} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'unit':<10} verdict")
    for name in [w for w in order if w in parent and w in change]:
        rows = []
        for m in spec["end_to_end"]:
            p = [r["host"][m["name"]] for r in parent[name]]
            c = [r["host"][m["name"]] for r in change[name]]
            rows.append((m["name"], p, c, m["unit"],
                         host_verdict(p, c, m["better"], m["bound"])))
        for metric, (unit, better) in EXACT_METRICS.items():
            if metric not in parent[name][0]["virtual"]:
                continue
            p = [r["virtual"][metric] for r in parent[name]]
            c = [r["virtual"][metric] for r in change[name]]
            rows.append((metric, p, c, unit, exact_verdict(p, c, better)))
        for metric, p, c, unit, verdict in rows:
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            regressions += verdict == "worse"
            print(f"{name:<16} {metric:<22} "
                  f"{f'{pm:.6g} [{p1:.6g}, {p3:.6g}]':<34} "
                  f"{f'{cm:.6g} [{c1:.6g}, {c3:.6g}]':<34} {unit:<10} {verdict}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cap_threads()
    use_source_tree()
    spec = load_spec()
    workload_names = [w["name"] for w in spec["workloads"]]

    if argv[:1] == ["compare"]:
        ap = argparse.ArgumentParser(prog="bench/run.py compare")
        ap.add_argument("parent")
        ap.add_argument("change")
        args = ap.parse_args(argv[1:])
        return compare(args.parent, args.change)

    if argv[:1] == ["sweep"]:
        ap = argparse.ArgumentParser(prog="bench/run.py sweep")
        ap.add_argument("--workload", action="append", choices=workload_names)
        ap.add_argument("--seed", type=int, default=1)
        ap.add_argument("--repeat", type=int, default=5)
        ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
        ap.add_argument("--traced", action="store_true")
        ap.add_argument("-o", "--output", required=True)
        return sweep(ap.parse_args(argv[1:]))

    ap = argparse.ArgumentParser(prog="bench/run.py")
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="scaled-down inputs for the self-tests")
    ap.add_argument("-o", "--output")
    args = ap.parse_args(argv)
    chrome = None
    if args.output and args.trace:
        chrome = str(Path(args.output).with_suffix(".trace.json"))
    result = measure(args.workload, args.seed, args.seconds, trace=bool(args.trace),
                     quick=args.quick, chrome_path=chrome)
    result["env"] = env_info()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    for line in describe(result, spec):
        print(line)
    print(json.dumps(final_line(result, spec)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
