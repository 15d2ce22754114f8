"""The benchmark's four workloads.

Every workload is an offline batch: all requests are submitted before
``run()`` at virtual t=0, with no host-time arrival schedule, and
throughput is reported at the stated input size.  A workload is split
into three steps so the harness can time them apart:

* :meth:`Workload.setup` builds one pass's inputs — requests and
  arrays, the device pool, the scheduler, ``submit_all`` — and is timed
  as ``setup_s``;
* :meth:`Workload.run` is the timed phase (``wall_s``);
* :meth:`Workload.outcome` checks the results and reads the virtual
  metrics, outside any timing.

Each pass rebuilds the same inputs from the seed, so every pass of a
run must produce the byte-identical virtual result; the harness checks
that.  The request mixes are *stratified*: the multiset of request
shapes is fixed and the seed draws order, priorities and fault
timelines.  On a 2-core x86-64 host, a mix drawn shape by shape
(``random_workload``) moved the serve wall by 24% (quartile spread over
ten seeds, 400 requests), more than any bound a change could be judged
against; the stratified mix moved it by 6% and the virtual makespan by
0.02%.

The request shapes are the benchmark's own constants, not imported
from the program, so a change to the program's generators cannot
silently change what the benchmark measures.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.apps import conv3d as cv
from repro.apps import matmul as mm
from repro.apps import qcd as qc
from repro.apps import stencil as st
from repro.apps.common import new_runtime
from repro.faults.policy import FaultPolicy
from repro.faults.profiles import pool_fault_plans
from repro.kernels.conv3d import Conv3dKernel
from repro.kernels.matmul import MatmulChunkKernel, MatmulWholeKernel
from repro.kernels.qcd import DslashKernel
from repro.kernels.stencil3d import StencilKernel
from repro.obs import Observability
from repro.serve import DevicePool, RegionScheduler, ServeConfig
from repro.serve.workload import build_request

__all__ = ["EXACT_METRICS", "PassOutcome", "WORKLOADS", "Workload"]

#: exact (virtual, deterministic) metrics: unit and direction.  They are
#: printed and saved with every run and compared exactly by ``compare``;
#: the paper figures apply to ``paper_sweep`` only.
EXACT_METRICS: Dict[str, Tuple[str, str]] = {
    "makespan_vs": ("virtual_s", "lower"),
    "latency_p50_vs": ("virtual_s", "lower"),
    "latency_p90_vs": ("virtual_s", "lower"),
    "fail_frac": ("ratio", "lower"),
    "paper_speedup_min": ("x", "higher"),
    "paper_speedup_max": ("x", "higher"),
    "paper_mem_saving_min": ("ratio", "higher"),
    "paper_mem_saving_max": ("ratio", "higher"),
}

#: the ten request shapes of the serve mixes: transfer-heavy
#: stencil/conv3d/qcd and compute-heavy matmul, each small enough that
#: a pass holds hundreds of requests yet large enough that pipelines
#: keep several chunks in flight
MIX_SHAPES: Tuple[Tuple[str, Dict[str, int]], ...] = (
    ("stencil", {"nz": 18, "ny": 48, "nx": 48}),
    ("stencil", {"nz": 26, "ny": 64, "nx": 64}),
    ("stencil", {"nz": 34, "ny": 64, "nx": 64}),
    ("conv3d", {"nz": 18, "ny": 48, "nx": 48}),
    ("conv3d", {"nz": 26, "ny": 64, "nx": 64}),
    ("matmul", {"n": 96, "block": 16}),
    ("matmul", {"n": 128, "block": 16}),
    ("matmul", {"n": 160, "block": 32}),
    ("qcd", {"n": 6}),
    ("qcd", {"n": 7}),
)

TENANTS = 8


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q / 100 * len(ordered), 9)))
    return ordered[rank - 1]


def array_digest(arr: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=16).hexdigest()


def accumulators(request) -> set:
    """Resident arrays the region reads and writes back (``map(tofrom: ...)``)."""
    return {c.var for c in request.region.maps if c.direction == "tofrom"}


def program_metrics(
    runtimes, capacity_s: float, *, journal_bytes: int = 0, injected: int = 0,
    retries: int = 0, chunks: int = 0,
) -> Dict[str, float]:
    """Per-layer values read from one pass's results rather than timed.

    Device utilization is busy virtual time per command kind over
    ``capacity_s`` (makespan x devices, or summed device time).
    """
    busy = {"h2d": 0.0, "d2h": 0.0, "kernel": 0.0}
    for rt in runtimes:
        timeline = rt.timeline()
        for kind in busy:
            busy[kind] += timeline.busy_time(kind)
    return {
        "serve.journal.bytes": float(journal_bytes),
        "faults.injected": float(injected),
        "faults.retries": float(retries),
        "faults.replay_ratio": retries / chunks if chunks else 0.0,
        **{f"sim.device.{k}_util": v / capacity_s for k, v in busy.items()},
    }


@dataclass
class PassOutcome:
    """What one pass produced, read after the timed phase."""

    #: requests (for ``paper_sweep``: region executions) that completed
    ok: int
    attempted: int
    #: canonical JSON of the virtual result; identical on every pass
    digest: str
    #: exact metrics (see :data:`EXACT_METRICS`)
    virtual: Dict[str, float]
    #: per-layer values read from the program's results (traced passes)
    program: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: outputs equal to the reference only within the accumulator tolerance
    inexact: int = 0


class Workload:
    """One set of inputs; subclasses define the three steps."""

    name = ""

    def __init__(self, seed: int, *, quick: bool = False, workdir: str = "") -> None:
        self.seed = seed
        self.quick = quick
        self.workdir = workdir

    def prepare(self) -> None:
        """Untimed one-off work before the first pass."""

    def setup(self):
        raise NotImplementedError

    def run(self, state):
        raise NotImplementedError

    def outcome(self, state, raw, *, traced: bool) -> PassOutcome:
        raise NotImplementedError


# ----------------------------------------------------------------------
# paper_sweep: standalone regions, the paper's figures
# ----------------------------------------------------------------------
GRID_CHUNKS = (1, 2, 4, 8)
GRID_STREAMS = (1, 2, 3, 4, 5)


class PaperSweep(Workload):
    """The headline comparison plus the Fig 4/7/8 pipelined-buffer grid.

    Headline (K40m): 3dconv, stencil and qcd-large under naive,
    pipelined and pipelined-buffer, plus matmul-14336 under its three
    versions.  Grid (K40m and HD7970): chunk {1,2,4,8} x streams {1..5}
    for 3dconv, stencil (one Jacobi sweep; the headline runs the
    default ten) and qcd n=36 under pipelined-buffer.  Virtual
    arrays, a fresh device per execution.  The seed only shuffles the
    execution order, which cannot change any result.
    """

    name = "paper_sweep"

    def _executions(self):
        out = []
        headline = (
            ("3dconv", cv.Conv3dConfig()),
            ("stencil", st.StencilConfig()),
            ("qcd-large", qc.QcdConfig.dataset("large")),
        )
        for app, cfg in headline:
            for model in ("naive", "pipelined", "pipelined-buffer"):
                out.append((f"headline/{app}/{model}", app, "k40m", model, cfg))
        for model in mm.MATMUL_MODELS:
            out.append((f"headline/matmul-14336/{model}", "matmul", "k40m", model,
                        mm.MatmulConfig(n=14336)))
        if self.quick:
            return out
        for dev in ("k40m", "hd7970"):
            for cs in GRID_CHUNKS:
                for ns in GRID_STREAMS:
                    for app, cfg in (
                        ("3dconv", cv.Conv3dConfig(chunk_size=cs, num_streams=ns)),
                        ("stencil", st.StencilConfig(chunk_size=cs, num_streams=ns,
                                                     iters=1)),
                        ("qcd-n36", qc.QcdConfig(n=36, chunk_size=cs, num_streams=ns)),
                    ):
                        out.append((f"grid/{dev}/{app}/c{cs}s{ns}", app, dev,
                                    "pipelined-buffer", cfg))
        return out

    def setup(self):
        execs = self._executions()
        order = np.random.default_rng(self.seed).permutation(len(execs))
        state = []
        for i in order:
            label, app, dev, model, cfg = execs[i]
            sweeps = 1
            if app == "matmul":
                arrays, region = mm.make_arrays(cfg, virtual=True), mm.make_region(cfg)
                if model == "pipeline-buffer":
                    kernel, run_model = MatmulChunkKernel(cfg.n, cfg.block), "buffer"
                else:
                    kernel = MatmulWholeKernel(cfg.n, variant=model, trips=cfg.nblocks)
                    run_model = "naive"
            elif app == "stencil":
                arrays, region = st.make_arrays(cfg, virtual=True), st.make_region(cfg)
                kernel, run_model, sweeps = StencilKernel(cfg.ny, cfg.nx), model, cfg.iters
            elif app == "3dconv":
                arrays, region = cv.make_arrays(cfg, virtual=True), cv.make_region(cfg)
                kernel, run_model = Conv3dKernel(cfg.ny, cfg.nx), model
            else:
                arrays, region = qc.make_arrays(cfg, virtual=True), qc.make_region(cfg)
                kernel, run_model = DslashKernel(cfg.n, cfg.n, cfg.n), model
            rt = new_runtime(dev, virtual=True)
            state.append((label, rt, region, arrays, kernel, run_model, sweeps))
        return state

    def run(self, state):
        results = {}
        for label, rt, region, arrays, kernel, model, sweeps in state:
            runs = []
            for _ in range(sweeps):
                runs.append(region.run(rt, arrays, kernel, model=model))
                if sweeps > 1:  # the stencil's Jacobi sweeps swap grids
                    arrays["A0"], arrays["Anext"] = arrays["Anext"], arrays["A0"]
            results[label] = runs
        return results

    def outcome(self, state, raw, *, traced: bool) -> PassOutcome:
        rows = {
            label: (
                sum(r.elapsed for r in runs),
                max(r.memory_peak for r in runs),
                max(r.data_peak for r in runs),
            )
            for label, runs in sorted(raw.items())
        }
        nruns = sum(len(runs) for runs in raw.values())
        speedups, savings = [], []
        for app in ("3dconv", "stencil", "qcd-large"):
            naive, buf = rows[f"headline/{app}/naive"], rows[f"headline/{app}/pipelined-buffer"]
            speedups.append(naive[0] / buf[0])
            savings.append(1.0 - buf[1] / naive[1])
        mm_shared = rows["headline/matmul-14336/block_shared"]
        mm_buf = rows["headline/matmul-14336/pipeline-buffer"]
        savings.append(1.0 - mm_buf[1] / mm_shared[1])
        errors = []
        if not all(1.30 <= s <= 1.85 for s in speedups):
            errors.append(f"paper speedups {speedups} outside 1.30-1.85x")
        if min(savings) < 0.35 or max(savings) < 0.90:
            errors.append(f"paper memory savings {savings}: need min >= 0.35, max >= 0.90")
        elapsed = [r[0] for r in rows.values()]
        out = PassOutcome(
            ok=nruns,
            attempted=nruns,
            digest=json.dumps(rows, sort_keys=True),
            virtual={
                "makespan_vs": sum(elapsed),
                "latency_p50_vs": percentile(elapsed, 50),
                "latency_p90_vs": percentile(elapsed, 90),
                "fail_frac": 0.0,
                "paper_speedup_min": min(speedups),
                "paper_speedup_max": max(speedups),
                "paper_mem_saving_min": min(savings),
                "paper_mem_saving_max": max(savings),
            },
            errors=errors,
        )
        if traced:
            runtimes = [rt for _label, rt, *_rest in state]
            out.program = program_metrics(runtimes, sum(rt.elapsed for rt in runtimes))
        return out


# ----------------------------------------------------------------------
# the serve workloads
# ----------------------------------------------------------------------
def stratified_mix(seed: int, n: int, *, virtual: bool, shards_every: int = 0):
    """``n`` requests cycling through :data:`MIX_SHAPES` equally often.

    The seed draws the submission order and the priorities (0-2).
    With ``shards_every = k``, every k-th request asks for two shards.
    """
    rng = np.random.default_rng(seed)
    order = np.resize(np.arange(len(MIX_SHAPES)), n)
    rng.shuffle(order)
    priorities = rng.integers(0, 3, size=n)
    return [
        build_request(
            MIX_SHAPES[s][0],
            tenant=f"tenant{k % TENANTS}",
            priority=int(p),
            config=dict(MIX_SHAPES[s][1]),
            virtual=virtual,
            shards=2 if shards_every and k % shards_every == shards_every - 1 else 1,
        )
        for k, (s, p) in enumerate(zip(order, priorities))
    ]


def cold_plan_shapes(n: int) -> List[Tuple[str, Dict[str, int]]]:
    """``n`` request shapes whose structural plan-cache keys all differ.

    Stencil and conv3d vary the pipelined extent, matmul the matrix
    size, qcd the lattice size and the pragma's chunk size (both enter
    the key).
    """
    out = []
    for i in range(n):
        app, j = ("stencil", "conv3d", "qcd", "matmul")[i % 4], i // 4
        if app in ("stencil", "conv3d"):
            out.append((app, {"nz": 12 + j, "ny": 32, "nx": 32}))
        elif app == "qcd":
            out.append((app, {"n": 5 + j % 5, "chunk_size": 1 + j // 5}))
        else:
            out.append((app, {"n": 64 + 16 * j, "block": 16}))
    return out


class _Serve(Workload):
    """Shared timed phase and outcome reading for the scheduler workloads."""

    def run(self, state):
        return state["sched"].run()

    def outcome(self, state, raw, *, traced: bool) -> PassOutcome:
        report = raw
        results = report.results
        ok = sum(1 for r in results if r.ok)
        latencies = [r.latency for r in results if r.ok]
        out = PassOutcome(
            ok=ok,
            attempted=len(results),
            digest=json.dumps(report.to_dict(), sort_keys=True),
            virtual={
                "makespan_vs": report.makespan,
                "latency_p50_vs": percentile(latencies, 50),
                "latency_p90_vs": percentile(latencies, 90),
                "fail_frac": (len(results) - ok) / len(results),
            },
        )
        if ok != len(results):
            bad = [f"{r.request_id}:{r.status}" for r in results if not r.ok]
            out.errors.append(f"{len(bad)} request(s) did not complete: {bad[:5]}")
        if traced:
            out.program = self._program(state, report)
        return out

    def _program(self, state, report) -> Dict[str, float]:
        pool = state["pool"]
        return program_metrics(
            pool.runtimes,
            report.makespan * len(pool),
            journal_bytes=self._journal_bytes(state),
            injected=sum(
                inj.fault_count + inj.silent_faults
                for inj in pool.injectors if inj is not None
            ),
            retries=report.retries,
            chunks=sum(r.nchunks for r in report.results),
        )

    def _journal_bytes(self, state) -> int:
        return 0


class ServeBacklog(_Serve):
    """A deep queue of repeated shapes on one K40m, default config."""

    name = "serve_backlog"

    def setup(self):
        requests = stratified_mix(self.seed, 60 if self.quick else 600, virtual=True)
        pool = DevicePool("k40m")
        sched = RegionScheduler(pool, ServeConfig())
        sched.submit_all(requests)
        return {"pool": pool, "sched": sched}


class ServeColdPlan(_Serve):
    """Every request a plan-cache miss, so autotune dry runs dominate."""

    name = "serve_cold_plan"

    def setup(self):
        shapes = cold_plan_shapes(16 if self.quick else 150)
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(len(shapes))
        priorities = rng.integers(0, 3, size=len(shapes))
        requests = [
            build_request(shapes[s][0], tenant=f"tenant{k % TENANTS}",
                          priority=int(p), config=dict(shapes[s][1]))
            for k, (s, p) in enumerate(zip(order, priorities))
        ]
        pool = DevicePool("k40m")
        sched = RegionScheduler(pool, ServeConfig())
        sched.submit_all(requests)
        return {"pool": pool, "sched": sched}


class ServeDurable(_Serve):
    """Durable, verified, sharded, faulty, observed serving of real arrays.

    2xK40m pool, every 4th request sharded in two, transient faults
    seeded from the seed, checksum integrity, a write-ahead journal
    with snapshots every 32 records, telemetry with per-tenant SLOs and
    full observability.  The retry budget is sized so every request
    recovers: the workload measures recovery, not failure.
    """

    name = "serve_durable"

    def __init__(self, seed: int, *, quick: bool = False, workdir: str = "") -> None:
        super().__init__(seed, quick=quick, workdir=workdir)
        self.n = 24 if quick else 120
        #: per request, each array's digest after a fault-free run, and
        #: the accumulating residents themselves (see :meth:`check_outputs`)
        self.reference: List[Dict[str, object]] = []

    def _requests(self):
        return stratified_mix(self.seed, self.n, virtual=False, shards_every=4)

    def prepare(self) -> None:
        """The reference: a fault-free, integrity-off run of the same mix."""
        requests = self._requests()
        sched = RegionScheduler(DevicePool("k40m", count=2, virtual=False))
        sched.submit_all(requests)
        if not sched.run().ok:
            raise RuntimeError("the fault-free reference run did not complete")
        self.reference = [
            {var: (array_digest(a), a if var in accumulators(req) else None)
             for var, a in req.arrays.items()}
            for req in requests
        ]

    def check_outputs(self, requests, report) -> Tuple[List[int], int]:
        """``(mismatched request ids, inexact accumulators)`` against the reference.

        Every array must be byte-identical to the fault-free run, except
        that an accumulating resident (``map(tofrom: C)``, matmul's
        ``C += A_k B_k``) may differ within ``rtol=1e-12``: a replayed
        chunk's delta is re-added in another order, which moves the
        last bits of a float64 sum.  Those are counted, not failed.
        """
        mismatched, inexact = [], 0
        for r in report.results:
            if not r.ok:
                continue
            for var, a in requests[r.request_id].arrays.items():
                digest, ref = self.reference[r.request_id][var]
                if array_digest(a) == digest:
                    continue
                if ref is not None and np.allclose(a, ref, rtol=1e-12, atol=0.0):
                    inexact += 1
                else:
                    mismatched.append(r.request_id)
                    break
        return mismatched, inexact

    def setup(self):
        tmp = tempfile.mkdtemp(prefix="durable-", dir=self.workdir)
        requests = self._requests()
        obs = Observability()
        pool = DevicePool("k40m", count=2, virtual=False, obs=obs)
        pool.install_faults(pool_fault_plans("transient", seed=self.seed, count=2))
        config = ServeConfig(
            integrity="checksum",
            journal_path=os.path.join(tmp, "journal.jsonl"),
            snapshot_every=32,
            telemetry=True,
            slos={f"tenant{t}": {"target": 0.99, "latency_s": 0.25}
                  for t in range(TENANTS)},
            fault_policy=FaultPolicy(max_retries=10),
        )
        sched = RegionScheduler(pool, config)
        sched.submit_all(requests)
        return {"pool": pool, "sched": sched, "obs": obs, "requests": requests, "tmp": tmp}

    def run(self, state):
        report = state["sched"].run()
        state["spans"] = len(state["obs"].tracer.spans)
        state["metrics"] = state["obs"].metrics.snapshot()
        return report

    def outcome(self, state, raw, *, traced: bool) -> PassOutcome:
        try:
            out = super().outcome(state, raw, traced=traced)
            mismatched, out.inexact = self.check_outputs(state["requests"], raw)
            if mismatched:
                out.errors.append(
                    f"{len(mismatched)} ok request(s) differ from the fault-free "
                    f"reference: {mismatched[:5]}"
                )
            return out
        finally:
            shutil.rmtree(state["tmp"], ignore_errors=True)

    def _journal_bytes(self, state) -> int:
        total = 0
        for root, _dirs, files in os.walk(state["tmp"]):
            total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
        return total


WORKLOADS = {
    w.name: w for w in (PaperSweep, ServeBacklog, ServeColdPlan, ServeDurable)
}
