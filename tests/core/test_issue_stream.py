"""The issued command stream, frozen.

Every device command a region enqueues is reduced to one fingerprint:
kind, engine, stream, label, ``repr`` of its enqueue/start/finish
times, bytes, chunk, the labels of the commands that recorded the
tokens it waited on, and which of those waits carry fault poison.  Each
scenario hashes its fingerprints (in enqueue order) into one sha256
checked in under ``tests/golden/issue_stream.json``, so any change to
what the issuer enqueues, in what order, with which dependencies, or
when it runs shows up here.  The golden Chrome traces pin the traced
stream; these pin the untraced one, and check that attaching
:class:`~repro.obs.Observability` leaves it unchanged.

The autotune scenario hashes the search's outcome (best candidate and
the full candidate list) instead, because a search's dry runs are
priced by the analytic model and issue no commands.

An intentional schedule change regenerates the file with::

    PYTHONPATH=src python -m tests.core.test_issue_stream
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np
import pytest

from repro.apps import conv3d as cv
from repro.apps import matmul as mm
from repro.apps import qcd as qc
from repro.apps import stencil as st
from repro.apps.common import new_runtime
from repro.core.autotune import autotune
from repro.core.executor import PipelineIssuer
from repro.core.kernel import make_kernel
from repro.core.region import TargetRegion
from repro.directives.clauses import Loop
from repro.faults import fault_profile
from repro.faults.policy import FaultPolicy
from repro.kernels.conv3d import Conv3dKernel
from repro.kernels.matmul import MatmulChunkKernel
from repro.kernels.qcd import DslashKernel
from repro.kernels.stencil3d import StencilKernel
from repro.obs import Observability
from repro.sim.engine import Simulator
from repro.sim.varray import VirtualArray

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "issue_stream.json"


def _stencil(virtual=True, **kw):
    cfg = st.StencilConfig(nz=10, ny=16, nx=16, iters=1, **kw)
    return st.make_region(cfg), st.make_arrays(cfg, virtual=virtual), StencilKernel(cfg.ny, cfg.nx)


def _long_stencil(virtual):
    """511 chunks of two planes each on two streams (ring capacity 4)."""
    cfg = st.StencilConfig(nz=1024, ny=16, nx=16, iters=1, chunk_size=2, num_streams=2)
    return st.make_region(cfg), st.make_arrays(cfg, virtual=virtual), StencilKernel(cfg.ny, cfg.nx)


def _conv3d(virtual=True, **kw):
    cfg = cv.Conv3dConfig(nz=10, ny=16, nx=16, **kw)
    return cv.make_region(cfg), cv.make_arrays(cfg, virtual=virtual), Conv3dKernel(cfg.ny, cfg.nx)


def _matmul(virtual=True):
    cfg = mm.MatmulConfig(n=96, block=16)
    return (
        mm.make_region(cfg), mm.make_arrays(cfg, virtual=virtual),
        MatmulChunkKernel(cfg.n, cfg.block),
    )


def _qcd(virtual=True):
    cfg = qc.QcdConfig(n=6)
    return qc.make_region(cfg), qc.make_arrays(cfg, virtual=virtual), DslashKernel(cfg.n, cfg.n, cfg.n)


def _tofrom():
    """An in-place update with a halo, ``A[k] <- A[k-1..k+1]``: 22 chunks
    on two streams through a 7-plane ring, so every input transfer after
    the first lap overwrites planes an earlier chunk drained."""
    region = TargetRegion.parse(
        "pipeline(static[1,2]) pipeline_map(tofrom: A[k-1:3][0:16][0:16])",
        loop=Loop("k", 1, 23),
    )
    kernel = make_kernel(
        lambda profile, t0, t1: (t1 - t0) * 2e-5, lambda views, t0, t1: None,
        name="tofrom",
    )
    return region, {"A": VirtualArray((24, 16, 16), np.float32)}, kernel


def _run(setup, *, virtual=True, faults=None, **run_kw):
    def scenario(obs):
        region, arrays, kernel = setup()
        rt = new_runtime("k40m", virtual=virtual, obs=obs)
        if faults is not None:
            rt.install_faults(faults)
        return region.run(rt, arrays, kernel, **run_kw)

    return scenario


def _sharded(obs, **run_kw):
    region, arrays, kernel = _conv3d()
    if obs is None:
        return region.run(None, arrays, kernel, devices=2, **run_kw)
    devices = [new_runtime("k40m", virtual=True, obs=obs) for _ in range(2)]
    return region.run(None, arrays, kernel, devices=devices, **run_kw)


def _autotune(obs):
    region, arrays, kernel = _stencil(num_streams=2)
    return autotune(
        region.bind(arrays), new_runtime("k40m", virtual=True, obs=obs), arrays,
        kernel,
    )


#: name -> runner taking the (optional) Observability to attach
SCENARIOS: Dict[str, Callable[[Optional[Observability]], object]] = {
    "conv3d": _run(_conv3d),
    "matmul": _run(_matmul),
    "qcd": _run(_qcd),
    "stencil": _run(_stencil),
    "stencil-duplicate": _run(lambda: _stencil(halo_mode="duplicate")),
    "stencil-adaptive": _run(lambda: _stencil(schedule="adaptive")),
    "matmul-pipelined": _run(_matmul, model="pipelined"),
    # the hand-pipelined model's own dedup and duplicate halo books
    "stencil-pipelined": _run(_stencil, model="pipelined"),
    "stencil-pipelined-duplicate": _run(
        lambda: _stencil(halo_mode="duplicate"), model="pipelined"
    ),
    "stencil-checksum": _run(
        lambda: _stencil(virtual=False), virtual=False, integrity="checksum"
    ),
    "conv3d-vote": _run(
        lambda: _conv3d(virtual=False), virtual=False, integrity="vote"
    ),
    # many laps around a small ring: slot-reuse waits on verify readers
    "stencil-checksum-long": _run(
        lambda: _long_stencil(virtual=True), integrity="checksum"
    ),
    # vote readers of every range on the same small ring
    "stencil-vote-long": _run(
        lambda: _long_stencil(virtual=True), integrity="vote"
    ),
    # a tofrom array: its output slot waits on drains and readers both
    "matmul-checksum": _run(_matmul, integrity="checksum"),
    # a pipelined tofrom array over many laps: each transfer into a slot
    # waits on the previous lap's drain of it
    "tofrom-long": _run(_tofrom),
    "stencil-transient": _run(
        lambda: _stencil(virtual=False), virtual=False,
        faults=fault_profile("transient", 7),
        fault_policy=FaultPolicy(max_retries=8),
    ),
    "conv3d-2shard": _sharded,
    # halo transfers across the shard seam are checked as such
    "conv3d-2shard-checksum": lambda obs: _sharded(obs, integrity="checksum"),
    "autotune-stencil": _autotune,
}


def _fingerprint(cmd, waits, poison) -> list:
    return [
        cmd.kind,
        cmd.engine,
        None if cmd.stream is None else cmd.stream.name,
        cmd.label,
        repr(cmd.enqueue_time),
        repr(cmd.start_time),
        repr(cmd.finish_time),
        cmd.nbytes,
        cmd.chunk,
        [None if t.recorded_by is None else t.recorded_by.label for t in waits],
        poison,
    ]


def capture(name: str, obs: Optional[Observability] = None) -> dict:
    """Run one scenario; returns its digest: the sha256 of its rows and
    their count (one row per command, or per autotune candidate)."""
    issued: List[tuple] = []
    real_enqueue = Simulator.enqueue

    def enqueue(self, cmd, *, waits=(), poison_waits=None, **kw):
        waits = tuple(waits)
        if poison_waits is None:
            poison = [True] * len(waits)
        else:
            poison_waits = tuple(poison_waits)
            ids = {id(t) for t in poison_waits}
            poison = [id(t) in ids for t in waits]
        # the waits as enqueued: compaction cuts ``wait_toks`` at region end
        issued.append((cmd, waits, poison))
        return real_enqueue(self, cmd, waits=waits, poison_waits=poison_waits, **kw)

    Simulator.enqueue = enqueue
    try:
        result = SCENARIOS[name](obs)
    finally:
        Simulator.enqueue = real_enqueue
    if name.startswith("autotune"):
        rows = [repr(result.best), *(repr(c) for c in result.candidates)]
    else:
        rows = [_fingerprint(*entry) for entry in issued]
    text = json.dumps(rows, separators=(",", ":"))
    return {"commands": len(rows), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _golden() -> dict:
    assert GOLDEN.exists(), f"missing {GOLDEN}; see the module docstring"
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_issue_stream_matches_golden(name):
    assert capture(name) == _golden()[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_observability_leaves_issue_stream_unchanged(name):
    assert capture(name, Observability()) == _golden()[name]


def test_fault_and_integrity_scenarios_do_real_work():
    """The fault and integrity scenarios exercise their paths at all."""
    res = SCENARIOS["stencil-transient"](None)
    assert res.faults > 0 and res.retries > 0
    assert SCENARIOS["stencil-checksum"](None).verified > 0
    assert SCENARIOS["conv3d-vote"](None).verified > 0


def test_long_checksum_run_keeps_books_bounded():
    """Verify readers are pruned on output-only arrays too: over 511
    chunks every event book stays within twice its ring capacity (the
    scenario's command stream is pinned above)."""
    region, arrays, kernel = _long_stencil(virtual=True)
    rt = new_runtime("k40m", virtual=True)
    issuer = PipelineIssuer(
        rt, region.plan_for(rt, arrays), arrays, kernel, integrity="checksum"
    )
    issuer.open()
    assert issuer.remaining >= 500
    peak = {}
    while issuer.issue_next() is not None:
        for var, book in issuer.books.items():
            for name in ("h2d", "readers", "d2h"):
                key = (var, name)
                peak[key] = max(peak.get(key, 0), len(getattr(book, name)))
    rt.synchronize()
    issuer.finalize()
    for (var, name), n in peak.items():
        assert n <= 2 * issuer.rings[var].capacity, (var, name, n)
    assert peak["Anext", "readers"] > 0


if __name__ == "__main__":
    out = {name: capture(name) for name in sorted(SCENARIOS)}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(out)} scenarios)")
