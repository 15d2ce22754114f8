"""Retired commands leave no reference cycles behind.

Retirement drops every container a command no longer needs (its record
list, drained waiter and dependent lists, its payload and corruption
sink), so the ``cmd._records <-> tok.recorded_by`` cycle never forms, a
dropped result is freed by reference counting alone and a retired
command pins none of its issuer's state.  These tests run with the
cyclic collector disabled, drop the results, and check that a
``gc.DEBUG_SAVEALL`` collection finds no :class:`Command` or
:class:`EventToken` among the garbage.  A simulator that recycles keeps
the drained lists for its pooled objects instead; the last two tests
pin that reuse.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.apps import conv3d as cv
from repro.apps import matmul as mm
from repro.apps import qcd as qc
from repro.apps import stencil as st
from repro.apps.common import new_runtime
from repro.core.autotune import autotune
from repro.core.executor import PipelineIssuer, execute_pipeline
from repro.kernels.conv3d import Conv3dKernel
from repro.kernels.matmul import MatmulChunkKernel
from repro.kernels.qcd import DslashKernel
from repro.kernels.stencil3d import StencilKernel
from repro.serve import DevicePool, RegionScheduler
from repro.serve.workload import random_workload
from repro.sim.engine import (
    _COMMAND_POOL,
    _TOKEN_POOL,
    Command,
    EventToken,
    Simulator,
)
from repro.sim.stream import SimStream


def _conv3d(virtual=True):
    cfg = cv.Conv3dConfig(nz=10, ny=16, nx=16)
    return cv.make_region(cfg), cv.make_arrays(cfg, virtual=virtual), Conv3dKernel(cfg.ny, cfg.nx)


def _stencil(virtual=True):
    cfg = st.StencilConfig(nz=10, ny=16, nx=16, iters=1)
    return st.make_region(cfg), st.make_arrays(cfg, virtual=virtual), StencilKernel(cfg.ny, cfg.nx)


def _qcd(virtual=True):
    cfg = qc.QcdConfig(n=6)
    return (
        qc.make_region(cfg), qc.make_arrays(cfg, virtual=virtual),
        DslashKernel(cfg.n, cfg.n, cfg.n),
    )


def _matmul(virtual=True):
    cfg = mm.MatmulConfig(n=96, block=16)
    return (
        mm.make_region(cfg), mm.make_arrays(cfg, virtual=virtual),
        MatmulChunkKernel(cfg.n, cfg.block),
    )


APPS = {"conv3d": _conv3d, "stencil": _stencil, "qcd": _qcd, "matmul": _matmul}


def _pipeline(app, observer=None, virtual=True):
    region, arrays, kernel = APPS[app](virtual)
    rt = new_runtime("k40m", virtual=virtual)
    rt.device.sim.observer = observer
    return execute_pipeline(rt, region.plan_for(rt, arrays), arrays, kernel)


def _retired(app, virtual=True):
    """Run ``app``'s pipeline; returns the result and, per retired
    command, the command and the tokens it waited on (the region's end
    folds commands into timeline rows and clears their ``wait_toks``)."""
    seen = []
    res = _pipeline(app, lambda cmd: seen.append((cmd, cmd.wait_toks)), virtual)
    return res, seen


def _autotune():
    region, arrays, kernel = _stencil()
    return autotune(
        region.bind(arrays), new_runtime("k40m", virtual=True), arrays, kernel
    )


def _sharded():
    region, arrays, kernel = _conv3d()
    return region.run(None, arrays, kernel, devices=2)


def _cyclic_garbage(work):
    """Types of the objects only the cyclic collector could free after
    ``work()`` ran and its result was dropped."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = work()
        assert result is not None
        del result
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return {type(o) for o in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize(
    "work",
    [*(lambda app=app: _pipeline(app) for app in APPS), _autotune, _sharded],
    ids=[*(f"pipeline-{app}" for app in APPS), "autotune", "sharded-2"],
)
def test_dropped_results_leave_no_command_cycles(work):
    leaked = _cyclic_garbage(work)
    assert Command not in leaked
    assert EventToken not in leaked


@pytest.mark.parametrize("app", sorted(APPS))
def test_retired_command_holds_no_containers(app):
    """Virtual and real arrays: only a real run's commands carry
    payloads (the closures that move the data)."""
    for virtual in (True, False):
        res, retired = _retired(app, virtual)
        assert retired and len(retired) == len(res.timeline)
        _check_retired(retired)


def test_real_runs_enqueue_payloads(monkeypatch):
    """The real runs above do give their commands payloads, so their
    retirement has payloads to drop."""
    carried = []
    enqueue = Simulator.enqueue

    def spy(self, cmd, **kw):
        carried.append(cmd.payload is not None)
        return enqueue(self, cmd, **kw)

    monkeypatch.setattr(Simulator, "enqueue", spy)
    _pipeline("stencil", virtual=False)
    assert any(carried)


def test_real_serve_keeps_no_issuer_alive(monkeypatch):
    """A serve keeps its retired commands on the pool's devices, so a
    command that kept its payload would keep the payload's issuer, with
    its rings and residents, alive for the rest of the run."""
    issuers = []
    init = PipelineIssuer.__init__

    def spy(self, *args, **kw):
        issuers.append(weakref.ref(self))
        init(self, *args, **kw)

    monkeypatch.setattr(PipelineIssuer, "__init__", spy)
    pool = DevicePool("k40m", virtual=False)
    sched = RegionScheduler(pool)
    sched.submit_all(random_workload(seed=0, n=6, virtual=False))
    assert sched.run().ok
    gc.collect()
    assert issuers
    assert any(rt.device.sim.completed for rt in pool.runtimes)
    assert [ref for ref in issuers if ref() is not None] == []


def _check_retired(retired):
    containers = (list, set, frozenset, dict)
    for cmd, waits in retired:
        assert cmd.done
        assert cmd.sink is None
        assert cmd.payload is None
        for slot in Command.__slots__:
            value = getattr(cmd, slot)
            assert not isinstance(value, containers), (cmd, slot)
        for tok in waits:
            assert tok._waiters == ()
            assert tok.recorded_by is not None


def _round(sim, acquire):
    """One enqueue/drain segment of h2d -> kernel -> d2h chunks on three
    streams; returns the retired schedule."""
    new_cmd = Command.acquire if acquire else Command
    new_tok = EventToken.acquire if acquire else EventToken
    streams = [SimStream(f"s{i}") for i in range(3)]
    for i in range(64):
        st = streams[i % 3]
        h, k = new_tok("h2d"), new_tok("kernel")
        sim.enqueue(new_cmd("h2d", "dma0", 1e-6, stream=st), records=(h,))
        sim.enqueue(
            new_cmd("kernel", "compute0", 2e-6 + i * 1e-8, stream=st),
            waits=(h,), records=(k,),
        )
        sim.enqueue(new_cmd("d2h", "dma0", 1e-6, stream=st), waits=(k,))
    sim.run_all()
    return [(c.kind, c.start_time, c.finish_time) for c in sim.completed]


def _two_engines():
    sim = Simulator()
    sim.add_engine("dma0")
    sim.add_engine("compute0")
    return sim


def test_recycling_rounds_match_a_plain_run():
    """Rounds driven on recycled objects (and the drained lists retirement
    keeps for them) schedule exactly like freshly constructed ones."""
    recycled, plain = _two_engines(), _two_engines()
    for _ in range(4):
        assert _round(recycled, True) == _round(plain, False)
        recycled.recycle_completed()
        plain.completed.clear()
    pooled = [*_COMMAND_POOL, *_TOKEN_POOL]
    lists = [c._dependents for c in _COMMAND_POOL]
    lists += [c._records for c in _COMMAND_POOL]
    lists += [t._waiters for t in _TOKEN_POOL]
    assert pooled
    assert all(type(x) is list and not x for x in lists)
    assert len({id(x) for x in lists}) == len(lists)


def test_steady_recycling_allocates_no_containers():
    """Once a simulator has recycled, a round hands the lists retirement
    drained back to the pooled objects instead of allocating new ones."""
    sim = _two_engines()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            _round(sim, True)
            sim.recycle_completed()
        _round(sim, True)
        before = gc.get_count()[0]
        sim.recycle_completed()
        # 192 commands and 128 tokens: a fresh list per pooled object
        # would show up as hundreds of allocations
        assert gc.get_count()[0] - before < 32
    finally:
        if was_enabled:
            gc.enable()
