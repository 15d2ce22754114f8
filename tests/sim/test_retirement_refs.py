"""Retired commands leave no reference cycles behind.

Retirement drops every container a command no longer needs (its record
list, drained waiter and dependent lists, its corruption sink), so the
``cmd._records <-> tok.recorded_by`` cycle never forms and a dropped
result is freed by reference counting alone.  These tests run with the
cyclic collector disabled, drop the results, and check that a
``gc.DEBUG_SAVEALL`` collection finds no :class:`Command` or
:class:`EventToken` among the garbage.  A simulator that recycles keeps
the drained lists for its pooled objects instead; the last two tests
pin that reuse.
"""

from __future__ import annotations

import gc

import pytest

from repro.apps import conv3d as cv
from repro.apps import matmul as mm
from repro.apps import qcd as qc
from repro.apps import stencil as st
from repro.apps.common import new_runtime
from repro.core.autotune import autotune
from repro.core.executor import execute_pipeline
from repro.kernels.conv3d import Conv3dKernel
from repro.kernels.matmul import MatmulChunkKernel
from repro.kernels.qcd import DslashKernel
from repro.kernels.stencil3d import StencilKernel
from repro.sim.engine import (
    _COMMAND_POOL,
    _TOKEN_POOL,
    Command,
    EventToken,
    Simulator,
)
from repro.sim.stream import SimStream


def _conv3d():
    cfg = cv.Conv3dConfig(nz=10, ny=16, nx=16)
    return cv.make_region(cfg), cv.make_arrays(cfg, virtual=True), Conv3dKernel(cfg.ny, cfg.nx)


def _stencil():
    cfg = st.StencilConfig(nz=10, ny=16, nx=16, iters=1)
    return st.make_region(cfg), st.make_arrays(cfg, virtual=True), StencilKernel(cfg.ny, cfg.nx)


def _qcd():
    cfg = qc.QcdConfig(n=6)
    return qc.make_region(cfg), qc.make_arrays(cfg, virtual=True), DslashKernel(cfg.n, cfg.n, cfg.n)


def _matmul():
    cfg = mm.MatmulConfig(n=96, block=16)
    return (
        mm.make_region(cfg), mm.make_arrays(cfg, virtual=True),
        MatmulChunkKernel(cfg.n, cfg.block),
    )


APPS = {"conv3d": _conv3d, "stencil": _stencil, "qcd": _qcd, "matmul": _matmul}


def _pipeline(app, observer=None):
    region, arrays, kernel = APPS[app]()
    rt = new_runtime("k40m", virtual=True)
    rt.device.sim.observer = observer
    return execute_pipeline(rt, region.plan_for(rt, arrays), arrays, kernel)


def _retired(app):
    """Run ``app``'s pipeline; returns the result and, per retired
    command, the command and the tokens it waited on (the region's end
    folds commands into timeline rows and clears their ``wait_toks``)."""
    seen = []
    res = _pipeline(app, lambda cmd: seen.append((cmd, cmd.wait_toks)))
    return res, seen


def _autotune():
    region, arrays, kernel = _stencil()
    return autotune(region, new_runtime("k40m", virtual=True), arrays, kernel)


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
    res, retired = _retired(app)
    assert retired and len(retired) == len(res.timeline)
    containers = (list, set, frozenset, dict)
    for cmd, waits in retired:
        assert cmd.done
        assert cmd.sink is None
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
