"""Differential test: timeline rows equal the commands they were made of.

A device folds its retired commands into columns at region end and
then lets the ``Command`` objects go, so the columns are all post-run
analysis has.  Here the live commands are captured through
``Simulator.observer`` as they retire, together with their
``stream_pred`` and ``wait_toks`` (compaction cuts both), and every row
of the device's timeline is checked against its command: every column
(floats compared by ``float.hex``), the stream predecessor's seq and
the ``(recorder seq, is_data)`` pair of every wait.

Cases: the four apps, chaos (transient faults absorbed by replay),
``integrity="checksum"``, a 3-shard run, and seeded random programs in
the style of ``tests/properties/test_prop_engine.py`` on both engine
kernels, compacted in several batches.
"""

from __future__ import annotations

import random

import pytest

from repro.apps.common import new_runtime
from repro.faults import FaultPolicy, fault_profile
from repro.sim import NVIDIA_K40M, Device
from repro.sim.engine import Command, EventToken, engine_kernel
from repro.sim.stream import SimStream
from repro.sim.trace import Timeline

from tests.integration.test_integrity import _setup
from tests.sim.test_retirement_refs import APPS


def _capture(rt):
    """Record each command ``rt`` retires with its edges, as it retires."""
    seen = []
    rt.device.sim.observer = lambda cmd: seen.append(
        (cmd, cmd.stream_pred, cmd.wait_toks)
    )
    return seen


def _is_data(cmd, tok):
    pw = cmd._poison_waits
    return pw is None or id(tok) in pw


def _check(device, seen, is_data=_is_data):
    rows = device.timeline().rows()
    assert len(rows) == len(seen) > 0
    cols = device._history
    for i, (row, (cmd, pred, waits)) in enumerate(zip(rows, seen)):
        stream = cmd.stream.name if isinstance(cmd.stream, SimStream) else ""
        assert (
            row.kind, row.label, row.engine, row.seq, row.chunk,
            cols.stream[i], cols.nbytes[i],
        ) == (
            cmd.kind, cmd.label, cmd.engine, cmd.seq, cmd.chunk,
            stream, cmd.nbytes,
        ), cmd
        for name in ("enqueue_time", "ready_time", "start_time", "finish_time"):
            assert getattr(row, name).hex() == getattr(cmd, name).hex(), (cmd, name)
        assert row.pred == (-1 if pred is None else pred.seq)
        assert row.waits == tuple(
            (t.recorded_by.seq, is_data(cmd, t))
            for t in waits if t.recorded_by is not None
        )
    # compaction cut the edges that would pin the history
    assert all(c.stream_pred is None and c.wait_toks == () for c, _, _ in seen)
    assert not device.sim.completed


@pytest.mark.parametrize("app", sorted(APPS))
def test_app_rows_match_commands(app):
    region, arrays, kernel = APPS[app]()
    rt = new_runtime("k40m", virtual=True)
    seen = _capture(rt)
    region.run(rt, arrays, kernel)
    _check(rt.device, seen)


def _real(app, faults=None, **kw):
    """One real-array region run at chaos-test sizes, captured."""
    arrays, region, kernel, _ = _setup(app)
    rt = new_runtime("k40m")
    if faults is not None:
        rt.install_faults(faults)
    seen = _capture(rt)
    with rt:
        return rt, seen, region.run(rt, arrays, kernel, **kw)


def test_chaos_rows_match_commands():
    rt, seen, res = _real(
        "conv3d", fault_profile("transient", 3),
        fault_policy=FaultPolicy(max_retries=8),
    )
    assert res.faults > 0
    assert any(c.error is not None for c, _, _ in seen)
    _check(rt.device, seen)


def test_checksum_rows_match_commands():
    rt, seen, res = _real("stencil", integrity="checksum")
    assert res.verified > 0
    _check(rt.device, seen)


def test_sharded_rows_match_commands():
    arrays, region, kernel, _ = _setup("qcd")
    rts = [new_runtime("k40m") for _ in range(3)]
    seens = [_capture(rt) for rt in rts]
    res = region.run(None, arrays, kernel, devices=rts)
    assert len(res.per_device) == 3
    for rt, seen in zip(rts, seens):
        _check(rt.device, seen)


def _program(rng, device, n):
    """``n`` random kernels on ``device``: random engines, streams,
    durations, enqueue times, waits and data/ordering split, chunks;
    compacted every few commands.  Returns what the observer saw and
    each command's data waits."""
    engines = sorted(e.name for e in device.sim.engines)
    streams = [SimStream(f"s{i}") for i in range(rng.randint(1, 4))]
    seen, data_waits, tokens = [], {}, []
    device.sim.observer = lambda cmd: seen.append(
        (cmd, cmd.stream_pred, cmd.wait_toks)
    )
    for i in range(n):
        cmd = Command(
            rng.choice(("h2d", "kernel", "d2h")),
            rng.choice(engines),
            rng.uniform(0, 1e-3),
            stream=rng.choice([None, *streams]),
            label=f"c{i}",
            nbytes=rng.randrange(1 << 20),
        )
        if rng.random() < 0.5:
            cmd.chunk = rng.randrange(8)
        waits = rng.sample(tokens, min(len(tokens), rng.randint(0, 3)))
        data = [t for t in waits if rng.random() < 0.5]
        data_waits[id(cmd)] = {id(t) for t in data}
        tok = EventToken(f"t{i}")
        device.sim.enqueue(
            cmd, enqueue_time=rng.uniform(0, 1e-3), waits=waits, records=[tok],
            poison_waits=data,
        )
        tokens.append(tok)
        if rng.random() < 0.2:
            device.wait_all()
            device.compact()
    device.wait_all()
    return seen, data_waits


@pytest.mark.parametrize("kernel", ("fast", "reference"))
@pytest.mark.parametrize("seed", range(12))
def test_random_program_rows_match_commands(seed, kernel):
    rng = random.Random(seed)
    with engine_kernel(kernel):
        device = Device(NVIDIA_K40M)
    seen, data_waits = _program(rng, device, rng.randint(1, 40))
    _check(device, seen, is_data=lambda cmd, t: id(t) in data_waits[id(cmd)])


def test_wait_on_a_released_token_is_no_edge():
    """A token whose recorder is gone (recycled) reads back as no edge."""
    device = Device(NVIDIA_K40M)
    first, second = EventToken("first"), EventToken("second")
    device.sim.enqueue(Command("h2d", "dma0", 1e-6), records=[first])
    device.sim.enqueue(Command("h2d", "dma0", 1e-6), records=[second])
    waiter = Command("kernel", "compute0", 1e-6)
    device.sim.enqueue(waiter, waits=[first, second])
    device.wait_all()
    first.release()
    rows = device.timeline().rows()
    assert rows[-1].seq == waiter.seq and rows[-1].waits == ((1, True),)


def test_join_spans_adjacent_views_only():
    device = Device(NVIDIA_K40M)
    for _ in range(3):
        device.submit_copy("h2d", 1 << 10, stream=SimStream("s"))
        device.wait_all()
        device.compact()
    parts = [Timeline.view(device._history, i, i + 1) for i in range(3)]
    joined = Timeline.join(parts)
    assert joined.records == device.timeline().records
    assert joined.records == [r for p in parts for r in p.records]
    assert joined.rows() == device.timeline().rows()
    with pytest.raises(ValueError, match="adjacent"):
        Timeline.join([parts[0], parts[2]])
    with pytest.raises(ValueError, match="adjacent"):
        Timeline.join([Timeline([]), Timeline([])])


@pytest.mark.parametrize("app", sorted(APPS))
def test_regions_of_one_shape_share_their_label_objects(app):
    """Labels are interned as they are compacted, so a second region of
    the same shape on the same device adds no label object of its own."""
    region, arrays, kernel = APPS[app]()
    rt = new_runtime("k40m", virtual=True)
    region.run(rt, arrays, kernel)
    first = rt.device.compact()
    region.run(rt, arrays, kernel)
    labels = rt.device._history.label
    assert len(labels) == 2 * first
    assert sorted(labels[first:]) == sorted(labels[:first])
    assert {id(s) for s in labels[first:]} <= {id(s) for s in labels[:first]}
