"""Differential tests: :meth:`Runtime.enqueue_chunk` against the public calls.

The pipeline issuer enqueues each chunk through one runtime entry
instead of one ``memcpy_*_async``/``launch`` call per command.  The
entry must be the public calls, batched: random op sequences submitted
through it and, op by op, through the public calls on a twin runtime
must give equal commands, host clocks, spans, metrics and (in real
mode) data — across overhead scales, per-command contention, a shared
link, pageable and pinned hosts, and observability on and off.
"""

from __future__ import annotations

import random
from typing import Dict, List

import numpy as np
import pytest

from repro.core.ringbuffer import band_geometry
from repro.faults import FaultPlan
from repro.gpu import Runtime
from repro.gpu.errors import DeviceLostError, InvalidValueError
from repro.gpu.runtime import CopyLane, copy_op, launch_op
from repro.obs import Observability
from repro.sim import NVIDIA_K40M
from repro.sim.bandwidth import BandwidthShared
from repro.sim.device import Device
from repro.sim.engine import EventToken
from repro.sim.varray import VirtualArray

#: ``(host shape, split dim, ring capacity, dtype)`` of each lane: one
#: contiguous split and one pitched (inner-dimension) split
LANES = (
    ((12, 6, 4), 0, 5, np.float64),
    ((5, 16), 1, 7, np.float32),
)


def _axis(ndim: int, dim: int, lo: int, hi: int) -> tuple:
    idx: list = [slice(None)] * ndim
    idx[dim] = slice(lo, hi)
    return tuple(idx)


class _Twin:
    """One runtime with its lanes' rings, hosts and streams."""

    def __init__(self, cfg: Dict[str, object]) -> None:
        self.obs = Observability() if cfg["obs"] else None
        virtual = cfg["virtual"]
        rt = self.rt = Runtime(NVIDIA_K40M, virtual=virtual, obs=self.obs)
        rt.call_overhead_scale = cfg["scale"]
        rt.command_overhead = cfg["overhead"]
        rt.default_pinned = cfg["default_pinned"]
        if cfg["shared"]:
            link = BandwidthShared()
            link.attach(rt.device)
            link.attach(Device(NVIDIA_K40M))
        self.streams = [rt.create_stream(f"s{i}") for i in range(2)]
        self.lanes = []
        for k, (shape, dim, cap, dtype) in enumerate(LANES):
            if cfg["pinned_host"] and k == 0:
                host = rt.hostalloc(shape, dtype)
            elif virtual:
                host = VirtualArray(shape, dtype)
            else:
                host = np.zeros(shape, dtype=dtype)
            if not virtual:
                host[...] = np.arange(host.size, dtype=dtype).reshape(shape)
            ring_shape = list(shape)
            ring_shape[dim] = cap
            ring = rt.malloc(ring_shape, dtype, tag=f"ring{k}")
            rows, unit_row_bytes = band_geometry(shape, dim, np.dtype(dtype).itemsize)
            unit_bytes = int(np.prod(shape)) // shape[dim] * np.dtype(dtype).itemsize
            copies = {
                kind: CopyLane(
                    kind, rt.device.copy_engine(kind), rows, unit_row_bytes,
                    unit_bytes, ring, rt.is_registered(host),
                )
                for kind in ("h2d", "d2h")
            }
            self.lanes.append((host, ring, dim, copies))
        self.tokens: List[EventToken] = []
        self.ran: List[int] = []


def _random_ops(rng: random.Random, n: int) -> List[tuple]:
    """Twin-independent op descriptions (token indices, not tokens)."""
    ops = []
    recorded: List[int] = []
    next_tok = 0
    for i in range(n):
        waits = sorted(rng.sample(recorded, rng.randint(0, min(3, len(recorded)))))
        poison = rng.choice(
            [None, (), tuple(w for w in waits if rng.random() < 0.5)]
        )
        records = ()
        if rng.random() < 0.7:
            records = (next_tok,)
            recorded.append(next_tok)
            next_tok += 1
        stream = rng.randrange(2)
        what = rng.choice(("h2d", "d2h", "launch"))
        if what == "launch":
            extra = (rng.uniform(1e-6, 1e-4), rng.randrange(0, 1 << 16))
        else:
            k = rng.randrange(len(LANES))
            shape, dim, cap, _dtype = LANES[k]
            pos = rng.randrange(cap)
            extent = rng.randint(1, cap - pos)
            g_lo = rng.randint(0, shape[dim] - extent)
            extra = (k, pos, g_lo, extent)
        ops.append((what, stream, waits, poison, records, f"op{i}:{what}", extra))
    return ops


def _tokens(twin: _Twin, idx) -> list:
    return [twin.tokens[i] for i in idx]


def _records(twin: _Twin, idx) -> list:
    while len(twin.tokens) <= max(idx, default=-1):
        twin.tokens.append(EventToken(f"t{len(twin.tokens)}"))
    return _tokens(twin, idx)


def _payload(twin: _Twin, i: int):
    return lambda: twin.ran.append(i)


def _views(twin: _Twin, extra):
    k, pos, g_lo, extent = extra
    host, ring, dim, copies = twin.lanes[k]
    dev = ring[_axis(ring.ndim, dim, pos, pos + extent)]
    section = host[_axis(host.ndim, dim, g_lo, g_lo + extent)]
    return copies, dev, section, extent


def _via_entry(twin: _Twin, ops, cuts) -> tuple:
    """Submit ``ops`` through the entry, in phases split at ``cuts``."""
    real = not twin.rt.virtual
    built = []
    for i, (what, stream, waits, poison, records, label, extra) in enumerate(ops):
        st = twin.streams[stream]
        w = _tokens(twin, waits)
        r = _records(twin, records)
        p = None if poison is None else _tokens(twin, poison)
        if what == "launch":
            cost, nbytes = extra
            built.append(launch_op(st, w, r, p, label, cost, nbytes, _payload(twin, i), None))
            continue
        copies, dev, section, extent = _views(twin, extra)
        dst, src = (dev.backing, section) if what == "h2d" else (section, dev.backing)
        if not real:
            dst = src = None
        built.append(copy_op(copies[what], st, w, r, p, label, extent, dst, src))
    phases = [built[a:b] for a, b in zip((0, *cuts), (*cuts, len(built)))]
    readings: List[float] = []
    cmds = twin.rt.enqueue_chunk(
        phases, chunk=7, on_phase=lambda k: readings.append(twin.rt.host_now)
    )
    return cmds, readings


def _via_public(twin: _Twin, ops, cuts) -> tuple:
    """Submit ``ops`` one public call each; host clock at each cut."""
    rt = twin.rt
    cmds = []
    readings: List[float] = []
    for i, (what, stream, waits, poison, records, label, extra) in enumerate(ops):
        if i in cuts and i:
            readings.append(rt.host_now)
        st = twin.streams[stream]
        kw = dict(
            waits=_tokens(twin, waits), records=_records(twin, records),
            poison_waits=None if poison is None else _tokens(twin, poison),
        )
        if what == "launch":
            cost, nbytes = extra
            cmd = rt.launch(cost, _payload(twin, i), st, nbytes=nbytes, label=label, **kw)
        else:
            copies, dev, section, extent = _views(twin, extra)
            lane = copies[what]
            kw.update(
                rows=lane.rows,
                row_bytes=None if lane.rows is None else extent * lane.unit_row_bytes,
                label=label,
            )
            if what == "h2d":
                cmd = rt.memcpy_h2d_async(dev, section, st, **kw)
            else:
                cmd = rt.memcpy_d2h_async(section, dev, st, **kw)
        cmd.chunk = 7
        cmds.append(cmd)
    return cmds, readings


def _fields(twin: _Twin, cmd) -> tuple:
    index = {id(t): i for i, t in enumerate(twin.tokens)}
    poison = cmd._poison_waits
    return (
        cmd.kind, cmd.engine, cmd.duration, cmd.enqueue_time, cmd.nbytes,
        cmd.label, cmd.stream.name, cmd.chunk,
        [index[id(t)] for t in cmd.wait_toks],
        None if poison is None else sorted(index[i] for i in poison),
        [index[id(t)] for t in cmd._records],
        # a silent fault flips a bit only in a real ndarray sink
        cmd.sink.shape if isinstance(cmd.sink, np.ndarray) else None,
    )


def _host_spans(twin: _Twin) -> list:
    if twin.obs is None:
        return []
    return [
        (s.name, s.category, s.start, s.end, s.attrs)
        for s in twin.obs.tracer.spans if s.track == "host"
    ]


CONFIGS = [
    dict(virtual=True, obs=False, scale=1.0, overhead=0.0, shared=False,
         default_pinned=True, pinned_host=False),
    dict(virtual=True, obs=True, scale=1.8, overhead=3e-6, shared=False,
         default_pinned=True, pinned_host=False),
    dict(virtual=True, obs=True, scale=1.3, overhead=1e-6, shared=True,
         default_pinned=False, pinned_host=False),
    dict(virtual=True, obs=False, scale=2.5, overhead=2e-6, shared=True,
         default_pinned=False, pinned_host=True),
    dict(virtual=False, obs=True, scale=1.0, overhead=0.0, shared=False,
         default_pinned=False, pinned_host=True),
    dict(virtual=False, obs=False, scale=1.6, overhead=4e-6, shared=True,
         default_pinned=True, pinned_host=False),
    dict(virtual=False, obs=True, scale=1.2, overhead=5e-7, shared=True,
         default_pinned=False, pinned_host=False),
]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: "-".join(
    f"{k}={v}" for k, v in c.items()
))
def test_entry_matches_public_calls(cfg, seed):
    rng = random.Random(seed)
    ops = _random_ops(rng, rng.randint(1, 14))
    cuts = tuple(sorted(rng.sample(range(1, len(ops)), min(2, len(ops) - 1))))
    a, b = _Twin(cfg), _Twin(cfg)
    got, got_marks = _via_entry(a, ops, cuts)
    want, want_marks = _via_public(b, ops, cuts)
    assert [_fields(a, c) for c in got] == [_fields(b, c) for c in want]
    assert got_marks == want_marks
    assert a.rt.host_now == b.rt.host_now
    for twin in (a, b):
        twin.rt.synchronize()
    assert [(c.start_time, c.finish_time, c.poisoned) for c in got] == [
        (c.start_time, c.finish_time, c.poisoned) for c in want
    ]
    assert a.rt.host_now == b.rt.host_now
    assert _host_spans(a) == _host_spans(b)
    if cfg["obs"]:
        assert a.obs.metrics.snapshot() == b.obs.metrics.snapshot()
    assert a.ran == b.ran
    if not cfg["virtual"]:
        # the copy payloads moved the same data
        for (ha, ra, _, _), (hb, rb, _, _) in zip(a.lanes, b.lanes):
            np.testing.assert_array_equal(ha, hb)
            np.testing.assert_array_equal(ra.backing, rb.backing)


def _copy(twin: _Twin, k: int, label: str) -> tuple:
    host, ring, dim, copies = twin.lanes[k]
    return copy_op(copies["h2d"], twin.streams[0], (), (), None, label, 2, None, None)


def _one_copy(twin: _Twin) -> list:
    return [[_copy(twin, 0, "h2d")]]


BASE = CONFIGS[0]


def test_lost_device_raises_and_charges_nothing():
    twin = _Twin(BASE)
    rt = twin.rt
    rt.install_faults(FaultPlan(device_lost_at=1))
    rt.defer_faults = True
    rt.launch(1e-5, None, twin.streams[0])
    rt.synchronize()
    assert rt.device.lost
    before, pending = rt.host_now, len(rt.device.sim.completed)
    with pytest.raises(DeviceLostError):
        rt.enqueue_chunk(_one_copy(twin))
    assert rt.host_now == before
    assert rt.device.sim.idle and len(rt.device.sim.completed) == pending


def test_closed_runtime_raises():
    twin = _Twin(BASE)
    ops = _one_copy(twin)
    twin.rt.close()
    before = twin.rt.host_now
    with pytest.raises(InvalidValueError):
        twin.rt.enqueue_chunk(ops)
    assert twin.rt.host_now == before


def test_freed_ring_raises_at_issue():
    twin = _Twin(BASE)
    ops = _one_copy(twin)
    twin.rt.free(twin.lanes[0][1])
    before = twin.rt.host_now
    with pytest.raises(InvalidValueError):
        twin.rt.enqueue_chunk(ops)
    assert twin.rt.host_now == before


def test_freed_later_ring_enqueues_nothing():
    """The entry is all-or-nothing: a freed ring met late in the chunk
    raises before the earlier ops are charged or enqueued."""
    twin = _Twin(dict(BASE, obs=True))
    rt = twin.rt
    ops = [
        [_copy(twin, 0, "a"), launch_op(twin.streams[0], (), (), None, "k", 1e-5, 0, None, None)],
        [_copy(twin, 0, "b"), _copy(twin, 1, "c")],
    ]
    rt.free(twin.lanes[1][1])
    before, spans = rt.host_now, len(_host_spans(twin))
    with pytest.raises(InvalidValueError):
        rt.enqueue_chunk(ops, on_phase=lambda k: pytest.fail("phase opened"))
    assert rt.host_now == before
    assert rt.device.sim.idle and not rt.device.sim.completed
    assert len(_host_spans(twin)) == spans


def test_issuer_on_freed_rings_raises_at_issue():
    """A region whose rings were freed cannot issue another chunk."""
    from repro.apps import stencil as st
    from repro.core.executor import PipelineIssuer, compile_for
    from repro.kernels.stencil3d import StencilKernel

    cfg = st.StencilConfig(nz=10, ny=16, nx=16, iters=1)
    region, arrays = st.make_region(cfg), st.make_arrays(cfg, virtual=True)
    rt = Runtime(NVIDIA_K40M, virtual=True)
    issuer = PipelineIssuer(
        rt, compile_for(region.plan_for(rt, arrays)), arrays, StencilKernel(cfg.ny, cfg.nx)
    )
    issuer.open()
    issuer.issue_next()
    for ring in issuer.rings.values():
        rt.free(ring.darr)
    with pytest.raises(InvalidValueError):
        issuer.issue_next()
