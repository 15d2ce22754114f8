"""Property tests: ring-buffer geometry and data movement."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as stn

from repro.core.ringbuffer import DeviceRing, ring_geometry
from repro.gpu import Runtime
from repro.sim import NVIDIA_K40M


def make_ring(capacity, split_dim=0, shape=(256, 4)):
    rt = Runtime(NVIDIA_K40M)
    return DeviceRing(rt, ring_geometry(shape, split_dim, capacity, np.float32))


@given(cap=stn.integers(1, 40), lo=stn.integers(0, 500), width=stn.integers(0, 40))
def test_pieces_partition_the_range(cap, lo, width):
    width = min(width, cap)
    r = make_ring(cap)
    ps = r.pieces(lo, lo + width)
    covered = [g for p in ps for g in range(p.g_lo, p.g_hi)]
    assert covered == list(range(lo, lo + width))
    # each piece must be contiguous inside the buffer
    for p in ps:
        assert p.pos == p.g_lo % cap
        assert p.pos + p.extent <= cap
    # at most one wrap
    assert len(ps) <= 2


@given(
    cap=stn.integers(2, 24),
    writes=stn.lists(
        stn.tuples(stn.integers(0, 200), stn.integers(1, 12)), min_size=1, max_size=12
    ),
)
@settings(max_examples=80)
def test_scatter_then_gather_returns_last_write(cap, writes):
    """Gathering a range immediately after scattering it returns the
    written block regardless of wrap position and history."""
    r = make_ring(cap, shape=(1024, 3))
    rng = np.random.default_rng(0)
    for lo, width in writes:
        width = min(width, cap)
        block = rng.random((width, 3)).astype(np.float32)
        r.scatter(block, lo, lo + width)
        assert np.array_equal(r.gather(lo, lo + width), block)


@given(cap=stn.integers(2, 16), lo=stn.integers(0, 100), width=stn.integers(1, 16))
def test_disjoint_mod_ranges_do_not_clobber(cap, lo, width):
    """Two ranges whose ring images are disjoint coexist."""
    width = min(width, cap // 2) or 1
    r = make_ring(cap, shape=(1024, 2))
    rng = np.random.default_rng(1)
    a = rng.random((width, 2)).astype(np.float32)
    # second range exactly `width` positions later in ring space
    b_lo = lo + width
    b_width = min(width, cap - width)
    if b_width < 1:
        return
    b = rng.random((b_width, 2)).astype(np.float32)
    r.scatter(a, lo, lo + width)
    r.scatter(b, b_lo, b_lo + b_width)
    assert np.array_equal(r.gather(lo, lo + width), a)
    assert np.array_equal(r.gather(b_lo, b_lo + b_width), b)


@given(split_dim=stn.integers(0, 2), cap=stn.integers(2, 10))
def test_inner_dim_rings_roundtrip(split_dim, cap):
    shape = [6, 7, 8]
    shape[split_dim] = 64
    r = make_ring(cap, split_dim=split_dim, shape=tuple(shape))
    rng = np.random.default_rng(2)
    width = min(3, cap)
    block_shape = list(shape)
    block_shape[split_dim] = width
    block = rng.random(block_shape).astype(np.float32)
    r.scatter(block, 10, 10 + width)
    assert np.array_equal(r.gather(10, 10 + width), block)


@given(cap=stn.integers(1, 32))
def test_nbytes_matches_allocation(cap):
    r = make_ring(cap, shape=(128, 6))
    assert r.nbytes == cap * 6 * 4
    assert r.darr.shape == (cap, 6)
