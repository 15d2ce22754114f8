"""Unit tests for the device ring buffer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ringbuffer import DeviceRing, ring_geometry
from repro.gpu import Runtime
from repro.sim import NVIDIA_K40M


@pytest.fixture
def rt():
    return Runtime(NVIDIA_K40M)


def ring(rt, shape=(64, 8), split_dim=0, capacity=6, dtype=np.float32):
    return DeviceRing(rt, ring_geometry(shape, split_dim, capacity, dtype), tag="test")


class TestGeometry:
    def test_buffer_shape_replaces_split_dim(self, rt):
        r = ring(rt, shape=(64, 8, 4), capacity=5)
        assert r.darr.shape == (5, 8, 4)

    def test_unit_elems_and_nbytes(self, rt):
        r = ring(rt, shape=(64, 8, 4), capacity=5)
        assert r.unit_elems == 32
        assert r.nbytes == 5 * 32 * 4

    def test_invalid_args(self, rt):
        with pytest.raises(ValueError):
            ring(rt, capacity=0)
        with pytest.raises(ValueError):
            ring(rt, split_dim=5)

    def test_pieces_no_wrap(self, rt):
        r = ring(rt, capacity=6)
        ps = r.pieces(0, 4)
        assert len(ps) == 1
        assert (ps[0].g_lo, ps[0].g_hi, ps[0].pos) == (0, 4, 0)

    def test_pieces_wrap(self, rt):
        r = ring(rt, capacity=6)
        ps = r.pieces(4, 9)  # positions 4,5,0,1,2
        assert [(p.g_lo, p.g_hi, p.pos) for p in ps] == [(4, 6, 4), (6, 9, 0)]

    def test_pieces_modular_positions(self, rt):
        r = ring(rt, capacity=6)
        ps = r.pieces(13, 15)
        assert ps[0].pos == 13 % 6

    def test_pieces_empty_range(self, rt):
        assert ring(rt).pieces(5, 5) == []

    def test_range_wider_than_capacity_rejected(self, rt):
        with pytest.raises(ValueError):
            ring(rt, capacity=4).pieces(0, 5)

    def test_pieces_cover_range_disjointly(self, rt):
        r = ring(rt, capacity=7)
        for lo in range(0, 40):
            for width in range(1, 8):
                ps = r.pieces(lo, lo + width)
                covered = [g for p in ps for g in range(p.g_lo, p.g_hi)]
                assert covered == list(range(lo, lo + width))


class TestDataMovement:
    def test_scatter_gather_roundtrip(self, rt, rng):
        r = ring(rt, shape=(64, 8), capacity=6)
        block = rng.random((5, 8)).astype(np.float32)
        r.scatter(block, 10, 15)
        out = r.gather(10, 15)
        assert np.array_equal(out, block)

    def test_gather_wrapped_range(self, rt, rng):
        r = ring(rt, shape=(64, 8), capacity=6)
        block = rng.random((4, 8)).astype(np.float32)
        r.scatter(block, 4, 8)  # wraps: positions 4,5,0,1
        assert np.array_equal(r.gather(4, 8), block)

    def test_overwrite_previous_lap(self, rt, rng):
        r = ring(rt, shape=(64, 8), capacity=4)
        first = rng.random((4, 8)).astype(np.float32)
        second = rng.random((4, 8)).astype(np.float32)
        r.scatter(first, 0, 4)
        r.scatter(second, 4, 8)  # same positions, one lap later
        assert np.array_equal(r.gather(4, 8), second)

    def test_host_section_matches_global_coordinates(self, rt, rng):
        r = ring(rt, shape=(64, 8), capacity=6)
        host = rng.random((64, 8)).astype(np.float32)
        p = r.pieces(10, 13)[0]
        assert np.array_equal(r.host_section(host, p), host[p.g_lo : p.g_hi])

    def test_device_view_shape(self, rt):
        r = ring(rt, shape=(64, 8), capacity=6)
        p = r.pieces(2, 5)[0]
        assert r.device_view(p).shape == (3, 8)

    def test_inner_dim_ring(self, rt, rng):
        r = ring(rt, shape=(8, 64), split_dim=1, capacity=6)
        block = rng.random((8, 3)).astype(np.float32)
        r.scatter(block, 9, 12)
        assert np.array_equal(r.gather(9, 12), block)

    def test_virtual_mode_gather_returns_none(self):
        rt = Runtime(NVIDIA_K40M, virtual=True)
        r = ring(rt)
        assert r.gather(0, 3) is None
        r.scatter(None, 0, 3)  # no-op, must not raise
