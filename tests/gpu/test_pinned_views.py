"""Pinned host memory covers views of the registered array.

``cudaHostRegister`` pins an address range, so a copy out of a slice of
a ``hostalloc``'d or ``pin``'d array runs at pinned bandwidth even when
unregistered buffers are pageable (``default_pinned = False``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import stencil as st
from repro.gpu import Runtime
from repro.kernels.stencil3d import StencilKernel
from repro.sim import NVIDIA_K40M
from repro.sim.bandwidth import transfer_time_1d
from repro.sim.varray import VirtualArray

#: a (16, 256) float64 band: 16.1 us pinned, 22.5 us pageable on K40m
BAND = (16, 256)
NBYTES = 16 * 256 * 8
PINNED = transfer_time_1d(NVIDIA_K40M.h2d, NBYTES, pinned=True)
PAGEABLE = transfer_time_1d(NVIDIA_K40M.h2d, NBYTES, pinned=False)


def _h2d_seconds(rt: Runtime, host) -> float:
    dev = rt.malloc(BAND, np.float64)
    return rt.memcpy_h2d_async(dev, host[16:32], rt.create_stream()).duration


@pytest.mark.parametrize("virtual", [False, True])
def test_slice_of_hostalloc_is_pinned(virtual):
    rt = Runtime(NVIDIA_K40M, virtual=virtual)
    rt.default_pinned = False
    host = rt.hostalloc((64, 256), np.float64)
    assert rt.is_pinned(host[16:32]) and rt.is_registered(host[::2, 3:])
    assert _h2d_seconds(rt, host) == PINNED
    assert PINNED < PAGEABLE


@pytest.mark.parametrize("virtual", [False, True])
def test_slice_of_pinned_array_is_pinned(virtual):
    rt = Runtime(NVIDIA_K40M, virtual=virtual)
    rt.default_pinned = False
    host = (
        VirtualArray((64, 256), np.float64) if virtual
        else np.zeros((64, 256), np.float64)
    )
    rt.pin(host)
    assert _h2d_seconds(rt, host) == PINNED


@pytest.mark.parametrize("virtual", [False, True])
def test_unregistered_array_stays_pageable(virtual):
    rt = Runtime(NVIDIA_K40M, virtual=virtual)
    rt.default_pinned = False
    rt.hostalloc((64, 256), np.float64)  # a registered neighbour
    host = (
        VirtualArray((64, 256), np.float64) if virtual
        else np.zeros((64, 256), np.float64)
    )
    assert not rt.is_pinned(host[16:32])
    assert _h2d_seconds(rt, host) == PAGEABLE


def _stencil_elapsed(*, default_pinned: bool, register: bool) -> float:
    cfg = st.StencilConfig(nz=18, ny=48, nx=48, iters=1)
    region, arrays = st.make_region(cfg), st.make_arrays(cfg, virtual=True)
    rt = Runtime(NVIDIA_K40M, virtual=True)
    rt.default_pinned = default_pinned
    if register:
        for arr in arrays.values():
            rt.pin(arr)
    return region.run(rt, arrays, StencilKernel(cfg.ny, cfg.nx)).elapsed


def test_pipelined_region_prices_pinned_hosts_pinned():
    """The issuer resolves pinnedness from each whole host array."""
    pinned = _stencil_elapsed(default_pinned=True, register=False)
    assert _stencil_elapsed(default_pinned=False, register=True) == pinned
    assert _stencil_elapsed(default_pinned=False, register=False) > pinned
