"""Integrity checks compare raw bytes, never values.

:func:`repro.integrity.same_bytes` answers every transfer, halo-seam
and vote check.  These tests pin its byte semantics:

* unit level: ``0.0`` vs ``-0.0`` differ, distinct NaN payloads differ,
  and equal-valued arrays of different byte length differ — all cases
  a value comparison (``np.array_equal`` on floats) gets wrong;
* property: over seeded random dtypes, shapes (0-length included) and
  strided views like the host sections a ring hands out, the answer
  equals ``digest(a) == digest(b)`` and ``a.tobytes() == b.tobytes()``,
  for equal pairs and for pairs with one flipped bit;
* executor level: a checksum-mode run whose device-side piece holds one
  ``-0.0`` where the host has ``0.0`` records a corruption and recovers
  the byte-identical output.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.faults.policy import FaultPolicy
from repro.gpu import Runtime
from repro.integrity import digest, same_bytes
from repro.sim import NVIDIA_K40M

from tests.core.test_executor import ScaleKernel, make_arrays, make_region


class TestByteSemantics:
    def test_signed_zero_differs(self):
        pos = np.zeros(4)
        neg = pos.copy()
        neg[2] = -0.0
        assert np.array_equal(pos, neg)  # equal as values ...
        assert not same_bytes(pos, neg)  # ... not as bytes

    def test_nan_payloads_differ(self):
        a = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)
        b = np.array([0x7FF8000000000002], dtype=np.uint64).view(np.float64)
        assert np.isnan(a[0]) and np.isnan(b[0])
        assert not same_bytes(a, b)
        assert same_bytes(a, a.copy())

    def test_different_nbytes_differ(self):
        a = np.ones(4, dtype=np.float64)
        assert np.array_equal(a, a.astype(np.float32))
        assert not same_bytes(a, a.astype(np.float32))
        assert not same_bytes(a, np.ones(5))


def _random_array(rng, dtype, shape):
    raw = rng.integers(0, 256, size=int(np.prod(shape)) * dtype.itemsize,
                       dtype=np.uint8)
    return raw.view(dtype).reshape(shape)


def _random_view(rng, base):
    """A strided slice of ``base`` along a random axis (or all of it)."""
    if base.ndim == 0 or base.size == 0 or rng.random() < 0.25:
        return base
    axis = int(rng.integers(base.ndim))
    n = base.shape[axis]
    lo = int(rng.integers(n))
    hi = int(rng.integers(lo, n + 1))
    index = [slice(None)] * base.ndim
    index[axis] = slice(lo, hi)
    return base[tuple(index)]


DTYPES = (np.float32, np.float64, np.complex128, np.int32, np.int64)


@pytest.mark.parametrize("seed", range(24))
def test_same_bytes_agrees_with_digest(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        dtype = np.dtype(DTYPES[rng.integers(len(DTYPES))])
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(s) for s in rng.integers(0, 7, size=ndim))
        a = _random_view(rng, _random_array(rng, dtype, shape))
        # the equal pair: the same bytes, laid out contiguously
        b = np.ascontiguousarray(a).copy()
        pairs = [(a, b)]
        if a.size:
            # one flipped bit anywhere in the view
            flipped = b.copy()
            raw = flipped.reshape(-1).view(np.uint8)
            raw[int(rng.integers(raw.size))] ^= np.uint8(
                1 << int(rng.integers(8))
            )
            pairs.append((a, flipped))
        for x, y in pairs:
            expect = digest(x) == digest(y)
            assert same_bytes(x, y) == expect
            assert same_bytes(y, x) == expect
            assert expect == (x.tobytes() == y.tobytes())


class _SignFlipOnce(FaultInjector):
    """Delivers one ``-0.0`` in place of a ``0.0`` on the first H2D copy.

    Value comparison cannot see the flip; a byte comparison must.
    """

    def __init__(self) -> None:
        super().__init__(FaultPlan(seed=0))
        self.flipped = False

    def corrupt_at_retirement(self, cmd, now: float) -> None:
        if self.flipped or cmd.kind != "h2d":
            return
        sink = cmd.sink() if callable(cmd.sink) else cmd.sink
        if not isinstance(sink, np.ndarray):
            return
        zeros = np.flatnonzero(sink.reshape(-1) == 0.0)
        if zeros.size:
            sink[np.unravel_index(int(zeros[0]), sink.shape)] = -0.0
            self.flipped = True


def _checksum_run(injector=None):
    arrays = make_arrays(32)
    arrays["IN"][:, 3] = 0.0  # every piece carries zeros to flip
    rt = Runtime(NVIDIA_K40M)
    if injector is not None:
        rt.install_faults(injector)
    with rt:
        res = make_region(32).run(
            rt, arrays, ScaleKernel(), integrity="checksum",
            fault_policy=FaultPolicy(max_retries=4),
        )
    return arrays["OUT"].tobytes(), res


def test_checksum_run_detects_a_signed_zero_flip():
    clean, clean_res = _checksum_run()
    assert clean_res.corruptions == 0
    injector = _SignFlipOnce()
    out, res = _checksum_run(injector)
    assert injector.flipped
    assert res.corruptions >= 1
    assert out == clean  # recovered byte-identical, sign included
