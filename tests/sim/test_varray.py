"""Unit tests for the virtual (metadata-only) array backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.varray import (
    VirtualArray,
    as_backing,
    empty_like_backing,
    is_virtual,
    nbytes_of,
)


class TestMetadata:
    def test_shape_dtype_size_nbytes(self):
        v = VirtualArray((4, 5, 6), np.float32)
        assert v.shape == (4, 5, 6)
        assert v.dtype == np.float32
        assert v.ndim == 3
        assert v.size == 120
        assert v.nbytes == 480

    def test_huge_array_costs_no_memory(self):
        v = VirtualArray((100_000, 100_000), np.float64)  # 80 GB logical
        assert v.nbytes == 80_000_000_000

    def test_len(self):
        assert len(VirtualArray((7, 2), np.int32)) == 7
        with pytest.raises(TypeError):
            len(VirtualArray((), np.int32))


class TestSlicing:
    @pytest.mark.parametrize(
        "key",
        [
            np.s_[1:3],
            np.s_[:, 2:, 1],
            np.s_[..., ::2],
            np.s_[0],
            np.s_[-2:, :, :],
        ],
    )
    def test_slicing_matches_numpy_shapes(self, key):
        real = np.zeros((6, 7, 8), dtype=np.float32)
        virt = VirtualArray((6, 7, 8), np.float32)
        assert virt[key].shape == real[key].shape

    def test_setitem_validates_key(self):
        v = VirtualArray((4, 4), np.float32)
        v[1:3, :] = 0  # fine, no-op
        with pytest.raises(IndexError):
            v[10]

    def test_views_are_virtual(self):
        v = VirtualArray((4, 4), np.float32)
        assert is_virtual(v[1:])


class TestReshape:
    def test_reshape_exact(self):
        v = VirtualArray((4, 6), np.float64).reshape(3, 8)
        assert v.shape == (3, 8)

    def test_reshape_wildcard(self):
        assert VirtualArray((4, 6), np.float64).reshape(2, -1).shape == (2, 12)

    def test_reshape_tuple_form(self):
        assert VirtualArray((4, 6), np.int8).reshape((24,)).shape == (24,)

    def test_reshape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VirtualArray((4, 6), np.int8).reshape(5, 5)

    def test_reshape_two_wildcards_rejected(self):
        with pytest.raises(ValueError):
            VirtualArray((4, 6), np.int8).reshape(-1, -1)

    def test_ravel(self):
        assert VirtualArray((3, 4), np.int16).ravel().shape == (12,)


class TestOps:
    def test_copy_and_astype(self):
        v = VirtualArray((3,), np.float32)
        assert v.copy().shape == (3,)
        assert v.astype(np.float64).nbytes == 24

    def test_fill_is_noop(self):
        VirtualArray((3,), np.float32).fill(1.0)


class TestHelpers:
    def test_as_backing_modes(self):
        r = as_backing((2, 2), np.float32, virtual=False)
        v = as_backing((2, 2), np.float32, virtual=True)
        assert isinstance(r, np.ndarray) and (r == 0).all()
        assert is_virtual(v)

    def test_nbytes_of_both_modes(self):
        assert nbytes_of(np.zeros(10, dtype=np.float64)) == 80
        assert nbytes_of(VirtualArray((10,), np.float64)) == 80

    def test_empty_like_backing(self):
        assert is_virtual(empty_like_backing(VirtualArray((2,), np.int8)))
        out = empty_like_backing(np.ones((2,), dtype=np.int8))
        assert isinstance(out, np.ndarray) and (out == 0).all()


class TestStorage:
    """What the zero-stride phantom behind every virtual array promises,
    however it is built: no writable storage, NumPy's view and shape
    algebra, and key validation on assignment."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16, np.complex128])
    def test_storage_is_zero_stride_and_read_only(self, dtype):
        v = VirtualArray((5, 6, 7), dtype)
        phantom = v._phantom
        assert phantom.shape == (5, 6, 7) and phantom.dtype == np.dtype(dtype)
        assert phantom.strides == (0, 0, 0)
        assert not phantom.flags.writeable
        with pytest.raises(ValueError):
            phantom[...] = 1

    def test_shape_entries_become_ints(self):
        v = VirtualArray([np.int64(3), 4], np.float32)
        assert v.shape == (3, 4)
        assert all(type(s) is int for s in v.shape)

    @pytest.mark.parametrize(
        "key", [np.s_[1:3], np.s_[:, ::2], np.s_[-1], np.s_[..., 2:5], np.s_[None, 1:]]
    )
    def test_sliced_views_are_read_only_views(self, key):
        real = np.zeros((4, 6, 8), dtype=np.float64)
        view = VirtualArray((4, 6, 8), np.float64)[key]
        assert is_virtual(view)
        assert view.shape == real[key].shape and view.dtype == np.float64
        assert view.nbytes == real[key].nbytes
        assert not view._phantom.flags.writeable

    def test_reshape_ravel_astype_shapes(self):
        v = VirtualArray((4, 6), np.float32)
        cases = [
            (v.reshape(3, -1), (3, 8), np.float32),
            (v.reshape((2, 2, 6)), (2, 2, 6), np.float32),
            (v.ravel(), (24,), np.float32),
            (v.astype(np.int8), (4, 6), np.int8),
            (v[1:3].reshape(-1), (12,), np.float32),
            (v[:, 1].ravel(), (4,), np.float32),
            (v.copy(), (4, 6), np.float32),
        ]
        for out, shape, dtype in cases:
            assert is_virtual(out)
            assert (out.shape, out.dtype) == (shape, np.dtype(dtype))
            assert out.nbytes == int(np.prod(shape)) * np.dtype(dtype).itemsize
            assert not out._phantom.flags.writeable

    def test_setitem_rejects_out_of_range_keys(self):
        v = VirtualArray((4, 4), np.float32)
        v[3, 3] = 1.0  # in range: validated, then discarded
        v[-4] = 0
        for key in (4, (slice(None), 7), (0, 0, 0), -5):
            with pytest.raises(IndexError):
                v[key] = 0
