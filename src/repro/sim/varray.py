"""Virtual (metadata-only) arrays for paper-scale workloads.

The paper's evaluation uses datasets of up to ~14.5 GB (the largest
matrix-multiplication size), which would not fit in this host's RAM,
let alone be fast to compute on.  A :class:`VirtualArray` carries shape
and dtype *metadata only*: slicing, reshaping, and byte accounting work
exactly like NumPy, but no element storage exists and kernels skip
their functional payloads when they see one.

The simulator's cost model and memory allocator consume only logical
byte counts, so a virtual-mode run produces the *same* virtual timeline
and memory footprint as a real-mode run of the same shape — which is
what Figures 9 and 10 need.  Correctness is validated separately in
real mode at reduced sizes through the identical code path.

Implementation note: shape algebra (what does ``a[1:-1, ::2]`` look
like?) is delegated to NumPy by keeping a zero-stride *phantom* array
of the right shape over one read-only element, which costs O(1)
memory.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

__all__ = ["VirtualArray", "as_backing", "empty_like_backing", "nbytes_of", "is_virtual"]

ArrayLike = Union[np.ndarray, "VirtualArray"]

#: the one element every phantom's zero strides point at: immutable
#: bytes, so no phantom is writable
_CELL = bytes(64)


class VirtualArray:
    """A shape/dtype-only stand-in for ``np.ndarray``.

    Supports the subset of the NumPy interface the runtime needs:
    ``shape``, ``dtype``, ``ndim``, ``size``, ``nbytes``, basic and
    sliced ``__getitem__`` (returning views), no-op ``__setitem__``,
    ``reshape``, and ``fill``.
    """

    __slots__ = ("_phantom", "__weakref__")

    def __init__(self, shape: Tuple[int, ...], dtype) -> None:
        shape = tuple(map(int, shape))
        dtype = np.dtype(dtype)
        cell = _CELL if dtype.itemsize <= len(_CELL) else bytes(dtype.itemsize)
        self._phantom = np.ndarray(
            shape, dtype, buffer=cell, strides=(0,) * len(shape)
        )

    @classmethod
    def _wrap(cls, phantom: np.ndarray) -> "VirtualArray":
        out = cls.__new__(cls)
        out._phantom = phantom
        return out

    # -- metadata ------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Array shape."""
        return self._phantom.shape

    @property
    def dtype(self):
        """Element dtype."""
        return self._phantom.dtype

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self._phantom.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return int(self._phantom.size)

    @property
    def nbytes(self) -> int:
        """Logical size in bytes (``size * itemsize``)."""
        return self.size * self._phantom.dtype.itemsize

    # -- views ---------------------------------------------------------
    def __getitem__(self, key) -> "VirtualArray":
        return VirtualArray._wrap(self._phantom[key])

    def __setitem__(self, key, value) -> None:
        # validate the key shape, then discard the data
        _ = self._phantom[key]

    def reshape(self, *shape) -> "VirtualArray":
        """Reshape (metadata only); supports one ``-1`` wildcard."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        dims = [int(s) for s in shape]
        if dims.count(-1) > 1:
            raise ValueError("can only specify one unknown dimension")
        if -1 in dims:
            known = 1
            for d in dims:
                if d != -1:
                    known *= d
            if known == 0 or self.size % known:
                raise ValueError(f"cannot reshape size {self.size} into {shape}")
            dims[dims.index(-1)] = self.size // known
        else:
            prod = 1
            for d in dims:
                prod *= d
            if prod != self.size:
                raise ValueError(f"cannot reshape size {self.size} into {shape}")
        return VirtualArray(tuple(dims), self.dtype)

    def ravel(self) -> "VirtualArray":
        """Flatten (metadata only)."""
        return VirtualArray((self.size,), self.dtype)

    def fill(self, value) -> None:
        """No-op fill."""

    def copy(self) -> "VirtualArray":
        """Return an independent virtual array of the same shape."""
        return VirtualArray(self.shape, self.dtype)

    def astype(self, dtype) -> "VirtualArray":
        """Return a virtual array with a different dtype."""
        return VirtualArray(self.shape, dtype)

    def __len__(self) -> int:
        if self.ndim == 0:
            raise TypeError("len() of unsized virtual array")
        return self.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualArray(shape={self.shape}, dtype={self.dtype})"


def is_virtual(arr: ArrayLike) -> bool:
    """True if ``arr`` is metadata-only (no element storage)."""
    return isinstance(arr, VirtualArray)


def nbytes_of(arr: ArrayLike) -> int:
    """Logical byte size of a real or virtual array."""
    return int(arr.nbytes)


def as_backing(shape: Tuple[int, ...], dtype, *, virtual: bool) -> ArrayLike:
    """Create storage for a device/host buffer.

    Returns a zero-initialized ``np.ndarray`` in real mode or a
    :class:`VirtualArray` in virtual mode.
    """
    if virtual:
        return VirtualArray(tuple(shape), dtype)
    return np.zeros(tuple(shape), dtype=dtype)


def empty_like_backing(arr: ArrayLike) -> ArrayLike:
    """Allocate backing with the same shape/dtype and mode as ``arr``."""
    if is_virtual(arr):
        return VirtualArray(arr.shape, arr.dtype)
    return np.zeros(arr.shape, dtype=arr.dtype)
