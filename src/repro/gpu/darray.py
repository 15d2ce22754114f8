"""Device array handles.

A :class:`DeviceArray` pairs a simulated device allocation with backing
storage (a real ``np.ndarray`` or a metadata-only
:class:`~repro.sim.varray.VirtualArray`).  Slicing a device array
returns a *view* sharing the parent's allocation — the analogue of
doing pointer arithmetic on a ``cudaMalloc`` base pointer, which is how
the paper's runtime addresses ring-buffer slots
(``deviceptr() + offset``).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.gpu.errors import InvalidValueError
from repro.sim.memory import AllocationRecord
from repro.sim.varray import VirtualArray, is_virtual

__all__ = ["DeviceArray"]

Backing = Union[np.ndarray, VirtualArray]


class DeviceArray:
    """A handle to (a view of) device memory.

    Attributes
    ----------
    backing:
        The storage (real or virtual).  Functional payloads read/write
        it; the simulator charges virtual time independently.
    allocation:
        The owning :class:`AllocationRecord`, or ``None`` for views.
    base:
        The root :class:`DeviceArray` that owns the allocation.
    """

    __slots__ = ("backing", "allocation", "_base", "_freed")

    def __init__(
        self,
        backing: Backing,
        allocation: Optional[AllocationRecord],
        base: Optional["DeviceArray"] = None,
    ) -> None:
        self.backing = backing
        self.allocation = allocation
        # a root stores None rather than itself: a self-reference would
        # make every allocation a cycle only the cyclic GC can free
        self._base = base
        self._freed = False

    @property
    def base(self) -> "DeviceArray":
        """The root :class:`DeviceArray` that owns the allocation."""
        return self if self._base is None else self._base

    # -- metadata ------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Array shape."""
        return self.backing.shape

    @property
    def dtype(self):
        """Element dtype."""
        return self.backing.dtype

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.backing.ndim

    @property
    def nbytes(self) -> int:
        """Logical bytes covered by this view."""
        return int(self.backing.nbytes) if not is_virtual(self.backing) else self.backing.nbytes

    @property
    def size(self) -> int:
        """Total number of elements."""
        return int(np.prod(self.shape, dtype=np.int64))

    @property
    def is_virtual(self) -> bool:
        """True if the backing is metadata-only."""
        return is_virtual(self.backing)

    @property
    def is_view(self) -> bool:
        """True if this handle does not own its allocation."""
        return self._base is not None

    # -- views ---------------------------------------------------------
    def __getitem__(self, key) -> "DeviceArray":
        """Pointer-arithmetic view into the same allocation."""
        self._check_alive()
        return DeviceArray(self.backing[key], None, base=self.base)

    def reshape(self, *shape) -> "DeviceArray":
        """Reshaped view of the same allocation."""
        self._check_alive()
        return DeviceArray(self.backing.reshape(*shape), None, base=self.base)

    # -- lifetime ------------------------------------------------------
    def _check_alive(self) -> None:
        if self.base._freed:
            raise InvalidValueError("use of freed device memory")

    def mark_freed(self) -> None:
        """Invalidate the handle (called by ``Runtime.free``)."""
        if self.is_view:
            raise InvalidValueError("cannot free a view; free the base allocation")
        if self._freed:
            raise InvalidValueError("double free of device array")
        self._freed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "virtual" if self.is_virtual else "real"
        kind = "view" if self.is_view else "alloc"
        return f"DeviceArray({kind}, {mode}, shape={self.shape}, dtype={self.dtype})"
