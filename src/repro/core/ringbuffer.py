"""Device ring buffers: modular slot mapping and index translation.

The paper: "we use the mod operator (%) to get the offset of each chunk
inside the buffer.  For example, if we have a buffer that can hold four
chunks ... we copy chunk i to position (i % 4).  Once a data chunk is
not needed for later partitions (kernels), we replace it."

We generalize the modular rule from chunk granularity to split-dim
*unit* granularity: global split-dim index ``g`` lives at buffer
position ``g % capacity``.  Consequences:

* a dependency range ``[lo, hi)`` maps to at most **two** contiguous
  buffer pieces (one when it does not wrap) — each piece is one DMA
  transfer, exactly like a real implementation would issue;
* consecutive chunks with overlapping halos share buffer contents, so
  de-duplicated transfers ("removes the data that only previous chunks
  require") fall out naturally;
* index translation for kernels is ``local = g % capacity`` — the
  offset arithmetic the paper passes into its OpenACC kernels.

Liveness (not overwriting data an in-flight chunk still needs) is the
*executor's* job, enforced with event dependencies; the ring only does
geometry.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.gpu.darray import DeviceArray
from repro.gpu.runtime import Runtime

__all__ = [
    "DeviceRing", "RingGeometry", "RingPiece", "band_geometry", "ring_geometry",
    "ring_pieces",
]


class RingPiece(NamedTuple):
    """One contiguous piece of a (possibly wrapping) ring range.

    Attributes
    ----------
    g_lo, g_hi:
        Global split-dim half-open range covered by the piece.
    pos:
        Buffer position of ``g_lo`` (``g_lo % capacity``).
    """

    g_lo: int
    g_hi: int
    pos: int

    @property
    def extent(self) -> int:
        """Units covered."""
        return self.g_hi - self.g_lo


_new = tuple.__new__


def band_geometry(
    shape: Tuple[int, ...], split_dim: int, itemsize: int
) -> Tuple[Optional[int], int]:
    """``(rows, bytes per split-dim unit in one row)`` of a band copy.

    A band ``[lo, hi)`` along ``split_dim`` is one pitched 2-D copy of
    ``rows`` rows of ``(hi - lo) * unit_row_bytes`` bytes each.  A split
    along the outermost dimension is contiguous in host memory, which
    ``rows = None`` marks (price it as one flat copy).
    """
    inner = itemsize
    for s in shape[split_dim + 1:]:
        inner *= s
    if split_dim == 0:
        return None, inner
    rows = 1
    for s in shape[:split_dim]:
        rows *= s
    return rows, inner


def ring_pieces(g_lo: int, g_hi: int, cap: int) -> List[RingPiece]:
    """Decompose a global range into contiguous pieces of a ring of
    ``cap`` units: one piece, or two when the range wraps.

    Raises ``ValueError`` if the range is wider than the ring — such a
    range can never be resident at once.
    """
    if g_hi <= g_lo:
        return []
    if g_hi - g_lo > cap:
        raise ValueError(
            f"range [{g_lo}, {g_hi}) wider than ring capacity {cap}"
        )
    pos = g_lo % cap
    # tuple.__new__ builds the named tuple without its Python-level
    # constructor: every chunk transfer of every region comes here
    if pos + (g_hi - g_lo) <= cap:
        return [_new(RingPiece, (g_lo, g_hi, pos))]
    split = g_lo + cap - pos
    return [_new(RingPiece, (g_lo, split, pos)), _new(RingPiece, (split, g_hi, 0))]


class RingGeometry(NamedTuple):
    """One pipelined array's ring layout: a function of its host shape,
    split dimension, ring capacity and dtype alone.

    A :class:`~repro.core.pipemodel.CompiledPlan` keeps one per
    pipelined array (built by :func:`ring_geometry`), so every region
    run from that plan allocates its rings without deriving any of it.
    """

    #: host array shape
    host_shape: Tuple[int, ...]
    split_dim: int
    #: ring capacity in split-dim units
    capacity: int
    dtype: np.dtype
    #: the buffer's shape: the host shape with the split extent
    #: replaced by ``capacity``
    buf_shape: Tuple[int, ...]
    #: elements in one split-dim unit
    unit_elems: int
    itemsize: int
    #: DMA band geometry of one split-dim unit (see :func:`band_geometry`)
    rows: Optional[int]
    unit_row_bytes: int
    #: index template: the split-dim slice goes between these
    prefix: tuple
    suffix: tuple


def ring_geometry(
    shape: Tuple[int, ...], split_dim: int, capacity: int, dtype
) -> RingGeometry:
    """The :class:`RingGeometry` of a ring of ``capacity`` split-dim
    units over a host array of ``shape`` and ``dtype``."""
    if capacity < 1:
        raise ValueError("ring capacity must be >= 1")
    if not (0 <= split_dim < len(shape)):
        raise ValueError("split_dim out of range")
    host_shape = tuple(int(s) for s in shape)
    capacity = int(capacity)
    dtype = np.dtype(dtype)
    buf_shape = list(host_shape)
    buf_shape[split_dim] = capacity
    unit_elems = 1
    for i, s in enumerate(host_shape):
        if i != split_dim:
            unit_elems *= s
    rows, unit_row_bytes = band_geometry(host_shape, split_dim, dtype.itemsize)
    return RingGeometry(
        host_shape, split_dim, capacity, dtype, tuple(buf_shape), unit_elems,
        dtype.itemsize, rows, unit_row_bytes, (slice(None),) * split_dim,
        (slice(None),) * (len(host_shape) - split_dim - 1),
    )


class DeviceRing:
    """A pre-allocated device ring buffer for one pipelined array.

    The ring only allocates: everything else it knows is its
    :class:`RingGeometry`, derived once per plan (see
    :func:`ring_geometry`) and shared by every ring of that plan.

    Parameters
    ----------
    runtime:
        The host runtime (allocates the buffer).
    geometry:
        The ring's layout; the buffer's shape is ``geometry.buf_shape``.
    tag:
        Allocator debug tag.
    """

    def __init__(self, runtime: Runtime, geometry: RingGeometry, tag: str = "") -> None:
        self.geometry = geometry
        (
            self.host_shape, self.split_dim, self.capacity, _dtype, _buf_shape,
            self.unit_elems, self.itemsize, self.rows, self.unit_row_bytes,
            self._prefix, self._suffix,
        ) = geometry
        self.darr: DeviceArray = runtime.malloc(
            geometry.buf_shape, geometry.dtype, tag=tag or "ring"
        )
        # slot views by (pos, extent): ring positions repeat every lap
        self._views: Dict[Tuple[int, int], DeviceArray] = {}

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def pieces(self, g_lo: int, g_hi: int) -> List[RingPiece]:
        """Decompose a global range into contiguous buffer pieces (see
        :func:`ring_pieces`)."""
        return ring_pieces(g_lo, g_hi, self.capacity)

    def _axis_slice(self, lo: int, hi: int):
        return self._prefix + (slice(lo, hi),) + self._suffix

    def device_view(self, piece: RingPiece) -> DeviceArray:
        """Device-array view for one piece (memoized per slot range)."""
        darr = self.darr
        darr._check_alive()
        pos = piece.pos
        key = (pos, piece.g_hi - piece.g_lo)
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = darr[self._axis_slice(pos, pos + key[1])]
        return view

    def host_section(self, host: np.ndarray, piece: RingPiece) -> np.ndarray:
        """Host view for one piece (global coordinates)."""
        return host[self._axis_slice(piece.g_lo, piece.g_hi)]

    # ------------------------------------------------------------------
    # functional access (real mode only)
    # ------------------------------------------------------------------
    def gather(self, g_lo: int, g_hi: int) -> Optional[np.ndarray]:
        """Contiguous copy of a global range, reading ring contents.

        Returns ``None`` in virtual mode.  This is the functional
        equivalent of a kernel reading the ring through modular index
        translation; the copy is host-side machinery only and carries
        no simulated cost (the translated access cost is modelled by
        :attr:`~repro.core.kernel.RegionKernel.index_penalty`).
        """
        if self.darr.is_virtual:
            return None
        ps = self.pieces(g_lo, g_hi)
        if len(ps) == 1:
            p = ps[0]
            return np.ascontiguousarray(self.darr.backing[self._axis_slice(p.pos, p.pos + p.extent)])
        parts = [
            self.darr.backing[self._axis_slice(p.pos, p.pos + p.extent)] for p in ps
        ]
        return np.concatenate(parts, axis=self.split_dim)

    def scatter(self, data: np.ndarray, g_lo: int, g_hi: int) -> None:
        """Write a contiguous block into the ring at a global range."""
        if self.darr.is_virtual:
            return
        off = 0
        for p in self.pieces(g_lo, g_hi):
            src = data[self._axis_slice(off, off + p.extent)]
            self.darr.backing[self._axis_slice(p.pos, p.pos + p.extent)] = src
            off += p.extent

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Device bytes held by the ring."""
        return self.capacity * self.unit_elems * self.itemsize
