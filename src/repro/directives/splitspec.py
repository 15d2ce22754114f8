"""Array-section range math for ``pipeline_map`` clauses.

The runtime repeatedly needs the answer to one question: *which slice
of the split dimension does chunk ``[t0, t1)`` of the loop depend on?*

For a clause ``var[f(k):size]`` with affine ``f`` (positive slope) the
iteration ``k`` touches ``[f(k), f(k) + size)``, so the chunk touches

.. math:: [f(t_0),\\ f(t_1 - 1) + size)

clamped to the dimension's mapped extent.  For a **function-based**
clause (``dep_fn``, the paper's future-work extension) the iteration
touches whatever half-open range the function returns; both endpoints
must be non-decreasing in ``k``, which :meth:`SplitSpec.derive`
validates over the whole loop, so the chunk range is again determined
by the endpoints.  Everything else — halo width, per-chunk extents,
ring-buffer capacities — derives from this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.directives.clauses import Affine, DirectiveError, Loop, PipelineMapClause

__all__ = ["SplitSpec", "iter_range", "chunk_range", "chunk_ranges"]


def _raw_iter_range(clause: PipelineMapClause, k: int) -> Tuple[int, int]:
    """Unclamped split-dim slice iteration ``k`` touches."""
    if clause.dep_fn is not None:
        lo, hi = clause.dep_fn(k)
        lo, hi = int(lo), int(hi)
        if hi <= lo:
            raise DirectiveError(
                f"{clause.var}: dep_fn({k}) returned empty range [{lo}, {hi})"
            )
        return lo, hi
    lo = clause.split_iter(k)
    return lo, lo + clause.size


def _clamp(clause: PipelineMapClause, lo: int, hi: int) -> Tuple[int, int]:
    d_lo, d_len = clause.dims[clause.split_dim]
    return max(lo, d_lo), min(hi, d_lo + d_len)


def iter_range(clause: PipelineMapClause, k: int) -> Tuple[int, int]:
    """Half-open split-dim slice a single iteration ``k`` touches,
    clamped to the mapped extent."""
    return _clamp(clause, *_raw_iter_range(clause, k))


def chunk_range(clause: PipelineMapClause, t0: int, t1: int) -> Tuple[int, int]:
    """Half-open split-dim slice the chunk of iterations ``[t0, t1)``
    touches, clamped to the mapped extent.

    Relies on the endpoints being non-decreasing in ``k`` (guaranteed
    for affine clauses by the positive slope; validated for ``dep_fn``
    clauses at bind time)."""
    if t1 <= t0:
        raise DirectiveError(f"empty chunk [{t0}, {t1})")
    lo = _raw_iter_range(clause, t0)[0]
    hi = _raw_iter_range(clause, t1 - 1)[1]
    return _clamp(clause, lo, hi)


def chunk_ranges(
    clause: PipelineMapClause, bounds: Iterable[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """:func:`chunk_range` of every chunk ``(t0, t1)`` in ``bounds``.

    The affine case runs as one loop with no call per chunk: every
    chunk of every region and every dry-run candidate comes through
    here.
    """
    f = clause.split_iter
    if clause.dep_fn is not None or type(f) is not Affine:
        return [chunk_range(clause, t0, t1) for t0, t1 in bounds]
    a, b, size = f.a, f.b, clause.size
    d_lo, d_len = clause.dims[clause.split_dim]
    d_hi = d_lo + d_len
    out = []
    for t0, t1 in bounds:
        if t1 <= t0:
            raise DirectiveError(f"empty chunk [{t0}, {t1})")
        lo = a * t0 + b
        hi = a * (t1 - 1) + b + size
        out.append((lo if lo > d_lo else d_lo, hi if hi < d_hi else d_hi))
    return out


@dataclass(frozen=True)
class SplitSpec:
    """Derived geometry of one pipelined array within a region.

    Attributes
    ----------
    clause:
        The originating ``pipeline_map`` clause.
    loop:
        The pipelined loop.
    unit_elems:
        Elements in one split-dim "plane" (product of the other mapped
        dimension lengths).
    iter_ranges:
        For ``dep_fn`` clauses: the precomputed, validated per-iteration
        (lo, hi) pairs in loop order.  ``None`` for affine clauses.
    """

    clause: PipelineMapClause
    loop: Loop
    unit_elems: int
    iter_ranges: Optional[Tuple[Tuple[int, int], ...]] = None

    @classmethod
    def derive(cls, clause: PipelineMapClause, loop: Loop) -> "SplitSpec":
        """Build the spec, validating the clause against the loop.

        For function-based clauses every iteration's range is evaluated
        once here, checked for monotone endpoints, and cached.
        """
        iter_ranges = None
        if clause.dep_fn is not None:
            ranges = []
            prev: Optional[Tuple[int, int]] = None
            for k in loop.iterations():
                r = _raw_iter_range(clause, k)
                if prev is not None and (r[0] < prev[0] or r[1] < prev[1]):
                    raise DirectiveError(
                        f"{clause.var}: dep_fn endpoints must be "
                        f"non-decreasing (k={k}: {prev} -> {r})"
                    )
                ranges.append(r)
                prev = r
            iter_ranges = tuple(ranges)
        lo, hi = chunk_range(clause, loop.start, loop.stop)
        if hi <= lo:
            raise DirectiveError(
                f"pipeline_map({clause.var}) dependency range empty over the loop"
            )
        unit = 1
        for i, (_, length) in enumerate(clause.dims):
            if length < 1:
                raise DirectiveError(f"dimension {i} of {clause.var} has length {length}")
            if i != clause.split_dim:
                unit *= length
        return cls(clause, loop, unit, iter_ranges)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def split_dim(self) -> int:
        """Index of the split dimension."""
        return self.clause.split_dim

    @property
    def split_extent(self) -> int:
        """Mapped length of the split dimension."""
        return self.clause.dims[self.clause.split_dim][1]

    def chunk_extent(self, chunk_size: int) -> int:
        """Worst-case split-dim extent one chunk of ``chunk_size``
        iterations depends on (before clamping)."""
        if self.iter_ranges is None:
            return self.clause.split_iter.a * (chunk_size - 1) + self.clause.size
        n = len(self.iter_ranges)
        best = 0
        for i in range(n):
            j = min(i + chunk_size - 1, n - 1)
            best = max(best, self.iter_ranges[j][1] - self.iter_ranges[i][0])
        return best

    def window_extent(self, chunk_size: int, num_streams: int) -> int:
        """Worst-case split-dim extent the union of ``num_streams``
        consecutive chunks depends on — the live window a ring buffer
        must hold."""
        return self.chunk_extent(chunk_size * num_streams)

    def prefetch_slack(self, chunk_size: int) -> int:
        """Extra ring units kept beyond the live window so the next
        chunk's transfers can start before the oldest chunk retires."""
        return self.chunk_extent(chunk_size)

    def bytes_per_unit(self, itemsize: int) -> int:
        """Bytes in one split-dim plane."""
        return self.unit_elems * itemsize

    def full_bytes(self, itemsize: int) -> int:
        """Bytes of the whole mapped section."""
        return self.split_extent * self.unit_elems * itemsize

    def total_range(self) -> Tuple[int, int]:
        """Split-dim slice the whole loop depends on (clamped)."""
        return chunk_range(self.clause, self.loop.start, self.loop.stop)

    def validate_shape(self, shape: Tuple[int, ...]) -> None:
        """Check a host array's shape against the clause's sections."""
        if len(shape) != self.clause.ndim:
            raise DirectiveError(
                f"{self.clause.var}: array rank {len(shape)} != clause rank "
                f"{self.clause.ndim}"
            )
        for i, ((lo, length), extent) in enumerate(zip(self.clause.dims, shape)):
            if lo < 0 or lo + length > extent:
                raise DirectiveError(
                    f"{self.clause.var}: section [{lo}:{length}] exceeds "
                    f"dimension {i} extent {extent}"
                )
