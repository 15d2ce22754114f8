"""Plan caching: repeat traffic skips the autotune search and the
derivation behind every open.

The cache key is *structural* (:meth:`PlanCache.key_for`): the kernel's
``name``, the loop, the pragma's pipeline parameters, every clause (bound
extents included), array shapes and dtypes, the device profile's name
and the memory limit.  It is computed from the region and its arrays
without binding them.  The kernel enters by name only, not by its cost
model, so two kernels of one name that price work differently share an
entry.  Function-based dependency clauses (``dep_fn``) are opaque
callables, so regions using them are uncacheable and always plan fresh.

An entry holds the tuned pipeline parameters and, once a request has
needed it, the :class:`~repro.core.pipemodel.CompiledPlan` tuned under
them: the plan, its footprint, chunks, dependency ranges and ring
capacities.  All of it is a function of the key, and none of it is
device state or a kernel's cost: each request still allocates its own
device memory, and each issuer prices its chunks with its own kernel.
A hit opens from the entry's compiled plan, so a warm request binds
nothing and derives nothing.  Checkpoints (:meth:`dump_entries`) hold
the parameters only; an entry restored from one compiles again on its
first hit.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.core.kernel import RegionKernel
from repro.core.pipemodel import CompiledPlan
from repro.core.plan import stream_count

if TYPE_CHECKING:
    from repro.core.region import TargetRegion

__all__ = ["PlanCache"]

#: cache value: the tuned ``(chunk_size, num_streams)``
PlanParams = Tuple[int, int]


@lru_cache(maxsize=64)
def _dtype_name(dtype) -> str:
    """``str(np.dtype(dtype))``, remembered: numpy formats a dtype's name
    anew on every ``str``, which made it the dearest step of a key."""
    return str(np.dtype(dtype))


def _thaw(value):
    """Recursively turn tuples into lists for JSON encoding."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


class PlanCache:
    """LRU cache of tuned pipeline parameters and their compiled plans.

    Parameters
    ----------
    capacity:
        Maximum number of entries; least-recently-used entries are
        evicted beyond it.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: key -> ``[params, compiled plan or None, JSON-safe key or None]``
        #: (the key is thawed on the entry's first :meth:`dump_entries`)
        self._entries: "OrderedDict[tuple, list]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0

    @staticmethod
    def key_for(
        region: "TargetRegion",
        arrays: Dict[str, np.ndarray],
        kernel: RegionKernel,
        profile_name: str,
        limit_bytes: Optional[int],
    ) -> Optional[tuple]:
        """Structural cache key of ``region`` over ``arrays``.

        The key is the one the region's bound plan
        (:meth:`~repro.core.TargetRegion.bind`) would give: each split
        dimension left unbound by the pragma takes its array's extent,
        and the stream count is clamped to the chunk count as
        :class:`~repro.core.plan.RegionPlan` clamps it.  Only the shapes
        and dtypes of ``arrays`` are read.  Raises ``bind``'s
        :class:`~repro.directives.DirectiveError` when an array is
        missing.  Returns ``None`` when the region cannot be keyed
        structurally (``dep_fn`` clauses) — callers must then plan fresh.
        """
        maps: Dict[str, tuple] = {}
        shapes: Dict[str, tuple] = {}
        uncacheable = False
        for cl in region.pipeline_maps:
            host = arrays.get(cl.var)
            if host is None:
                region.bind(arrays)  # raises the error bind meets first
            dims = tuple(cl.dims)
            split = cl.split_dim
            if dims[split][1] == -1:
                dims = dims[:split] + ((0, int(host.shape[split])),) + dims[split + 1:]
            uncacheable = uncacheable or cl.dep_fn is not None
            maps[cl.var] = (
                cl.var, cl.direction, split, str(cl.split_iter), cl.size, dims,
            )
            shapes[cl.var] = (cl.var, tuple(host.shape), _dtype_name(host.dtype))
        residents: Dict[str, tuple] = {}
        for m in region.maps:
            host = arrays.get(m.var)
            if host is None:
                region.bind(arrays)
            residents[m.var] = (m.var, m.direction)
            shapes[m.var] = (m.var, tuple(host.shape), _dtype_name(host.dtype))
        if uncacheable:
            return None
        loop, pipe = region.loop, region.pipeline
        return (
            kernel.name,
            (loop.var, loop.start, loop.stop),
            (
                pipe.schedule, pipe.chunk_size,
                stream_count(pipe.schedule, loop, pipe.chunk_size, pipe.num_streams),
                region.halo_mode,
            ),
            # each entry leads with its (unique) variable: sorted by it
            tuple(sorted(maps.values())),
            tuple(sorted(residents.values())),
            tuple(sorted(shapes.values())),
            profile_name,
            int(limit_bytes) if limit_bytes is not None else None,
        )

    def __contains__(self, key: Optional[tuple]) -> bool:
        """Whether ``key`` has an entry (counted as neither hit nor miss)."""
        return key is not None and key in self._entries

    def get(self, key: Optional[tuple]) -> Optional[PlanParams]:
        """Tuned parameters for ``key``, or ``None`` (counted as miss)."""
        if key is None:
            self.uncacheable += 1
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: Optional[tuple], chunk_size: int, num_streams: int) -> None:
        """Store the tuned parameters for ``key`` (no-op if uncacheable)."""
        if key is None:
            return
        self._entries[key] = [(int(chunk_size), int(num_streams)), None, None]
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def get_compiled(self, key: Optional[tuple]) -> Optional[CompiledPlan]:
        """The compiled plan kept with ``key``'s entry, or ``None`` when
        there is none yet (not counted: :meth:`get` counts the lookup)."""
        entry = self._entries.get(key) if key is not None else None
        return None if entry is None else entry[1]

    def put_compiled(self, key: Optional[tuple], compiled: CompiledPlan) -> None:
        """Keep ``compiled``, the plan tuned under ``key``'s parameters,
        with its entry (no-op without one)."""
        entry = self._entries.get(key) if key is not None else None
        if entry is not None:
            entry[1] = compiled

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hits over all keyed lookups (0.0 when none)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def dump_entries(self) -> list:
        """JSON-safe LRU-ordered entry list for checkpoints (keys, nested
        tuples of str/int/``None``, become nested lists).  Each entry's
        key is thawed once and its lists are shared by every later dump:
        encode them, do not mutate them."""
        out = []
        for key, entry in self._entries.items():
            if entry[2] is None:
                entry[2] = _thaw(key)
            out.append([entry[2], list(entry[0])])
        return out

    def stats(self) -> Dict[str, object]:
        """JSON-safe counters."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "uncacheable": self.uncacheable,
            "hit_rate": self.hit_rate,
        }
