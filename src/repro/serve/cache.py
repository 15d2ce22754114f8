"""Plan caching: repeat traffic skips the autotune search.

The cache key is *structural*: two requests share an entry exactly when
the tuned ``(chunk_size, num_streams)`` decision is guaranteed to be
the same for both — same clauses (bound extents included), same array
shapes and dtypes, same loop, same kernel cost model, same device
profile, and the same memory limit.  Function-based dependency clauses
(``dep_fn``) are opaque callables, so regions using them are
uncacheable and always plan fresh.

Entries store only the tuned pipeline parameters, never device state:
a hit re-binds the region against the request's own arrays, so a stale
or mismatched entry can at worst re-tune — it can never leak one
tenant's plan geometry into an incompatible region (the key equality
below is what the property tests pin down).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.core.kernel import RegionKernel
from repro.core.plan import RegionPlan

__all__ = ["PlanCache"]

#: cache value: the tuned ``(chunk_size, num_streams)``
PlanParams = Tuple[int, int]


def _thaw(value):
    """Recursively turn tuples into lists for JSON encoding."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


class PlanCache:
    """LRU cache of tuned pipeline parameters.

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
        self._entries: "OrderedDict[tuple, PlanParams]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0

    @staticmethod
    def key_for(
        plan: RegionPlan,
        kernel: RegionKernel,
        profile_name: str,
        limit_bytes: Optional[int],
    ) -> Optional[tuple]:
        """Structural cache key for a bound (untuned) plan.

        Returns ``None`` when the region cannot be keyed structurally
        (``dep_fn`` clauses) — callers must then plan fresh.
        """
        maps_sig = []
        for var in sorted(plan.specs):
            cl = plan.specs[var].clause
            if cl.dep_fn is not None:
                return None
            maps_sig.append(
                (var, cl.direction, cl.split_dim, str(cl.split_iter),
                 cl.size, tuple(cl.dims))
            )
        residents_sig = tuple(
            (var, plan.residents[var].direction) for var in sorted(plan.residents)
        )
        arrays_sig = tuple(
            (var, tuple(plan.shapes[var]), str(plan.dtypes[var]))
            for var in sorted(plan.shapes)
        )
        return (
            kernel.name,
            (plan.loop.var, plan.loop.start, plan.loop.stop),
            (plan.schedule, plan.chunk_size, plan.num_streams, plan.halo_mode),
            tuple(maps_sig),
            residents_sig,
            arrays_sig,
            profile_name,
            int(limit_bytes) if limit_bytes is not None else None,
        )

    def get(self, key: Optional[tuple]) -> Optional[PlanParams]:
        """Tuned parameters for ``key``, or ``None`` (counted as miss)."""
        if key is None:
            self.uncacheable += 1
            return None
        params = self._entries.get(key)
        if params is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return params

    def put(self, key: Optional[tuple], chunk_size: int, num_streams: int) -> None:
        """Store the tuned parameters for ``key`` (no-op if uncacheable)."""
        if key is None:
            return
        self._entries[key] = (int(chunk_size), int(num_streams))
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hits over all keyed lookups (0.0 when none)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def dump_entries(self) -> list:
        """JSON-safe LRU-ordered entry list for checkpoints (keys, nested
        tuples of str/int/``None``, become nested lists)."""
        return [[_thaw(key), list(params)] for key, params in self._entries.items()]

    def stats(self) -> Dict[str, object]:
        """JSON-safe counters."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "uncacheable": self.uncacheable,
            "hit_rate": self.hit_rate,
        }
