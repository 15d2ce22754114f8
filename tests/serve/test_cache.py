"""Unit tests of the structural plan cache."""

from __future__ import annotations

import pytest

from repro.serve import PlanCache, build_request


def _region(app="stencil", config=None):
    """``((region, arrays), kernel)`` of one request."""
    req = build_request(app, config=config or {"nz": 18, "ny": 48, "nx": 48})
    return (req.region, req.arrays), req.kernel


# ----------------------------------------------------------------------
# key structure
# ----------------------------------------------------------------------
def test_same_request_same_key():
    p1, k1 = _region()
    p2, k2 = _region()
    assert PlanCache.key_for(*p1, k1, "k40m", 100) == PlanCache.key_for(
        *p2, k2, "k40m", 100
    )


@pytest.mark.parametrize(
    "other",
    [
        {"nz": 26, "ny": 48, "nx": 48},  # different split extent
        {"nz": 18, "ny": 64, "nx": 64},  # different inner shape
        {"nz": 18, "ny": 48, "nx": 48, "chunk_size": 4},  # pragma params
        {"nz": 18, "ny": 48, "nx": 48, "num_streams": 3},
    ],
)
def test_shape_or_param_change_changes_key(other):
    p1, k1 = _region()
    p2, k2 = _region(config=other)
    assert PlanCache.key_for(*p1, k1, "k40m", 100) != PlanCache.key_for(
        *p2, k2, "k40m", 100
    )


def test_profile_and_limit_are_part_of_the_key():
    region, kernel = _region()
    base = PlanCache.key_for(*region, kernel, "k40m", 100)
    assert base != PlanCache.key_for(*region, kernel, "hd7970", 100)
    assert base != PlanCache.key_for(*region, kernel, "k40m", 200)
    assert base != PlanCache.key_for(*region, kernel, "k40m", None)


def test_different_apps_never_collide():
    p1, k1 = _region("stencil")
    p2, k2 = _region("conv3d", config={"nz": 18, "ny": 48, "nx": 48})
    assert PlanCache.key_for(*p1, k1, "k40m", 100) != PlanCache.key_for(
        *p2, k2, "k40m", 100
    )


def test_dep_fn_regions_are_uncacheable():
    import numpy as np

    from repro.core import TargetRegion, make_kernel
    from repro.directives.clauses import (
        Affine,
        Loop,
        PipelineClause,
        PipelineMapClause,
    )

    clause = PipelineMapClause(
        direction="to",
        var="A",
        split_dim=0,
        split_iter=Affine(1, 0),
        size=1,
        dims=((0, 8), (0, 8)),
        dep_fn=lambda k: (k, k + 1),
    )
    region = TargetRegion(
        pipeline=PipelineClause("static", 1, 2),
        pipeline_maps=[clause],
        loop=Loop("k", 0, 8),
    )
    kernel = make_kernel(
        cost=lambda profile, t0, t1: (t1 - t0) * 1e-6,
        body=lambda views, t0, t1: None,
        name="noop",
    )
    arrays = {"A": np.zeros((8, 8))}
    assert PlanCache.key_for(region, arrays, kernel, "k40m", 100) is None
    cache = PlanCache()
    assert cache.get(None) is None
    cache.put(None, 1, 2)
    assert len(cache) == 0
    assert cache.stats()["uncacheable"] == 1


# ----------------------------------------------------------------------
# LRU mechanics
# ----------------------------------------------------------------------
def test_get_put_and_counters():
    cache = PlanCache()
    key = ("k",)
    assert cache.get(key) is None
    cache.put(key, 4, 2)
    assert cache.get(key) == (4, 2)
    assert cache.hits == 1
    assert cache.misses == 1
    assert cache.hit_rate == 0.5
    stats = cache.stats()
    assert stats["entries"] == 1
    assert stats["hit_rate"] == 0.5


def test_lru_eviction_order():
    cache = PlanCache(capacity=2)
    cache.put(("a",), 1, 1)
    cache.put(("b",), 2, 2)
    assert cache.get(("a",)) == (1, 1)  # refresh a; b is now LRU
    cache.put(("c",), 3, 3)
    assert cache.get(("b",)) is None
    assert cache.get(("a",)) == (1, 1)
    assert cache.get(("c",)) == (3, 3)
    assert len(cache) == 2


def test_capacity_validation():
    with pytest.raises(ValueError):
        PlanCache(capacity=0)


def test_mismatched_key_never_returns_a_plan():
    cache = PlanCache()
    cache.put(("a",), 8, 4)
    assert cache.get(("b",)) is None
    assert cache.get(("a", "x")) is None
    assert cache.get(("a",)) == (8, 4)


def _thawed(value):
    """The checkpoint form of a key, thawed afresh: tuples become lists."""
    if isinstance(value, tuple):
        return [_thawed(v) for v in value]
    return value


def test_dump_entries_match_a_fresh_thaw_across_reorders_and_evictions():
    """Each entry keeps its key's checkpoint form from its first dump; the
    dumps stay the keys thawed afresh, in LRU order, whatever the gets,
    re-puts and evictions in between."""
    cache = PlanCache(capacity=3)
    keys = [PlanCache.key_for(*p, k, "k40m", None) for p, k in (
        _region(),
        _region(config={"nz": 26, "ny": 48, "nx": 48}),
        _region("conv3d"),
        _region("qcd", {"n": 6}),
    )]
    keys.append(("flat", None, 3))

    steps = [
        ("put", 0), ("put", 1), ("dump",), ("put", 2), ("get", 0), ("dump",),
        ("put", 3), ("dump",), ("get", 2), ("put", 4), ("dump",), ("put", 2),
        ("get", 4), ("dump",), ("put", 0), ("dump",), ("dump",),
    ]
    for i, (op, *arg) in enumerate(steps):
        if op == "put":
            cache.put(keys[arg[0]], i + 1, 2)
        elif op == "get":
            cache.get(keys[arg[0]])
        else:
            want = [
                [_thawed(key), list(entry[0])] for key, entry in cache._entries.items()
            ]
            assert cache.dump_entries() == want
    assert [key for key, _params in cache.dump_entries()] == [
        _thawed(keys[i]) for i in (2, 4, 0)
    ]
