"""``chunk_ranges`` is ``chunk_range`` over many chunks at once."""

from __future__ import annotations

import random

import pytest

from repro.directives.clauses import Affine, DirectiveError, PipelineMapClause
from repro.directives.splitspec import chunk_range, chunk_ranges


def _clause(a: int, b: int, size: int, lo: int, extent: int, dep_fn=None):
    return PipelineMapClause(
        direction="to", var="A", split_dim=1, split_iter=Affine(a, b),
        size=size, dims=((0, 8), (lo, extent)), dep_fn=dep_fn,
    )


def _bounds(rng: random.Random, start: int, stop: int) -> list:
    out, t = [], start
    while t < stop:
        step = rng.randint(1, 5)
        out.append((t, min(t + step, stop)))
        t += step
    return out


@pytest.mark.parametrize("seed", range(20))
def test_affine_matches_chunk_range(seed):
    rng = random.Random(seed)
    c = _clause(
        rng.randint(1, 3), rng.randint(-3, 3), rng.randint(1, 4),
        rng.randint(0, 2), rng.randint(20, 60),
    )
    bounds = _bounds(rng, rng.randint(0, 3), rng.randint(10, 20))
    assert chunk_ranges(c, bounds) == [chunk_range(c, t0, t1) for t0, t1 in bounds]


def test_dep_fn_matches_chunk_range():
    c = _clause(1, 0, 1, 0, 40, dep_fn=lambda k: (max(k - 2, 0), k + 3))
    bounds = _bounds(random.Random(0), 0, 30)
    assert chunk_ranges(c, bounds) == [chunk_range(c, t0, t1) for t0, t1 in bounds]


def test_empty_chunk_raises():
    with pytest.raises(DirectiveError):
        chunk_ranges(_clause(1, 0, 1, 0, 40), [(0, 2), (3, 3)])
