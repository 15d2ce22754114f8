"""Unit tests for chunk planning and buffer sizing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn

from repro.core.plan import Chunk, RegionPlan, make_chunks
from repro.directives.clauses import Affine, DirectiveError, Loop, MapClause, PipelineMapClause
from repro.directives.splitspec import SplitSpec


def stencil_plan(nz=64, ny=16, nx=16, cs=1, ns=3, schedule="static", halo="dedup"):
    loop = Loop("k", 1, nz - 1)
    a0 = PipelineMapClause(
        direction="to", var="A0", split_dim=0, split_iter=Affine(1, -1), size=3,
        dims=((0, nz), (0, ny), (0, nx)),
    )
    an = PipelineMapClause(
        direction="from", var="Anext", split_dim=0, split_iter=Affine(1, 0), size=1,
        dims=((0, nz), (0, ny), (0, nx)),
    )
    return RegionPlan(
        loop=loop,
        chunk_size=cs,
        num_streams=ns,
        schedule=schedule,
        specs={"A0": SplitSpec.derive(a0, loop), "Anext": SplitSpec.derive(an, loop)},
        residents={},
        dtypes={"A0": np.dtype(np.float32), "Anext": np.dtype(np.float32)},
        shapes={"A0": (nz, ny, nx), "Anext": (nz, ny, nx)},
        halo_mode=halo,
    )


class TestMakeChunks:
    def test_exact_tiling(self):
        chunks = make_chunks(Loop("k", 0, 12), 4)
        assert [(c.t0, c.t1) for c in chunks] == [(0, 4), (4, 8), (8, 12)]

    def test_ragged_last_chunk(self):
        chunks = make_chunks(Loop("k", 1, 10), 4)
        assert [(c.t0, c.t1) for c in chunks] == [(1, 5), (5, 9), (9, 10)]
        assert chunks[-1].trip == 1

    def test_indices_sequential(self):
        chunks = make_chunks(Loop("k", 0, 7), 2)
        assert [c.index for c in chunks] == [0, 1, 2, 3]

    def test_chunk_larger_than_loop(self):
        chunks = make_chunks(Loop("k", 0, 3), 100)
        assert len(chunks) == 1 and chunks[0].trip == 3

    def test_invalid_chunk_size(self):
        with pytest.raises(DirectiveError):
            make_chunks(Loop("k", 0, 3), 0)


class TestChunksCoverLoop:
    @pytest.mark.parametrize("cs", [1, 2, 3, 5, 7, 62, 100])
    def test_every_iteration_exactly_once(self, cs):
        plan = stencil_plan(cs=cs)
        seen = []
        for c in plan.chunks():
            seen.extend(range(c.t0, c.t1))
        assert seen == list(plan.loop.iterations())


class TestBufferSizing:
    def test_input_ring_smaller_than_full_array(self):
        plan = stencil_plan(nz=256, cs=1, ns=3)
        assert plan.ring_capacity("A0") < 256
        assert plan.buffer_bytes("A0") < plan.specs["A0"].full_bytes(4)

    def test_ring_capacity_holds_live_window(self):
        plan = stencil_plan(cs=2, ns=3)
        # 3 in-flight chunks of 2 iterations with halo 1 each side
        assert plan.ring_capacity("A0") >= plan.specs["A0"].window_extent(2, 3)

    def test_output_uses_slot_capacity(self):
        plan = stencil_plan(cs=2, ns=3)
        assert plan.ring_capacity("Anext") == 3 * plan.slot_extent("Anext")

    def test_capacity_capped_at_extent(self):
        plan = stencil_plan(nz=8, cs=4, ns=4)
        assert plan.ring_capacity("A0") <= 8

    def test_duplicate_mode_slots(self):
        plan = stencil_plan(cs=1, ns=4, halo="duplicate")
        # slot extent = chunk dep extent = 3 planes
        assert plan.slot_extent("A0") == 3
        assert plan.ring_capacity("A0") == 12

    def test_device_bytes_sums_buffers_and_residents(self):
        plan = stencil_plan(ny=8, nx=8)
        plan.residents["C"] = MapClause("tofrom", "C")
        plan.dtypes["C"] = np.dtype(np.float64)
        plan.shapes["C"] = (10, 10)
        assert plan.device_bytes() == (
            plan.buffer_bytes("A0") + plan.buffer_bytes("Anext") + 800
        )

    def test_more_streams_need_more_memory(self):
        b2 = stencil_plan(nz=512, ns=2).device_bytes()
        b8 = stencil_plan(nz=512, ns=8).device_bytes()
        assert b8 > b2

    def test_with_params_copies(self):
        plan = stencil_plan(cs=1, ns=2)
        p2 = plan.with_params(4, 8)
        assert (p2.chunk_size, p2.num_streams) == (4, 8)
        assert (plan.chunk_size, plan.num_streams) == (1, 2)

    def test_streams_clamped_to_chunk_count(self):
        plan = stencil_plan(nz=4, cs=2, ns=16)  # only 1 chunk
        assert plan.num_streams <= len(plan.chunks())


class TestAdaptivePlan:
    def test_adaptive_chunks_cover_loop(self):
        plan = stencil_plan(nz=256, cs=1, ns=2, schedule="adaptive")
        seen = []
        for c in plan.chunks():
            seen.extend(range(c.t0, c.t1))
        assert seen == list(plan.loop.iterations())

    def test_adaptive_ramps_up(self):
        plan = stencil_plan(nz=256, cs=1, ns=2, schedule="adaptive")
        sizes = [c.trip for c in plan.chunks()]
        assert sizes[0] == 1
        assert max(sizes) > 1
        assert max(sizes) <= plan.max_chunk_size

    def test_adaptive_fewer_chunks_than_static(self):
        static = stencil_plan(nz=256, cs=1, ns=2, schedule="static")
        adaptive = stencil_plan(nz=256, cs=1, ns=2, schedule="adaptive")
        assert len(adaptive.chunks()) < len(static.chunks())

    def test_max_chunk_size_bounds(self):
        plan = stencil_plan(nz=256, cs=2, ns=2, schedule="adaptive")
        from repro.core.scheduler import ADAPTIVE_MAX_FACTOR

        assert plan.max_chunk_size == 2 * ADAPTIVE_MAX_FACTOR


class TestDescribe:
    def test_describe_mentions_key_facts(self):
        desc = stencil_plan().describe()
        assert "streams=3" in desc and "halo=dedup" in desc

    def test_bad_halo_mode_rejected(self):
        with pytest.raises(DirectiveError):
            stencil_plan(halo="mystery")

    def test_chunk_dep_range(self):
        plan = stencil_plan()
        c = Chunk(0, 1, 2)
        assert plan.chunk_dep_range("A0", c) == (0, 3)
        assert plan.chunk_dep_range("Anext", c) == (1, 2)


class TestParameterValidation:
    """Pipeline parameters are validated at plan construction."""

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_nonpositive_chunk_size_rejected(self, bad):
        from repro.gpu.errors import InvalidValueError

        with pytest.raises(InvalidValueError, match="chunk_size"):
            stencil_plan(cs=bad)

    @pytest.mark.parametrize("bad", [0, -1, -3])
    def test_nonpositive_num_streams_rejected(self, bad):
        from repro.gpu.errors import InvalidValueError

        with pytest.raises(InvalidValueError, match="num_streams"):
            stencil_plan(ns=bad)

    @pytest.mark.parametrize("bad", [1.5, "2", 2.0, True, None])
    def test_non_integer_parameters_rejected(self, bad):
        from repro.gpu.errors import InvalidValueError

        with pytest.raises(InvalidValueError):
            stencil_plan(cs=bad)
        with pytest.raises(InvalidValueError):
            stencil_plan(ns=bad)

    def test_numpy_integers_accepted(self):
        plan = stencil_plan(cs=np.int64(2), ns=np.int32(2))
        assert plan.chunk_size == 2 and plan.num_streams == 2


class TestChunkCount:
    @given(
        trip=stn.integers(1, 300),
        cs=stn.integers(1, 40),
        ns=stn.integers(1, 9),
        schedule=stn.sampled_from(["static", "adaptive"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_nchunks_counts_the_schedule(self, trip, cs, ns, schedule):
        plan = stencil_plan(nz=trip + 2, cs=cs, ns=ns, schedule=schedule)
        assert plan.nchunks == len(plan.chunks())
        assert plan.num_streams == min(ns, plan.nchunks)

    def test_numpy_chunk_size_counts_as_int(self):
        plan = stencil_plan(nz=12, cs=np.int64(4))
        assert plan.nchunks == 3 and type(plan.nchunks) is int
