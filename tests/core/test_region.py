"""Unit tests for TargetRegion binding and dispatch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TargetRegion
from repro.core.kernel import ChunkView, RegionKernel
from repro.directives.clauses import DirectiveError, Loop, PipelineClause
from repro.gpu import Runtime
from repro.sim import NVIDIA_K40M

PRAGMA = (
    "pipeline(static[2,3]) "
    "pipeline_map(to: IN[k-1:3][0:8]) "
    "pipeline_map(from: OUT[k:1][0:8]) "
    "map(tofrom: ACC)"
)


class NullKernel(RegionKernel):
    name = "null"
    index_penalty = 0.0

    def cost(self, profile, t0, t1):
        return (t1 - t0) * 1e-6

    def run(self, views, t0, t1):
        pass


def arrays(n=32):
    return {
        "IN": np.zeros((n, 8)),
        "OUT": np.zeros((n, 8)),
        "ACC": np.zeros((4, 4)),
    }


class TestConstruction:
    def test_parse_builds_region(self):
        r = TargetRegion.parse(PRAGMA, Loop("k", 1, 31))
        assert r.pipeline.chunk_size == 2
        assert len(r.pipeline_maps) == 2
        assert r.maps[0].var == "ACC"

    def test_needs_pipeline_map(self):
        with pytest.raises(DirectiveError):
            TargetRegion(PipelineClause(), [], Loop("k", 0, 4))


class TestBinding:
    def test_bind_fills_split_extent(self):
        r = TargetRegion.parse(PRAGMA, Loop("k", 1, 31))
        plan = r.bind(arrays())
        assert plan.specs["IN"].split_extent == 32
        assert plan.shapes["ACC"] == (4, 4)
        assert plan.dtypes["OUT"] == np.dtype(np.float64)

    def test_bind_missing_array_rejected(self):
        r = TargetRegion.parse(PRAGMA, Loop("k", 1, 31))
        a = arrays()
        del a["OUT"]
        with pytest.raises(DirectiveError):
            r.bind(a)

    def test_bind_missing_resident_rejected(self):
        r = TargetRegion.parse(PRAGMA, Loop("k", 1, 31))
        a = arrays()
        del a["ACC"]
        with pytest.raises(DirectiveError):
            r.bind(a)

    def test_bind_wrong_rank_rejected(self):
        r = TargetRegion.parse(PRAGMA, Loop("k", 1, 31))
        a = arrays()
        a["IN"] = np.zeros((32, 8, 2))
        with pytest.raises(DirectiveError):
            r.bind(a)

    def test_bind_section_overrun_rejected(self):
        r = TargetRegion.parse(PRAGMA, Loop("k", 1, 31))
        a = arrays()
        a["IN"] = np.zeros((32, 4))  # section says [0:8]
        with pytest.raises(DirectiveError):
            r.bind(a)

    def test_plan_for_applies_device_free_memory(self, k40m):
        r = TargetRegion.parse(PRAGMA, Loop("k", 1, 31))
        plan = r.plan_for(k40m, arrays())
        assert plan.device_bytes() <= k40m.device.memory.free


class TestDispatch:
    def test_all_models_run_and_report_their_name(self, k40m):
        r = TargetRegion.parse(PRAGMA, Loop("k", 1, 31))
        a = arrays()
        assert (
            r.run(Runtime(NVIDIA_K40M), a, NullKernel(), model="naive").model
            == "naive"
        )
        assert (
            r.run(Runtime(NVIDIA_K40M), a, NullKernel(), model="pipelined").model
            == "pipelined"
        )
        assert r.run(Runtime(NVIDIA_K40M), a, NullKernel()).model == "pipelined-buffer"

    def test_model_aliases_and_rejection(self, k40m):
        r = TargetRegion.parse(PRAGMA, Loop("k", 1, 31))
        a = arrays()
        res = r.run(Runtime(NVIDIA_K40M), a, NullKernel(), model="pipelined-buffer")
        assert res.model == "pipelined-buffer"
        with pytest.raises(DirectiveError):
            r.run(Runtime(NVIDIA_K40M), a, NullKernel(), model="bogus")

    def test_resident_tofrom_roundtrips(self):
        """A tofrom map must copy host->device and back even if the
        kernel never touches it."""
        rt = Runtime(NVIDIA_K40M)
        r = TargetRegion.parse(PRAGMA, Loop("k", 1, 31))
        a = arrays()
        a["ACC"][...] = 7.0
        r.run(rt, a, NullKernel())
        assert np.all(a["ACC"] == 7.0)


class TestChunkView:
    def test_local_translation(self):
        v = ChunkView(np.zeros((5, 4)), 0, 10, 15)
        assert v.local(12) == 2
        assert v.local_slice(11, 14) == slice(1, 4)

    def test_local_slice_bounds_checked(self):
        v = ChunkView(np.zeros((5, 4)), 0, 10, 15)
        with pytest.raises(IndexError):
            v.local_slice(9, 12)
        with pytest.raises(IndexError):
            v.local_slice(12, 16)

    def test_take_along_split_dim(self):
        data = np.arange(20).reshape(5, 4)
        v = ChunkView(data, 0, 10, 15)
        assert np.array_equal(v.take(11, 13), data[1:3])

    def test_take_inner_split_dim(self):
        data = np.arange(20).reshape(4, 5)
        v = ChunkView(data, 1, 10, 15)
        assert np.array_equal(v.take(11, 13), data[:, 1:3])

    def test_take_on_resident_rejected(self):
        v = ChunkView(np.zeros((5, 4)), None, 0, 5)
        with pytest.raises(ValueError):
            v.take(0, 2)

    def test_chunk_cost_penalty(self):
        class K(NullKernel):
            index_penalty = 0.10

        k = K()
        base = k.chunk_cost(NVIDIA_K40M, 0, 10, translated=False)
        trans = k.chunk_cost(NVIDIA_K40M, 0, 10, translated=True)
        assert trans == pytest.approx(base * 1.10)
