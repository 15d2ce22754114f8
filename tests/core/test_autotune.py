"""Tests for the auto-tuning scheduler (paper future work)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.autotune import AutotuneReport, autotune, candidate_grid
from repro.core.memlimit import MemLimitError
from repro.gpu import Runtime
from repro.sim import AMD_HD7970, NVIDIA_K40M
from repro.sim.engine import Command, EventToken, Simulator

from tests.core.test_executor import ScaleKernel, make_arrays, make_region, run


class TestCandidateGrid:
    def test_grid_shape(self):
        grid = candidate_grid(64)
        sizes = {cs for cs, _ in grid}
        streams = {ns for _, ns in grid}
        assert sizes == {1, 2, 4, 8, 16, 32}
        assert streams == {1, 2, 3, 4, 8}

    def test_streams_clamped(self):
        grid = candidate_grid(64, max_streams=2)
        assert {ns for _, ns in grid} == {1, 2}

    def test_tiny_loop(self):
        grid = candidate_grid(2)
        assert {cs for cs, _ in grid} == {1}

    def test_empty_loop_rejected(self):
        with pytest.raises(ValueError):
            candidate_grid(0)


class TestAutotune:
    def heavy_arrays(self, n=128):
        rng = np.random.default_rng(3)
        a = rng.random((n, 32768))
        return {"IN": a, "OUT": np.zeros_like(a)}

    def test_report_structure(self):
        n = 64
        region = make_region(n)
        rep = autotune(
            region, Runtime(NVIDIA_K40M), make_arrays(n), ScaleKernel(), max_streams=4
        )
        assert isinstance(rep, AutotuneReport)
        assert rep.best.feasible
        assert rep.dry_runs == len([c for c in rep.candidates if c.feasible])
        assert rep.best.elapsed == min(
            c.elapsed for c in rep.candidates if c.feasible
        )
        assert "best" in rep.table()

    def test_best_beats_worst_static_choice(self):
        n = 128
        kernel = ScaleKernel(cost_per_iter=25e-6)
        arrays = self.heavy_arrays(n)
        rep = autotune(make_region(n), Runtime(NVIDIA_K40M), arrays, kernel)
        # run the tuned configuration for real and compare with a bad one
        tuned = run(
            "pipelined-buffer",
            make_region(n, rep.best.chunk_size, rep.best.num_streams),
            Runtime(NVIDIA_K40M),
            arrays,
            kernel,
        )
        bad = run(
            "pipelined-buffer", make_region(n, 1, 1), Runtime(NVIDIA_K40M),
            arrays, kernel,
        )
        assert tuned.elapsed < bad.elapsed

    def test_dry_run_predicts_real_run(self):
        """The virtual dry-run elapsed equals the real execution's."""
        n = 96
        kernel = ScaleKernel(cost_per_iter=25e-6)
        arrays = self.heavy_arrays(n)
        rep = autotune(make_region(n), Runtime(NVIDIA_K40M), arrays, kernel)
        real = run(
            "pipelined-buffer",
            make_region(n, rep.best.chunk_size, rep.best.num_streams),
            Runtime(NVIDIA_K40M),
            arrays,
            kernel,
        )
        assert real.elapsed == pytest.approx(rep.best.elapsed, rel=1e-9)

    def test_mem_limit_respected(self):
        n = 128
        region = make_region(n, mem="64KB")
        rep = autotune(region, Runtime(NVIDIA_K40M), make_arrays(n), ScaleKernel())
        assert rep.best.buffer_bytes <= 64_000

    def test_impossible_limit_raises(self):
        n = 128
        region = make_region(n, mem="100B")  # below even the (1,1) ring
        with pytest.raises(MemLimitError):
            autotune(region, Runtime(NVIDIA_K40M), make_arrays(n), ScaleKernel())

    def test_amd_prefers_coarser_chunks_than_nvidia(self):
        """On the HD 7970 fine chunks collapse bandwidth, so the tuner
        must pick a larger chunk size than it needs on the K40m."""
        n = 256
        kernel = ScaleKernel(cost_per_iter=25e-6)
        arrays = self.heavy_arrays(n)
        amd = autotune(make_region(n), Runtime(AMD_HD7970), arrays, kernel)
        nv = autotune(make_region(n), Runtime(NVIDIA_K40M), arrays, kernel)
        assert amd.best.chunk_size >= nv.best.chunk_size
        assert amd.best.chunk_size >= 4


class TestDryRunModel:
    def test_repeated_search_builds_no_engine_objects(self, monkeypatch):
        """Dry runs are priced by the analytic model: a second identical
        search constructs no command, event token or runtime and
        enqueues nothing on any simulator, yet returns the same report."""
        n = 64
        args = (make_region(n), Runtime(NVIDIA_K40M), make_arrays(n), ScaleKernel())
        first = autotune(*args, max_streams=4)
        built = []

        def count(cls, name):
            orig = getattr(cls, name)

            def counted(*a, **kw):
                built.append(f"{cls.__name__}.{name}")
                return orig(*a, **kw)

            monkeypatch.setattr(cls, name, counted)

        for cls, name in (
            (Command, "__init__"), (Command, "acquire"),
            (EventToken, "__init__"), (EventToken, "acquire"),
            (Runtime, "__init__"), (Simulator, "enqueue"),
        ):
            count(cls, name)
        second = autotune(*args, max_streams=4)
        assert second == first
        assert built == []
        # the counters do see engine objects when something builds them
        Runtime(NVIDIA_K40M)
        assert "Runtime.__init__" in built
