"""Parboil stencil application driver (iterated Jacobi sweeps).

The Parboil benchmark runs many Jacobi sweeps over a 3-D grid, swapping
``A0``/``Anext`` between sweeps.  Each sweep is one pipelined region —
its data streams through the device every iteration, which is what
makes the benchmark transfer-bound and pipelining profitable.

The paper's Figure 2 pragma is reproduced verbatim (with concrete
extents) by :func:`make_region`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.apps.common import VersionSet, new_runtime
from repro.core.executor import RegionResult
from repro.core.region import TargetRegion
from repro.directives.clauses import Loop
from repro.kernels.stencil3d import StencilKernel, init_grid, reference_sweep
from repro.sim.varray import VirtualArray

__all__ = ["StencilConfig", "make_arrays", "make_region", "run_model", "run_all", "reference"]


@dataclass
class StencilConfig:
    """Stencil problem + pipeline parameters.

    The default grid is Parboil's ``512 x 512 x 64`` configuration; the
    paper's results use fewer iterations than Parboil's 100 only to keep
    simulation wall-time low — per-sweep behaviour is identical and all
    reported quantities scale linearly in ``iters``.
    """

    nz: int = 64
    ny: int = 512
    nx: int = 512
    iters: int = 10
    chunk_size: int = 1
    num_streams: int = 2
    schedule: str = "static"
    halo_mode: str = "dedup"
    mem_limit: str = ""

    @property
    def dataset(self) -> str:
        """Human-readable dataset label."""
        return f"{self.nz}x{self.ny}x{self.nx}"


def make_arrays(cfg: StencilConfig, *, virtual: bool = False) -> Dict[str, np.ndarray]:
    """Host arrays; virtual mode carries shapes only."""
    if virtual:
        return {
            "A0": VirtualArray((cfg.nz, cfg.ny, cfg.nx), np.float32),
            "Anext": VirtualArray((cfg.nz, cfg.ny, cfg.nx), np.float32),
        }
    return {
        "A0": init_grid(cfg.nz, cfg.ny, cfg.nx),
        "Anext": np.zeros((cfg.nz, cfg.ny, cfg.nx), dtype=np.float32),
    }


def make_region(cfg: StencilConfig) -> TargetRegion:
    """The paper's Figure 2 pragma, bound to this configuration."""
    mem = f"pipeline_mem_limit({cfg.mem_limit})" if cfg.mem_limit else ""
    pragma = f"""
        #pragma omp target \\
            pipeline({cfg.schedule}[{cfg.chunk_size},{cfg.num_streams}]) \\
            pipeline_map(to: A0[k-1:3][0:{cfg.ny}][0:{cfg.nx}]) \\
            pipeline_map(from: Anext[k:1][0:{cfg.ny}][0:{cfg.nx}]) \\
            {mem}
    """
    return TargetRegion.parse(
        pragma, loop=Loop("k", 1, cfg.nz - 1), halo_mode=cfg.halo_mode
    )


def reference(cfg: StencilConfig) -> np.ndarray:
    """Oracle: ``iters`` sweeps in pure NumPy; returns the final A0."""
    a0 = init_grid(cfg.nz, cfg.ny, cfg.nx)
    anext = np.zeros_like(a0)
    for _ in range(cfg.iters):
        anext[:] = 0
        reference_sweep(a0, anext)
        a0, anext = anext, a0
    return a0


def run_model(
    model: str, cfg: StencilConfig, device="k40m", *, virtual: bool = False, obs=None
) -> RegionResult:
    """Run all sweeps under one model; returns the aggregate result.

    In real mode the returned result's ``arrays["A0"]`` counterpart (the
    caller's array dict) holds the final grid; use :func:`run_checked`
    for validation.
    """
    res, _ = run_checked(model, cfg, device, virtual=virtual, obs=obs)
    return res


def run_checked(
    model: str, cfg: StencilConfig, device="k40m", *, virtual: bool = False, obs=None
):
    """Run one model; returns ``(aggregate_result, final_grid)``."""
    rt = new_runtime(device, virtual=virtual, obs=obs)
    arrays = make_arrays(cfg, virtual=virtual)
    region = make_region(cfg)
    kernel = StencilKernel(cfg.ny, cfg.nx)
    results = []
    for _ in range(cfg.iters):
        if not virtual:
            arrays["Anext"].fill(0)
        results.append(region.run(rt, arrays, kernel, model=model))
        arrays["A0"], arrays["Anext"] = arrays["Anext"], arrays["A0"]
    agg = _aggregate(model, results, rt)
    return agg, (None if virtual else arrays["A0"])


def _aggregate(model: str, results, rt) -> RegionResult:
    """Fold per-sweep results into one (sums times, max memory)."""
    from repro.sim.trace import Timeline

    first = results[0]
    return RegionResult(
        model=model,
        elapsed=sum(r.elapsed for r in results),
        memory_peak=max(r.memory_peak for r in results),
        data_peak=max(r.data_peak for r in results),
        timeline=Timeline.join(r.timeline for r in results),
        nchunks=sum(r.nchunks for r in results),
        chunk_size=first.chunk_size,
        num_streams=first.num_streams,
        t_begin=first.t_begin,
        faults=sum(r.faults for r in results),
        retries=sum(r.retries for r in results),
    )


def run_all(cfg: StencilConfig, device="k40m", *, virtual: bool = False) -> VersionSet:
    """All three models on fresh devices."""
    return VersionSet(
        app="stencil",
        dataset=cfg.dataset,
        device=str(device),
        naive=run_model("naive", cfg, device, virtual=virtual),
        pipelined=run_model("pipelined", cfg, device, virtual=virtual),
        buffer=run_model("pipelined-buffer", cfg, device, virtual=virtual),
    )
