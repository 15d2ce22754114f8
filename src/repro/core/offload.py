"""Baseline execution models: Naive and hand-coded Pipelined.

These are the two comparison points of every figure in the paper:

* :func:`execute_naive` — the default offload model of OpenMP/OpenACC:
  allocate every mapped array at full size, synchronously copy inputs,
  run one kernel over the whole loop, synchronously copy outputs back.
  "Data transfers consume nearly 50% of execution time, during which no
  computation is performed."

* :func:`execute_manual_pipelined` — the hand-coded OpenACC pipelining
  the paper implements for comparison: iterations are divided into
  chunks issued asynchronously on multiple streams, but array indices
  are **not** altered, so every array still occupies its full footprint
  in device memory.  The vendor OpenACC runtime's per-stream
  bookkeeping cost (``acc_stream_factor``) applies — this is the model
  whose performance degrades sharply as streams are added (Figure 7).

Both use the same :class:`~repro.core.kernel.RegionKernel` bodies as
the proposed executor, so all three models are validated against one
NumPy reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.executor import (
    RegionResult,
    _Measurer,
    _cleanup_after_failure,
    _axis_slice,
)
from repro.core.kernel import ChunkView, RegionKernel
from repro.core.plan import RegionPlan
from repro.core.ringbuffer import band_geometry
from repro.gpu.runtime import Runtime
from repro.sim.engine import EventToken
from repro.sim.varray import is_virtual

__all__ = ["execute_naive", "execute_manual_pipelined"]


def execute_naive(
    runtime: Runtime,
    plan: RegionPlan,
    arrays: Dict[str, np.ndarray],
    kernel: RegionKernel,
) -> RegionResult:
    """Run a region under the synchronous whole-array offload model.

    On any failure (async fault surfacing at a sync point, OOM, ...)
    the device is drained and every device array this call allocated
    is released before the exception propagates, so a recovery layer
    can re-attempt from a clean allocator.
    """
    meas = _Measurer(runtime)
    dev: Dict[str, object] = {}
    try:
        for var in list(plan.specs) + list(plan.residents):
            host = arrays[var]
            dev[var] = runtime.malloc(host.shape, host.dtype, tag=f"{var}:naive")

        def is_input(var: str) -> bool:
            if var in plan.specs:
                return plan.specs[var].clause.is_input
            return plan.residents[var].direction in ("to", "tofrom")

        def is_output(var: str) -> bool:
            if var in plan.specs:
                return plan.specs[var].clause.is_output
            return plan.residents[var].direction in ("from", "tofrom")

        for var in dev:
            if is_input(var):
                runtime.memcpy_h2d(dev[var], arrays[var], label=f"h2d:{var}")

        virtual = runtime.virtual or any(is_virtual(arrays[v]) for v in arrays)

        def payload() -> None:
            views: Dict[str, ChunkView] = {}
            for var, d in dev.items():
                if var in plan.specs:
                    sd = plan.specs[var].split_dim
                    views[var] = ChunkView(d.backing, sd, 0, d.shape[sd])
                else:
                    views[var] = ChunkView(d.backing, None, 0, d.shape[0])
            kernel.run(views, plan.loop.start, plan.loop.stop)

        stream = runtime.create_stream("naive")
        cmd = runtime.launch(
            kernel.chunk_cost(
                runtime.profile, plan.loop.start, plan.loop.stop, translated=False
            ),
            payload if not virtual else None,
            stream,
            label=f"{kernel.name}[naive]",
        )
        runtime._block_on(cmd)

        for var in dev:
            if is_output(var):
                runtime.memcpy_d2h(arrays[var], dev[var], label=f"d2h:{var}")
        for d in dev.values():
            runtime.free(d)
    except BaseException:
        _cleanup_after_failure(runtime, list(dev.values()))
        raise
    return meas.finish("naive", 1, plan.loop.trip_count, 1)


def execute_manual_pipelined(
    runtime: Runtime,
    plan: RegionPlan,
    arrays: Dict[str, np.ndarray],
    kernel: RegionKernel,
) -> RegionResult:
    """Run a region under the hand-coded OpenACC pipelining model.

    Chunked asynchronous transfers and kernels on ``plan.num_streams``
    streams, but full-footprint device arrays and unmodified indexing
    (``translated=False``).  Host-side per-call overhead scales with
    the vendor runtime's ``acc_stream_factor``.
    """
    profile = runtime.profile
    chunks = plan.chunks()
    streams_n = min(plan.num_streams, len(chunks))
    meas = _Measurer(runtime)
    old_scale = runtime.call_overhead_scale
    old_contention = runtime.command_overhead
    runtime.call_overhead_scale = 1.0 + profile.acc_stream_factor * (streams_n - 1)
    runtime.command_overhead = profile.acc_stream_contention * (streams_n - 1)
    dev: Dict[str, object] = {}
    try:
        streams = [runtime.create_stream(f"acc{i}") for i in range(streams_n)]

        for var in list(plan.specs) + list(plan.residents):
            host = arrays[var]
            dev[var] = runtime.malloc(host.shape, host.dtype, tag=f"{var}:pipelined")

        # resident arrays copied synchronously up front, like a data region
        for var, clause in plan.residents.items():
            if clause.direction in ("to", "tofrom"):
                runtime.memcpy_h2d(dev[var], arrays[var], label=f"h2d:{var}:resident")

        #: per input array: the end of what is copied in so far, and the
        #: ``(lo, hi, token)`` copies a later chunk's kernel may still read
        covered_hi: Dict[str, Optional[int]] = dict.fromkeys(plan.specs)
        staged: Dict[str, list] = {v: [] for v in plan.specs}
        virtual = runtime.virtual or any(is_virtual(arrays[v]) for v in arrays)
        geometry = {
            var: band_geometry(
                arrays[var].shape, spec.split_dim, arrays[var].dtype.itemsize
            )
            for var, spec in plan.specs.items()
        }

        def band(var: str, extent: int) -> Tuple[Optional[int], Optional[int]]:
            """(rows, row_bytes) of one band copy of a full-size array."""
            rows, unit_row_bytes = geometry[var]
            return (None, None) if rows is None else (rows, extent * unit_row_bytes)

        def make_kernel_payload(chunk):
            if virtual:
                return None

            def run() -> None:
                views: Dict[str, ChunkView] = {}
                for var, spec in plan.specs.items():
                    lo, hi = plan.chunk_dep_range(var, chunk)
                    d = dev[var]
                    view = d.backing[
                        _axis_slice(d.ndim, spec.split_dim, lo, hi)
                    ]
                    views[var] = ChunkView(view, spec.split_dim, lo, hi)
                for var in plan.residents:
                    d = dev[var]
                    views[var] = ChunkView(d.backing, None, 0, d.shape[0])
                kernel.run(views, chunk.t0, chunk.t1)

            return run

        for chunk in chunks:
            st = streams[chunk.index % streams_n]
            in_tokens: List[EventToken] = []
            for var, spec in plan.specs.items():
                cl = spec.clause
                if not cl.is_input:
                    continue
                lo, hi = plan.chunk_dep_range(var, chunk)
                covered = covered_hi[var]
                new_lo = lo if covered is None else max(lo, covered)
                if plan.halo_mode == "duplicate":
                    new_lo = lo
                if new_lo < hi:
                    host = arrays[var]
                    d = dev[var]
                    sl = _axis_slice(d.ndim, spec.split_dim, new_lo, hi)
                    rows, row_bytes = band(var, hi - new_lo)
                    tok = EventToken.acquire(f"h2d:{var}:{new_lo}")
                    runtime.memcpy_h2d_async(
                        d[sl],
                        host[sl],
                        st,
                        records=[tok],
                        rows=rows,
                        row_bytes=row_bytes,
                        label=f"h2d:{var}[{new_lo}:{hi})",
                    )
                    staged[var].append((new_lo, hi, tok))
                    covered_hi[var] = max(covered or hi, hi)
                copies = staged[var]
                in_tokens += [tok for (a, b, tok) in copies if a < hi and b > lo]
                staged[var] = [r for r in copies if r[1] > lo]

            ktok = EventToken.acquire(f"kernel:{chunk.index}")
            runtime.launch(
                kernel.chunk_cost(profile, chunk.t0, chunk.t1, translated=False),
                make_kernel_payload(chunk),
                st,
                waits=in_tokens,
                records=[ktok],
                label=f"{kernel.name}[{chunk.t0}:{chunk.t1})",
            )

            for var, spec in plan.specs.items():
                if not spec.clause.is_output:
                    continue
                lo, hi = plan.chunk_dep_range(var, chunk)
                d = dev[var]
                host = arrays[var]
                sl = _axis_slice(d.ndim, spec.split_dim, lo, hi)
                rows, row_bytes = band(var, hi - lo)
                runtime.memcpy_d2h_async(
                    host[sl],
                    d[sl],
                    st,
                    rows=rows,
                    row_bytes=row_bytes,
                    label=f"d2h:{var}[{lo}:{hi})",
                )

        runtime.synchronize()

        for var, clause in plan.residents.items():
            if clause.direction in ("from", "tofrom"):
                runtime.memcpy_d2h(arrays[var], dev[var], label=f"d2h:{var}:resident")
        for d in dev.values():
            runtime.free(d)
    except BaseException:
        _cleanup_after_failure(runtime, list(dev.values()))
        raise
    finally:
        runtime.call_overhead_scale = old_scale
        runtime.command_overhead = old_contention
    return meas.finish("pipelined", len(chunks), plan.chunk_size, streams_n)
