"""The proposed partitioning + pipelining runtime (the paper's contribution).

Public entry points:

* :class:`~repro.core.region.TargetRegion` — build from a pragma string
  (:meth:`TargetRegion.parse`) or clause objects, bind host arrays, and
  execute in any of the paper's three models:

  - ``region.run(rt, arrays, kernel, model="naive")`` — synchronous
    whole-array offload ("Naive"),
  - ``region.run(rt, arrays, kernel, model="pipelined")`` — hand-coded
    chunked async offload with full-footprint device arrays
    ("Pipelined"),
  - ``region.run(rt, arrays, kernel)`` — the proposed runtime (default
    ``model="buffer"``): chunked async offload into a pre-allocated
    device ring buffer with automatic index translation
    ("Pipelined-buffer").

* :class:`~repro.core.kernel.RegionKernel` — the kernel protocol
  (a cost model plus a NumPy functional body operating on translated
  chunk views).

Internals: :mod:`~repro.core.plan` (chunking), :mod:`~repro.core.scheduler`
(static/adaptive chunk schedules), :mod:`~repro.core.ringbuffer` (slot
mapping & index translation), :mod:`~repro.core.memlimit`
(``pipeline_mem_limit`` auto-tuning), :mod:`~repro.core.executor` /
:mod:`~repro.core.offload` (the three execution models).
"""

from repro.core.autotune import AutotuneReport, autotune
from repro.core.block2d import Block2DRegion, TileKernel, TileView
from repro.core.executor import PipelineIssuer
from repro.core.kernel import ChunkView, RegionKernel, make_kernel
from repro.core.memlimit import MemLimitError, tune_plan
from repro.core.multidevice import (
    MultiDeviceResult,
    ShardedIssuer,
    ShardedResult,
    execute_sharded,
)
from repro.core.placement import (
    parse_devices_arg,
    resolve_profile_spec,
    resolve_runtimes,
)
from repro.core.plan import Chunk, RegionPlan
from repro.core.region import RegionResult, TargetRegion

__all__ = [
    "AutotuneReport",
    "Block2DRegion",
    "Chunk",
    "ChunkView",
    "TileKernel",
    "TileView",
    "MemLimitError",
    "MultiDeviceResult",
    "PipelineIssuer",
    "RegionKernel",
    "RegionPlan",
    "RegionResult",
    "ShardedIssuer",
    "ShardedResult",
    "TargetRegion",
    "autotune",
    "make_kernel",
    "execute_sharded",
    "parse_devices_arg",
    "resolve_profile_spec",
    "resolve_runtimes",
    "tune_plan",
]
