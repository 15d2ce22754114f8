"""``TargetRegion`` — the user-facing entry point of the extension.

A region is one pipelined offload construct: a pragma (or equivalent
clause objects), the loop it applies to, and — once bound to host
arrays — a resolved :class:`~repro.core.plan.RegionPlan`.  Usage
mirrors the paper's Figure 2:

>>> import numpy as np
>>> from repro.core import TargetRegion
>>> from repro.directives import Loop
>>> nz = ny = nx = 16
>>> A0 = np.random.default_rng(0).random((nz, ny, nx)).astype(np.float32)
>>> Anext = np.zeros_like(A0)
>>> region = TargetRegion.parse(f'''
...     #pragma omp target \\
...         pipeline(static[1,3]) \\
...         pipeline_map(to: A0[k-1:3][0:{ny}][0:{nx}]) \\
...         pipeline_map(from: Anext[k:1][0:{ny}][0:{nx}]) \\
...         pipeline_mem_limit(256MB)
... ''', loop=Loop("k", 1, nz - 1))

then ``region.run(rt, {"A0": A0, "Anext": Anext}, kernel)`` executes it
with the proposed runtime, and ``model="pipelined"`` / ``model="naive"``
select the paper's two baselines on the *same* clauses and kernel.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Dict, List, Optional

import numpy as np

from repro.core.executor import RegionResult, execute_pipeline
from repro.core.kernel import RegionKernel
from repro.core.memlimit import tune_plan
from repro.core.offload import execute_manual_pipelined, execute_naive
from repro.core.plan import RegionPlan
from repro.directives.clauses import (
    DirectiveError,
    Loop,
    MapClause,
    MemLimitClause,
    PipelineClause,
    PipelineMapClause,
)
from repro.directives.parser import ParsedPragma, parse_pragma
from repro.directives.splitspec import SplitSpec
from repro.gpu.runtime import Runtime

__all__ = ["TargetRegion", "RegionResult"]

#: accepted ``model=`` spellings → canonical model name
_MODEL_ALIASES = {
    "buffer": "buffer",
    "pipelined-buffer": "buffer",
    "pipelined_buffer": "buffer",
    "pipelined": "pipelined",
    "naive": "naive",
}


@lru_cache(maxsize=64)
def _parse_shared(pragma: str, loop: Loop) -> ParsedPragma:
    """:func:`parse_pragma`, remembered per ``(pragma, loop)``: serve
    traffic builds many regions from a few pragma texts.  The result is
    shared, so only :meth:`TargetRegion.parse` reads it, and it copies
    the clause lists (the clauses themselves are frozen).  A pragma that
    raises is not remembered and raises anew on every call."""
    return parse_pragma(pragma, loop)


class TargetRegion:
    """One pipelined offload region (pragma + loop).

    Construct with :meth:`parse` from pragma text, or directly from
    clause objects.  All three execution models share the clauses and
    the kernel, differing only in how data moves — exactly the paper's
    Naive / Pipelined / Pipelined-buffer comparison.

    Parameters
    ----------
    pipeline:
        The ``pipeline(...)`` clause.
    pipeline_maps:
        ``pipeline_map`` clauses (at least one).
    maps:
        Resident ``map`` clauses.
    mem_limit:
        Optional ``pipeline_mem_limit`` clause.
    loop:
        The pipelined loop.
    halo_mode:
        ``"dedup"`` (default) or ``"duplicate"`` — see
        :class:`~repro.core.plan.RegionPlan`.
    """

    def __init__(
        self,
        pipeline: PipelineClause,
        pipeline_maps: List[PipelineMapClause],
        loop: Loop,
        maps: Optional[List[MapClause]] = None,
        mem_limit: Optional[MemLimitClause] = None,
        halo_mode: str = "dedup",
        device_num: Optional[int] = None,
        privates: tuple = (),
    ) -> None:
        if not pipeline_maps:
            raise DirectiveError("a pipeline region needs at least one pipeline_map")
        self.pipeline = pipeline
        self.pipeline_maps = list(pipeline_maps)
        self.maps = list(maps or [])
        self.mem_limit = mem_limit
        self.loop = loop
        self.halo_mode = halo_mode
        #: ``device(n)`` clause value; see :meth:`select_runtime`
        self.device_num = device_num
        #: ``private(...)`` variables — recorded for fidelity; the
        #: functional NumPy kernels allocate per-chunk temporaries
        #: naturally, so no runtime action is needed
        self.privates = tuple(privates)

    @classmethod
    def parse(cls, pragma: str, loop: Loop, *, halo_mode: str = "dedup") -> "TargetRegion":
        """Build a region from pragma text (see
        :func:`repro.directives.parser.parse_pragma`).

        Each distinct ``(pragma, loop)`` is parsed once per process (the
        last 64 are kept); every region gets its own clause lists."""
        parsed = _parse_shared(pragma, loop)
        return cls(
            pipeline=parsed.pipeline,
            pipeline_maps=parsed.pipeline_maps,
            maps=parsed.maps,
            mem_limit=parsed.mem_limit,
            loop=loop,
            halo_mode=halo_mode,
            device_num=parsed.device_num,
            privates=parsed.privates,
        )

    def select_runtime(self, runtimes) -> Runtime:
        """Pick the runtime named by the ``device(n)`` clause.

        ``runtimes`` may be a single runtime (returned as-is when no
        clause or device 0 is requested) or a sequence indexed by
        device number.
        """
        if isinstance(runtimes, Runtime):
            if self.device_num not in (None, 0):
                raise DirectiveError(
                    f"region requests device({self.device_num}) but only one "
                    f"runtime was provided"
                )
            return runtimes
        idx = self.device_num or 0
        try:
            return runtimes[idx]
        except IndexError as exc:
            raise DirectiveError(
                f"device({idx}) requested but only {len(runtimes)} runtimes given"
            ) from exc

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def bind(self, arrays: Dict[str, np.ndarray]) -> RegionPlan:
        """Resolve clauses against host arrays into a
        :class:`RegionPlan` (without memory tuning).

        Split-dimension lengths left as ``-1`` placeholders by the
        parser are bound to the arrays' actual extents here.
        """
        specs: Dict[str, SplitSpec] = {}
        dtypes: Dict[str, np.dtype] = {}
        shapes: Dict[str, tuple] = {}
        for clause in self.pipeline_maps:
            if clause.var not in arrays:
                raise DirectiveError(f"no host array bound for {clause.var!r}")
            host = arrays[clause.var]
            dims = list(clause.dims)
            lo, length = dims[clause.split_dim]
            if length == -1:
                dims[clause.split_dim] = (0, int(host.shape[clause.split_dim]))
                clause = replace(clause, dims=tuple(dims))
            spec = SplitSpec.derive(clause, self.loop)
            spec.validate_shape(tuple(host.shape))
            specs[clause.var] = spec
            dtypes[clause.var] = np.dtype(host.dtype)
            shapes[clause.var] = tuple(host.shape)
        residents: Dict[str, MapClause] = {}
        for m in self.maps:
            if m.var not in arrays:
                raise DirectiveError(f"no host array bound for {m.var!r}")
            residents[m.var] = m
            dtypes[m.var] = np.dtype(arrays[m.var].dtype)
            shapes[m.var] = tuple(arrays[m.var].shape)
        return RegionPlan(
            loop=self.loop,
            chunk_size=self.pipeline.chunk_size,
            num_streams=self.pipeline.num_streams,
            schedule=self.pipeline.schedule,
            specs=specs,
            residents=residents,
            dtypes=dtypes,
            shapes=shapes,
            halo_mode=self.halo_mode,
        )

    def plan_for(self, runtime: Runtime, arrays: Dict[str, np.ndarray]) -> RegionPlan:
        """Bind and apply memory tuning (explicit limit, else free
        device memory)."""
        plan = self.bind(arrays)
        limit = (
            self.mem_limit.limit_bytes
            if self.mem_limit is not None
            else runtime.device.memory.free
        )
        return tune_plan(plan, limit)

    # ------------------------------------------------------------------
    # execution models
    # ------------------------------------------------------------------
    def run(
        self,
        runtime: Optional[Runtime],
        arrays: Dict[str, np.ndarray],
        kernel: RegionKernel,
        *,
        model: str = "buffer",
        fault_policy=None,
        devices=None,
        weights=None,
        integrity: str = "off",
        watchdog=None,
    ) -> RegionResult:
        """Execute the region under one of the paper's three models.

        Parameters
        ----------
        model:
            ``"buffer"`` (default; alias ``"pipelined-buffer"``) runs
            the proposed runtime with ring buffers and memory tuning;
            ``"pipelined"`` the hand-coded OpenACC baseline;
            ``"naive"`` the synchronous whole-array baseline.  All
            three share the clauses and the kernel — only data movement
            differs.
        fault_policy:
            Optional :class:`~repro.faults.FaultPolicy`.  When given,
            execution is self-healing: faulted chunks are replayed with
            backoff (buffer model), whole attempts are retried
            (baselines), memory pressure re-tunes the plan, and the
            ``degrade`` chain falls back across models.  Exhaustion
            raises :class:`~repro.faults.RegionFailure` with per-chunk
            status instead of a bare fault error.
        devices:
            Optional placement spec: a device count, a sequence of
            profile names / :class:`Device` / :class:`Runtime` entries,
            or a :class:`~repro.serve.DevicePool`.  When given, the
            region is **sharded** across those devices on a shared
            virtual clock (``model`` must be ``"buffer"``) and a
            :class:`~repro.core.multidevice.ShardedResult` is returned.
            ``runtime`` may be ``None``; when given, it supplies the
            default profile for a bare count.  See
            :func:`~repro.core.multidevice.execute_sharded`.
        weights:
            Optional per-device split weights for the ``devices`` path
            (defaults to probed throughput).
        integrity:
            Silent-failure defense mode (``"off"`` / ``"checksum"`` /
            ``"vote"``; see :mod:`repro.integrity`).  Buffer model
            only: the baselines have no chunk machinery to verify or
            replay with.
        watchdog:
            Optional straggler watchdog for the ``devices`` path:
            ``True`` (defaults) or a
            :class:`~repro.core.multidevice.WatchdogConfig`.  Work is
            re-split away from a slow-but-alive shard whose progress
            falls behind its peers.
        """
        from repro.integrity import validate_integrity

        canonical = _MODEL_ALIASES.get(model)
        if canonical is None:
            raise DirectiveError(
                f"unknown execution model {model!r}; expected one of "
                f"'buffer' (alias 'pipelined-buffer'), 'pipelined', 'naive'"
            )
        integrity = validate_integrity(integrity)
        if integrity != "off" and canonical != "buffer":
            raise DirectiveError(
                f"integrity {integrity!r} requires the 'buffer' model "
                f"(chunk-granular verification), not {model!r}"
            )
        if watchdog and devices is None:
            raise DirectiveError(
                "the straggler watchdog requires a devices= placement "
                "(it compares progress across shards)"
            )
        if devices is not None:
            if canonical != "buffer":
                raise DirectiveError(
                    f"devices= placement requires the 'buffer' model, "
                    f"not {model!r}"
                )
            from repro.core.multidevice import execute_sharded
            from repro.core.placement import resolve_runtimes
            from repro.sim.varray import is_virtual

            virtual = (
                runtime.virtual
                if runtime is not None
                else any(is_virtual(a) for a in arrays.values())
            )
            runtimes = resolve_runtimes(devices, base=runtime, virtual=virtual)
            return execute_sharded(
                runtimes, self, arrays, kernel,
                weights=weights, policy=fault_policy,
                integrity=integrity, watchdog=watchdog,
            )
        if runtime is None:
            raise DirectiveError("run() needs a runtime (or a devices= spec)")
        if fault_policy is not None:
            from repro.core.recovery import run_with_recovery

            return run_with_recovery(
                self, runtime, arrays, kernel, canonical, fault_policy,
                integrity=integrity,
            )
        if canonical == "buffer":
            plan = self.plan_for(runtime, arrays)
            return execute_pipeline(
                runtime, plan, arrays, kernel, integrity=integrity
            )
        plan = self.bind(arrays)  # full-footprint baselines: no buffer tuning
        if canonical == "pipelined":
            return execute_manual_pipelined(runtime, plan, arrays, kernel)
        return execute_naive(runtime, plan, arrays, kernel)

