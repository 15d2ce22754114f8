"""Self-healing region execution: retries, re-tuning, degradation.

:func:`run_with_recovery` is what ``region.run(...,
fault_policy=...)`` dispatches to.  It drives the paper's three
execution models through a :class:`~repro.faults.FaultPolicy`:

* **buffer** (the proposed Pipelined-buffer runtime) recovers at chunk
  granularity inside :func:`~repro.core.executor.execute_pipeline`;
  this layer re-tunes its plan against the *current* free pool (so a
  co-tenant memory grab shrinks the buffers instead of killing the
  run) and re-attempts after mid-run memory pressure.
* **pipelined** / **naive** baselines have no sub-region replay unit,
  so they are retried whole — their device arrays are freshly
  allocated and fully re-copied each attempt, which makes a whole
  re-run exact.
* Both run through one attempt loop per model: each re-attempt (a
  re-tune or a whole-region retry) charges its backoff through
  :func:`~repro.core.executor._charge_backoff` and counts as a retry.
* When a model exhausts its budget (or cannot fit memory at all), the
  policy's ``degrade`` chain falls back to the next model, mirroring
  how the paper's models trade memory footprint for machinery:
  ``buffer`` needs the least memory but the most moving parts,
  ``naive`` the reverse.

Only :class:`~repro.gpu.errors.DeviceLostError` is terminal *at this
layer*: nothing can be re-enqueued on a lost device, so it converts
straight into :class:`~repro.faults.RegionFailure`.  One level up,
:class:`~repro.serve.RegionScheduler` treats device loss as
non-terminal — it quarantines the dead device and restarts the region
from chunk 0 on a healthy pool member (see ``docs/serve.md``).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.executor import RegionResult, _charge_backoff, execute_pipeline
from repro.core.kernel import RegionKernel
from repro.core.memlimit import MemLimitError, tune_plan
from repro.core.offload import execute_manual_pipelined, execute_naive
from repro.faults.policy import FaultPolicy, RegionFailure
from repro.gpu.errors import (
    DeviceLostError,
    KernelFaultError,
    OutOfMemoryError,
    TransferError,
)
from repro.gpu.runtime import Runtime

__all__ = ["run_with_recovery"]


def _tuned_plan(region, runtime: Runtime, arrays):
    """Bind and tune against ``min(explicit limit, free memory)``.

    Under a fault policy the free pool is live state — a co-tenant may
    have grabbed memory since the last attempt — so the budget is
    re-evaluated on every attempt.
    """
    limit = (
        region.mem_limit.limit_bytes if region.mem_limit is not None else None
    )
    free = runtime.device.memory.free
    budget = free if limit is None else min(limit, free)
    return tune_plan(region.bind(arrays), budget)


def run_with_recovery(
    region,
    runtime: Runtime,
    arrays: Dict[str, np.ndarray],
    kernel: RegionKernel,
    model: str,
    policy: FaultPolicy,
    integrity: str = "off",
) -> RegionResult:
    """Execute ``region`` under ``model``, healing faults per ``policy``.

    Returns the :class:`RegionResult` of the first attempt that
    completes; its ``faults``/``retries`` fields accumulate the effort
    spent across *all* attempts (including abandoned models).  Raises
    :class:`RegionFailure` when the primary model and every ``degrade``
    fallback are exhausted, and on device loss.
    """
    from repro.core.region import _MODEL_ALIASES

    models = [model]
    for m in policy.degrade:
        canonical = _MODEL_ALIASES.get(m)
        if canonical is None:
            from repro.gpu.errors import InvalidValueError

            raise InvalidValueError(
                f"unknown degrade model {m!r}; expected one of "
                f"{sorted(set(_MODEL_ALIASES))}"
            )
        if canonical not in models:
            models.append(canonical)

    attempts_log = []
    total_faults = 0
    total_retries = 0
    last_chunk_status: Dict[int, str] = {}
    tracer = runtime.tracer

    for mi, m in enumerate(models):
        if mi > 0:
            attempts_log.append(f"degrading to {m!r}")
            if runtime.metrics.enabled:
                runtime.metrics.counter("faults.degradations").inc()
            tracer.instant(
                "degrade", "fault", model=m, after="; ".join(attempts_log[:-1])
            )
        buffer = m == "buffer"
        if not buffer and integrity != "off":
            # baselines have no chunk machinery: no checksums, no
            # replay unit — record the coverage gap in the trail
            attempts_log.append(
                f"{m}: integrity {integrity!r} unavailable under a "
                f"baseline model"
            )
        baseline = execute_manual_pipelined if m == "pipelined" else execute_naive
        # one attempt loop: the buffer model re-tunes against the free
        # pool after memory pressure, a baseline re-runs the whole region
        # after a fault; both charge the backoff of ``attempt``
        attempt = 0
        while True:
            try:
                if buffer:
                    plan = _tuned_plan(region, runtime, arrays)
                    result = execute_pipeline(
                        runtime, plan, arrays, kernel, policy, integrity=integrity,
                    )
                else:
                    result = baseline(runtime, region.bind(arrays), arrays, kernel)
            except DeviceLostError as exc:
                raise RegionFailure(
                    f"device lost; recovery impossible ({exc})",
                    attempts=attempts_log,
                    retries=total_retries,
                ) from exc
            except RegionFailure as exc:
                # chunk retries exhausted inside the executor
                total_retries += exc.retries
                attempts_log.extend(exc.attempts)
                last_chunk_status = exc.chunk_status
                break
            except (TransferError, KernelFaultError) as exc:
                total_faults += exc.pending
                if buffer:
                    # a blocking resident copy exhausted its retries
                    attempts_log.append(f"buffer: {exc}")
                    break
                if attempt >= policy.max_retries:
                    attempts_log.append(
                        f"{m}: retries exhausted after "
                        f"{policy.max_retries} whole-region replays ({exc})"
                    )
                    break
            except (OutOfMemoryError, MemLimitError) as exc:
                if not (
                    buffer and policy.retune_on_pressure
                    and attempt < policy.max_retries
                ):
                    attempts_log.append(f"{m}: cannot fit memory ({exc})")
                    break
                if runtime.metrics.enabled:
                    runtime.metrics.counter("faults.retunes").inc()
            else:
                result.faults += total_faults
                result.retries += total_retries
                return result
            _charge_backoff(runtime, policy, attempt)
            attempt += 1
            total_retries += 1

    raise RegionFailure(
        "all execution models exhausted",
        chunk_status=last_chunk_status,
        attempts=attempts_log,
        retries=total_retries,
    )
