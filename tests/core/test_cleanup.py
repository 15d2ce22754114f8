"""Failure-path teardown of a pipelined region.

``PipelineIssuer.abort`` drains the device, claims the fault backlog
and frees every allocation the region holds, swallowing the runtime's
own errors (a lost device rejects the drain) so the original failure
surfaces.  Anything else raised during teardown is a bug and must
propagate instead of being hidden.
"""

from __future__ import annotations

import pytest

from repro.core.executor import PipelineIssuer, execute_pipeline
from repro.faults import FaultPlan, FaultPolicy
from repro.gpu import Runtime
from repro.gpu.errors import DeviceLostError
from repro.sim import NVIDIA_K40M

from tests.core.test_executor import ScaleKernel, make_arrays, make_region


def _region(rt, n=32):
    arrays = make_arrays(n)
    region = make_region(n, 1, 2)
    return region.plan_for(rt, arrays), arrays


def test_device_lost_abort_frees_every_allocation():
    rt = Runtime(NVIDIA_K40M)
    rt.install_faults(FaultPlan(device_lost_at=10))
    plan, arrays = _region(rt)
    with pytest.raises(DeviceLostError):
        execute_pipeline(rt, plan, arrays, ScaleKernel(), FaultPolicy())
    assert rt.device.lost
    assert rt.device.memory.live_allocations == []
    assert rt.device.memory.used == rt.device.memory.context_overhead


def test_unexpected_error_in_teardown_propagates(monkeypatch):
    rt = Runtime(NVIDIA_K40M)
    plan, arrays = _region(rt)
    issuer = PipelineIssuer(rt, plan, arrays, ScaleKernel())
    issuer.open()
    issuer.issue_next()

    def broken_free(arr):
        raise TypeError("not a device array")

    monkeypatch.setattr(rt, "free", broken_free)
    with pytest.raises(TypeError, match="not a device array"):
        issuer.abort()
