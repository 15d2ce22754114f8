"""The admission index: what one admission round may touch.

A round tests each fit class once, reads one head per cohort of a
fitting class, walks only the requests not yet planned on every live
device, and materializes lazily aged counters only where they are read.
So serving a deep queue touches waiting requests a bounded number of
times per request, where a scan of the whole queue touches about n²/2.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.serve import DevicePool, RegionScheduler, ServeConfig, build_request
from repro.serve.scheduler import _Waiting

#: ten request shapes (the scaled-serve mix): plan-cache hits after the
#: first of each, so admission, not planning, is what scales with depth
SHAPES = (
    ("stencil", {"nz": 18, "ny": 48, "nx": 48}),
    ("stencil", {"nz": 26, "ny": 64, "nx": 64}),
    ("stencil", {"nz": 34, "ny": 64, "nx": 64}),
    ("conv3d", {"nz": 18, "ny": 48, "nx": 48}),
    ("conv3d", {"nz": 26, "ny": 64, "nx": 64}),
    ("matmul", {"n": 96, "block": 16}),
    ("matmul", {"n": 128, "block": 16}),
    ("matmul", {"n": 160, "block": 32}),
    ("qcd", {"n": 6}),
    ("qcd", {"n": 7}),
)


def _backlog(n: int, seed: int = 1):
    rng = np.random.default_rng(seed)
    order = np.resize(np.arange(len(SHAPES)), n)
    rng.shuffle(order)
    priorities = rng.integers(0, 3, size=n)
    return [
        build_request(
            SHAPES[s][0], tenant=f"tenant{k % 8}", priority=int(p),
            config=dict(SHAPES[s][1]),
        )
        for k, (s, p) in enumerate(zip(order, priorities))
    ]


def test_waiting_membership_compares_by_identity():
    req = _backlog(1)[0]
    a, b = _Waiting(seq=0, req=req), _Waiting(seq=0, req=req)
    # field-wise equal, yet distinct: `in` / `remove` never walk fields
    assert _Waiting.__eq__ is object.__eq__
    assert a not in [b]
    assert [b, a].index(a) == 1


def test_admission_touches_are_linear_in_queue_depth(monkeypatch):
    touches: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            touches[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # class tests and unplanned-list visits both place one request
    # shape; cohort heads and materializations read one request each
    place, head = RegionScheduler._place, RegionScheduler._head
    monkeypatch.setattr(RegionScheduler, "_place", staticmethod(counted("place", place)))
    monkeypatch.setattr(RegionScheduler, "_head", staticmethod(counted("head", head)))
    monkeypatch.setattr(
        RegionScheduler, "_materialize",
        counted("materialize", RegionScheduler._materialize),
    )
    n = 1200
    sched = RegionScheduler(DevicePool("k40m"), ServeConfig())
    sched.submit_all(_backlog(n))
    report = sched.run()
    assert report.ok and len(report.results) == n
    # a whole-queue scan touches ~n/2 waiters per admission (~600n here)
    assert sum(touches.values()) <= 64 * n, touches
    # the index is empty once the queue drained
    assert not sched._classes and not sched._unplanned and not sched._deferred
