"""The scheduler's turn fast path against the whole-queue rescans it replaced.

Each scheduling turn used to rescan the whole queue: the admission
scan re-sorted the devices, recomputed every plan's device footprint
and aged every fitting waiter once per admission, and the issue pick
rebuilt the list of issuable regions and took its ``min``.  The fast
path computes each footprint once per (request, device), takes the
device order once per round, tests each fit class once per round with
lazily aged cohorts, and keeps the issue candidates in a heap.

:class:`CheckedScheduler` recomputes both picks the old way, from full
state, on every turn and asserts the fast path chose the same request,
device, members and plan, planned the same (request, device) pairs in
the same order, fit the same requests, and that every waiter's lazily
aged ``passed_over``/``overtaken`` equal the old scan's eager counts.
The scenarios cover each branch those picks meet: chaos (replay,
failover, breaker probe-back), sharding with the straggler watchdog,
deadlines, the serial baseline, the bounded queue, fragmentation (OOM)
deferral, and memory pressure that moves fit classes in and out of fit.
A guard then pins the cost: admission makes a bounded number of
footprint and fit calls per request, not one per waiter per turn.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.memlimit import MemLimitError
from repro.core.plan import RegionPlan
from repro.directives.clauses import DirectiveError
from repro.faults import FaultPlan, pool_fault_plans
from repro.serve import (
    DevicePool,
    RegionScheduler,
    ServeConfig,
    build_request,
    random_workload,
)
from repro.serve.scheduler import _Active
from repro.sim.profiles import NVIDIA_K40M


class CheckedScheduler(RegionScheduler):
    """A scheduler that re-derives every pick the old way and compares."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.checks: Counter = Counter()
        self._plan_log = []
        self._expected = None
        #: request seq -> (passed_over, overtaken), aged eagerly
        self._shadow = {}

    def _plan(self, w, device):
        self._plan_log.append((w.seq, device))
        return super()._plan(w, device)

    # -- the old admission scan, kept verbatim but for the (plan, nbytes)
    # -- pair _plan now returns: device order and footprint per waiter
    def _reference_placements(self):
        out = []
        for w in list(self._waiting):
            if w.oom_deferred:
                continue
            try:
                order = sorted(
                    (i for i in range(len(self.pool)) if self._in_service(i)),
                    key=lambda i: (-self.pool.headroom(i), i),
                )
                placed = None
                if w.req.shards > 1:
                    placed = self._reference_sharded(w, order)
                if placed is None:
                    for di in order:
                        plan, _nbytes = self._plan(w, di)
                        if self.pool.fits(di, plan.device_bytes()):
                            placed = (w, di, plan, None)
                            break
                if placed is not None:
                    out.append(placed)
            except (MemLimitError, DirectiveError):
                # the fast scan already failed every waiter that cannot
                # plan; one failing here means the scans visited
                # different (waiter, device) pairs
                raise AssertionError(f"reference scan failed request {w.seq}")
        return out

    def _reference_sharded(self, w, order):
        if not order:
            return None
        plan, _nbytes = self._plan(w, order[0])
        trip = plan.loop.stop - plan.loop.start
        nbytes = plan.device_bytes()
        members = [di for di in order if self.pool.fits(di, nbytes)]
        members = members[: max(1, min(w.req.shards, trip))]
        if len(members) < 2:
            return None
        return (w, members[0], plan, members)

    # -- the checks
    def _assert_admission_order(self) -> None:
        seqs = [a.admit_seq for a in self._active]
        assert seqs == sorted(set(seqs)), f"_active out of admission order: {seqs}"

    def _class_members(self, c):
        return [w for cohort in c.cohorts.values() for _s, t, w in cohort.heap if w.ticket == t]

    def _assert_aging_matches_shadow(self) -> None:
        # lazy aging, read back, equals the old scan's eager per-round count
        for w in self._waiting:
            assert w.slot is not None, f"request {w.seq} waits outside the index"
            self._materialize(w)
            want = self._shadow.get(w.seq, (0, 0))
            assert (w.passed_over, w.overtaken) == want, (
                f"request {w.seq} aged {(w.passed_over, w.overtaken)}, eagerly {want}"
            )

    def _pick(self):
        self._assert_aging_matches_shadow()
        before = {(w.seq, di) for w in self._waiting for di in w.planned}
        self._plan_log = []
        fast = super()._pick()
        waiting = {w.seq for w in self._waiting}
        fast_log = [p for p in self._plan_log if p[0] in waiting and p not in before]
        quarantine = list(self._quarantined_until)
        self._plan_log = []
        ref = self._reference_placements()
        ref_log = [p for p in self._plan_log if p not in before]
        # planning side effects (cache, dry runs, cache_hit) happened
        # for the same (waiter, device) pairs in the same order, and the
        # fast scan already closed every breaker the old scan would have
        assert ref_log == fast_log
        assert self._quarantined_until == quarantine
        placement, classes, unplanned = fast if fast else (None, [], [])
        # the same requests fit, and a fit class places all its members alike
        by_seq = {w.seq: (di, m) for w, di, _p, m in ref}
        fast_fits = {w.seq for w in unplanned}
        for c, oldest in classes:
            members = self._class_members(c)
            assert oldest == min(w.seq for w in members)
            assert len({repr(by_seq.get(w.seq)) for w in members}) == 1, (
                f"class members placed differently: {[by_seq.get(w.seq) for w in members]}"
            )
            fast_fits.update(w.seq for w in members)
        if classes and len(classes) < len(self._classes):
            self.checks["class_unfit"] += 1  # some classes fit, others not
        every, cap = self.config.aging_every, self.config.max_priority
        for c in self._classes.values():
            # a cohort's members share one effective priority, read off
            # the cohort without materializing any of them
            for cohort in c.cohorts.values():
                shared = min(cohort.priority + (cohort.offset + c.rounds) // every, cap)
                for _s, t, w in cohort.heap:
                    if w.ticket == t:
                        assert self._effective_priority(w) == shared
            priorities = [p for p, _offset in c.cohorts]
            if len(set(priorities)) < len(priorities):
                self.checks["cohort_offsets"] += 1  # same priority, joined apart
        assert sorted(fast_fits) == sorted(by_seq)
        want = (
            max(ref, key=lambda t: (self._effective_priority(t[0]), -t[0].seq))
            if ref else None
        )
        assert (fast is None) == (want is None)
        if want is not None:
            w, di, plan, nbytes, m = placement
            assert (w, di, m) == (want[0], want[1], want[3])
            assert plan is want[2]
            assert nbytes == plan.device_bytes()
            if want[0] is not max(ref, key=lambda t: (t[0].req.priority, -t[0].seq))[0]:
                self.checks["aged_pick"] += 1
            # the old scan's eager aging, applied to the shadow counts
            for o, _odi, _op, _om in ref:
                if o is not want[0]:
                    po, ot = self._shadow.get(o.seq, (0, 0))
                    self._shadow[o.seq] = (po + 1, ot + (o.seq < want[0].seq))
        self._expected = want
        self.checks["scan"] += 1
        return fast

    def _open(self, w, device, plan, nbytes, members=None):
        want = self._expected
        assert want is not None, "admitted without a reference pick"
        assert w is want[0], f"admitted request {w.seq}, old pick {want[0].seq}"
        assert device == want[1] and members == want[3]
        assert (w.passed_over, w.overtaken) == self._shadow.get(w.seq, (0, 0))
        self._expected = None
        self.checks["admit"] += 1
        opened = super()._open(w, device, plan, nbytes, members)
        if not opened and w.oom_deferred:
            self.checks["oom_deferred"] += 1
        return opened

    def _pop_issuable(self):
        self._assert_admission_order()
        issuable = [a for a in self._active if a.issuer.remaining]
        # one heap entry per live region with chunks left
        entries = Counter(id(e[2]) for e in self._issue_heap)
        for a in issuable:
            assert entries[id(a)] == 1, f"region {a.admit_seq} has {entries[id(a)]} entries"
        want = (
            min(
                issuable,
                key=lambda a: (
                    a.issuer.issued / (1 + a.waiting.req.priority),
                    a.admit_seq,
                ),
            )
            if issuable else None
        )
        got = super()._pop_issuable()
        assert got is want, (
            f"issued region {getattr(got, 'admit_seq', None)}, "
            f"old pick {getattr(want, 'admit_seq', None)}"
        )
        self.checks["issue"] += 1
        return got

    def _retire(self, a):
        self._assert_admission_order()
        return super()._retire(a)


# ----------------------------------------------------------------------
# scenarios: (pool, config, requests) builders, rebuilt fresh per run
# ----------------------------------------------------------------------
def _mixed():
    return DevicePool("k40m"), ServeConfig(), random_workload(seed=3, n=14)


def _mixed_two_devices():
    pool = DevicePool("k40m", count=2)
    return pool, ServeConfig(), random_workload(seed=5, n=12)


def _transient():
    pool = DevicePool("k40m", count=2)
    pool.install_faults(pool_fault_plans("transient", seed=1, count=2))
    return pool, ServeConfig(), random_workload(seed=2, n=8)


def _failover():
    pool = DevicePool("k40m", count=2)
    pool.install_faults(pool_fault_plans("failover", seed=1, count=2))
    return pool, ServeConfig(), random_workload(seed=13, n=6)


def _breaker():
    pool = DevicePool("k40m")
    pool.install_faults([FaultPlan(seed=1, kernel_fault_rate=0.25, h2d_fault_rate=0.15)])
    config = ServeConfig(breaker_threshold=2, breaker_window=1.0, breaker_cooldown=1e-4)
    return pool, config, random_workload(seed=2, n=3)


def _sharded_watchdog():
    # the mixed-8 sharded mix on a memory-constrained pool: stencil
    # shards tune down to multi-chunk pipelines the watchdog can rate
    pool = DevicePool("k40m", count=3, budget_bytes=790_000)
    pool.install_faults(pool_fault_plans("straggler", seed=0, count=3))
    requests = []
    for i in range(4):
        requests.append(build_request("qcd", tenant=f"qcd{i}", config={"n": 6}, shards=3))
        requests.append(build_request(
            "stencil", tenant=f"sten{i}", config={"nz": 194, "ny": 64, "nx": 64}, shards=3,
        ))
    return pool, ServeConfig(straggler_watchdog=True), requests


def _deadlines():
    requests = [
        # admitted first, falls behind, cancelled at a chunk boundary
        build_request(
            "stencil", tenant="doomed", priority=5, deadline=2e-4,
            config={"nz": 34, "ny": 64, "nx": 64, "chunk_size": 2, "num_streams": 2},
        ),
        build_request("qcd", tenant="patient", deadline=2e-3, config={"n": 5}),
        # expires while waiting and is shed
        build_request("qcd", tenant="late", deadline=1e-6, config={"n": 5}),
        build_request("matmul", tenant="free", config={"n": 96, "block": 16}),
    ]
    return DevicePool("k40m"), ServeConfig(max_active=1, autotune=False), requests


def _serial():
    return DevicePool("k40m"), ServeConfig(max_active=1), random_workload(seed=7, n=8)


def _max_waiting():
    requests = [
        build_request("qcd", tenant=f"t{i}", priority=p, config={"n": 5})
        for i, p in enumerate((0, 2, 1, 0, 2, 1))
    ]
    return DevicePool("k40m"), ServeConfig(max_waiting=2, max_active=1), requests


def _oom_deferral():
    # budget == free memory == the two plans' exact footprints: both fit
    # the budget, but the 256-byte allocation padding of the first makes
    # the second's allocation fail until the first retires
    def requests():
        return [
            build_request("qcd", tenant="small", config={"n": 5}),
            build_request("qcd", tenant="large", config={"n": 7}),
            build_request("qcd", tenant="tail", config={"n": 5}),
        ]

    footprint = sum(r.region.bind(r.arrays).device_bytes() for r in requests()[:2])
    profile = replace(
        NVIDIA_K40M,
        usable_memory_bytes=NVIDIA_K40M.context_overhead_bytes + footprint,
    )
    return DevicePool(profile), ServeConfig(autotune=False), requests()


def _pressure():
    # two small devices of unequal memory: fit classes move in and out
    # of fit as regions come and go, requests join classes late (once
    # planned on both devices) in cohorts of differing offsets, and with
    # aging_every=1 aging overturns base-priority picks
    def device(free):
        return replace(
            NVIDIA_K40M,
            usable_memory_bytes=NVIDIA_K40M.context_overhead_bytes + free,
        )

    pool = DevicePool([device(2_500_000), device(1_500_000)])
    return pool, ServeConfig(aging_every=1, max_priority=64), random_workload(seed=1, n=24)


SCENARIOS = {
    "mixed": (_mixed, lambda r, c: r.ok),
    "mixed-2dev": (_mixed_two_devices, lambda r, c: r.ok and {x.device for x in r.results} == {0, 1}),
    "transient": (_transient, lambda r, c: r.faults > 0),
    "failover": (_failover, lambda r, c: r.migrated >= 1),
    "breaker": (_breaker, lambda r, c: r.breaker_trips == [1] and r.ok),
    "sharded-watchdog": (_sharded_watchdog, lambda r, c: r.ok and r.resplits >= 1),
    "deadlines": (_deadlines, lambda r, c: r.cancelled >= 1 and r.shed >= 1),
    "serial": (_serial, lambda r, c: r.ok),
    "max-waiting": (_max_waiting, lambda r, c: r.shed >= 1),
    "oom-deferral": (_oom_deferral, lambda r, c: r.ok and c["oom_deferred"] >= 1),
    "pressure": (
        _pressure,
        lambda r, c: r.ok and c["class_unfit"] and c["aged_pick"]
        and c["cohort_offsets"] and any(x.overtaken for x in r.results),
    ),
}


def _serve(build, cls):
    pool, config, requests = build()
    sched = cls(pool, config)
    sched.submit_all(requests)
    report = sched.run()
    assert pool.reserved == [0] * len(pool)  # no reservation leaks
    pool.close()
    return report, sched


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fast_path_picks_match_whole_queue_rescan(name):
    build, exercised = SCENARIOS[name]
    report, sched = _serve(build, CheckedScheduler)
    checks = sched.checks
    assert checks["scan"] and checks["admit"] and checks["issue"]
    assert exercised(report, checks), f"scenario {name} missed its branch"
    # the checks themselves changed nothing
    plain, _ = _serve(build, RegionScheduler)
    assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
        plain.to_dict(), sort_keys=True
    )


def test_issue_heap_rekeys_and_drops_stale_entries():
    sched = RegionScheduler(DevicePool("k40m"))

    def enlist(issued, remaining=4, priority=0):
        a = _Active(
            admit_seq=sched._admit_seq,
            waiting=SimpleNamespace(req=SimpleNamespace(priority=priority)),
            issuer=SimpleNamespace(issued=issued, remaining=remaining),
            device=0, plan=None, reserved=0, admit_t=0.0,
        )
        sched._enlist(a)
        return a

    a0, a1, a2, a3 = enlist(0), enlist(1), enlist(2, priority=1), enlist(3)
    a0.issuer.issued = 5  # advanced behind the heap's back: re-keyed
    a3.issuer.remaining = 0  # nothing left to issue: dropped
    assert sched._pop_issuable() is a1  # key 1.0 ties a2's, admitted first
    sched._active.remove(a2)  # left service: dropped
    assert sched._pop_issuable() is a0
    assert sched._pop_issuable() is None
    assert sched._issue_heap == []


def test_admission_cost_is_bounded_per_request(monkeypatch):
    calls: Counter = Counter()
    device_bytes, fits = RegionPlan.device_bytes, DevicePool.fits

    def counted_device_bytes(self):
        calls["device_bytes"] += 1
        return device_bytes(self)

    def counted_fits(self, device, nbytes):
        calls["fits"] += 1
        return fits(self, device, nbytes)

    monkeypatch.setattr(RegionPlan, "device_bytes", counted_device_bytes)
    monkeypatch.setattr(DevicePool, "fits", counted_fits)
    n = 300
    sched = RegionScheduler(DevicePool("k40m"), ServeConfig())
    sched.submit_all(random_workload(seed=1, n=n))
    report = sched.run()
    assert report.ok
    # a whole-queue rescan makes ~n/2 of each per request
    assert calls["device_bytes"] <= 3 * n, calls
    assert calls["fits"] <= 3 * n, calls
