"""Property tests of the multi-tenant scheduler's invariants.

Three guarantees the serving layer makes, fuzzed over workload mixes,
budgets, and fairness knobs:

* **Admission**: a device's peak *data* bytes never exceed its budget,
  no matter which requests fail or in what order regions retire.
* **Starvation bound**: a request is overtaken at most
  ``aging_every * (max_priority + 1)`` times — once aging lifts its
  effective priority to the cap, younger fitting requests can no
  longer be picked ahead of it.
* **Cache-key safety**: the structural plan key is stable for equal
  requests and distinct whenever the pipeline geometry, shapes, or
  limits differ — a cache hit can never smuggle one region's tuned
  parameters into an incompatible region.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as stn

from repro.serve import (
    DevicePool,
    PlanCache,
    RegionScheduler,
    ServeConfig,
    build_request,
    random_workload,
)

MB = 1_000_000


def _serve(requests, *, budget, config=None):
    pool = DevicePool("k40m", budget_bytes=budget)
    sched = RegionScheduler(pool, config)
    sched.submit_all(requests)
    return sched.run(), pool


# ----------------------------------------------------------------------
# admission: data peak <= budget
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(
    seed=stn.integers(0, 10_000),
    n=stn.integers(1, 5),
    budget_mb=stn.sampled_from([1, 2, 4, 64]),
    serial=stn.booleans(),
)
def test_device_data_peak_never_exceeds_budget(seed, n, budget_mb, serial):
    config = ServeConfig(max_active=1) if serial else None
    report, pool = _serve(
        random_workload(seed=seed, n=n),
        budget=budget_mb * MB,
        config=config,
    )
    for peak, budget in zip(report.device_peaks, report.budgets):
        assert peak <= budget
    # reservations fully released at the end
    assert pool.reserved == [0]
    # every request is accounted for exactly once
    assert sorted(r.request_id for r in report.results) == list(range(n))
    for r in report.results:
        assert r.status in ("ok", "failed")
        if r.status == "failed":
            assert r.error


# ----------------------------------------------------------------------
# fairness: the aging bound
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    seed=stn.integers(0, 10_000),
    n=stn.integers(2, 6),
    aging_every=stn.integers(1, 3),
    max_priority=stn.integers(1, 4),
)
def test_no_request_overtaken_beyond_aging_bound(seed, n, aging_every, max_priority):
    config = ServeConfig(
        max_active=1, aging_every=aging_every, max_priority=max_priority
    )
    report, _ = _serve(
        random_workload(seed=seed, n=n), budget=64 * MB, config=config
    )
    bound = aging_every * (max_priority + 1)
    for r in report.results:
        assert r.overtaken <= bound, (
            f"request {r.request_id} (priority {r.priority}) overtaken "
            f"{r.overtaken} times; aging bound is {bound}"
        )


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(seed=stn.integers(0, 10_000), n=stn.integers(1, 4))
def test_same_seed_same_report(seed, n):
    import json

    a, _ = _serve(random_workload(seed=seed, n=n), budget=64 * MB)
    b, _ = _serve(random_workload(seed=seed, n=n), budget=64 * MB)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
        b.to_dict(), sort_keys=True
    )


# ----------------------------------------------------------------------
# fault tolerance: reservations always return to zero; chaos is replayable
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    profile=stn.sampled_from(["transient", "jitter", "chaos", "failover"]),
    seed=stn.integers(0, 100),
    devices=stn.integers(1, 2),
)
def test_chaos_reservations_zero_and_report_deterministic(profile, seed, devices):
    import json

    from repro.faults import pool_fault_plans

    def once():
        pool = DevicePool("k40m", count=devices, budget_bytes=64 * MB)
        pool.install_faults(pool_fault_plans(profile, seed=seed, count=devices))
        sched = RegionScheduler(pool)
        sched.submit_all(random_workload(seed=seed, n=3))
        report = sched.run()
        # every reservation handed back no matter how the run ended
        assert pool.reserved == [0] * devices
        pool.close()
        return report

    a, b = once(), once()
    # every request accounted for exactly once, with a legal status
    assert sorted(r.request_id for r in a.results) == [0, 1, 2]
    for r in a.results:
        assert r.status in ("ok", "failed", "shed", "cancelled")
    # same seed, same chaos -> byte-identical report
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
        b.to_dict(), sort_keys=True
    )


# ----------------------------------------------------------------------
# durability: a host crash at any journal index is survivable
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(
    seed=stn.integers(0, 10_000),
    n=stn.integers(1, 3),
    devices=stn.integers(1, 2),
    frac=stn.floats(0.0, 1.0),
)
def test_crash_resume_is_byte_identical_and_leak_free(seed, n, devices, frac):
    """Crash after record k, resume ⇒ the uninterrupted run, exactly.

    ``frac`` sweeps k over the whole journal (k=1 crashes during
    scheduler construction, k=total during run-end bookkeeping); the
    resumed report must be byte-identical and the pool fully drained.
    """
    import json
    import os
    import shutil
    import tempfile

    from repro.faults import HostCrashError

    tmp = tempfile.mkdtemp(prefix="repro-journal-")
    try:
        path = os.path.join(tmp, "serve.journal")

        def once(crash):
            pool = DevicePool("k40m", count=devices, virtual=True)
            config = ServeConfig(
                journal_path=path, snapshot_every=8, crash_after_events=crash
            )
            try:
                sched = RegionScheduler(pool, config)
                sched.submit_all(random_workload(seed=seed, n=n))
                return sched.run()
            finally:
                pool.close()

        base = once(None)
        total = base.journal["records"]
        k = min(total, 1 + int(frac * (total - 1)))
        try:
            once(k)
            raise AssertionError(f"crash at k={k} never fired")
        except HostCrashError:
            pass
        pool = DevicePool("k40m", count=devices, virtual=True)
        sched = RegionScheduler.resume(
            path, pool, random_workload(seed=seed, n=n),
            config=ServeConfig(snapshot_every=8),
        )
        report = sched.run()
        # zero reservation leaks across the crash/resume boundary
        assert pool.reserved == [0] * devices
        pool.close()
        assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
            base.to_dict(), sort_keys=True
        )
        assert report.journal["replayed"] == k
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# cache-key safety
# ----------------------------------------------------------------------
_GEOM = stn.fixed_dictionaries({
    "nz": stn.sampled_from([10, 14, 18]),
    "ny": stn.sampled_from([16, 32]),
    "nx": stn.sampled_from([16, 32]),
    "chunk_size": stn.sampled_from([1, 2]),
    "num_streams": stn.sampled_from([2, 3]),
})


@settings(max_examples=20, deadline=None)
@given(a=_GEOM, b=_GEOM, limit=stn.sampled_from([MB, 2 * MB]))
def test_cache_key_equal_iff_geometry_equal(a, b, limit):
    ra = build_request("stencil", config=a)
    rb = build_request("stencil", config=b)
    ka = PlanCache.key_for(ra.region, ra.arrays, ra.kernel, "k40m", limit)
    kb = PlanCache.key_for(rb.region, rb.arrays, rb.kernel, "k40m", limit)
    if a == b:
        assert ka == kb
    else:
        assert ka != kb


@settings(max_examples=20, deadline=None)
@given(
    geom=_GEOM,
    limit_a=stn.sampled_from([MB, 2 * MB, 4 * MB]),
    limit_b=stn.sampled_from([MB, 2 * MB, 4 * MB]),
)
def test_cache_never_serves_across_limits(geom, limit_a, limit_b):
    req = build_request("stencil", config=geom)
    cache = PlanCache()
    ka = PlanCache.key_for(req.region, req.arrays, req.kernel, "k40m", limit_a)
    kb = PlanCache.key_for(req.region, req.arrays, req.kernel, "k40m", limit_b)
    cache.put(ka, 7, 3)
    if limit_a == limit_b:
        assert cache.get(kb) == (7, 3)
    else:
        assert cache.get(kb) is None
