"""Fault ownership under co-tenancy and sharding.

``Runtime.pop_faults`` hands over every unclaimed fault on a device,
whoever issued the faulted command.  The scheduler therefore routes
each popped fault to the pipeline issuer that owns it.  This test
drives two single-device co-tenants and one 2-shard request through
transient faults and checks the routing from the outside: every
faulted command reaches ``PipelineIssuer._record_faults`` (each issuer
logs every batch it claims there) exactly once, and only in the batch
of the issuer whose ``meta`` holds it.
"""

from __future__ import annotations

from collections import Counter

from repro.core.executor import PipelineIssuer
from repro.faults import pool_fault_plans
from repro.serve import DevicePool, RegionScheduler, build_request


def _requests():
    return [
        build_request("stencil", tenant="sharded", priority=1, shards=2,
                      config={"nz": 26, "ny": 64, "nx": 64}),
        build_request("matmul", tenant="bob", config={"n": 128, "block": 16}),
        build_request("conv3d", tenant="carol", priority=2,
                      config={"nz": 18, "ny": 48, "nx": 48}),
        build_request("qcd", tenant="dave", config={"n": 6}),
    ]


def _routed_run(seed, monkeypatch):
    claims = []
    real = PipelineIssuer._record_faults

    def spy(self, pending):
        claims.append((self, list(pending)))
        return real(self, pending)

    monkeypatch.setattr(PipelineIssuer, "_record_faults", spy)
    pool = DevicePool("k40m", count=2, virtual=True)
    pool.install_faults(pool_fault_plans("transient", seed=seed, count=2))
    sched = RegionScheduler(pool)
    sched.submit_all(_requests())
    report = sched.run()
    faulted = [c for rt in pool.runtimes for c in rt.device.sim.faulted]
    pool.close()
    return report, claims, faulted


def test_every_fault_is_claimed_once_by_its_owner(monkeypatch):
    cotenant_faults = sharded_faults = 0
    for seed in (4, 5):
        report, claims, faulted = _routed_run(seed, monkeypatch)
        assert report.ok
        by_tenant = {r.tenant: r for r in report.results}
        assert by_tenant["sharded"].shards == 2
        singles = [by_tenant[t].device for t in ("bob", "carol", "dave")]
        # at least two single-device requests shared a device
        assert max(Counter(singles).values()) >= 2
        seen = Counter()
        for issuer, batch in claims:
            for cmd in batch:
                assert cmd in issuer.meta, (cmd.label, issuer.stream_prefix)
                seen[id(cmd)] += 1
        assert sorted(seen.values()) == [1] * len(faulted)
        assert set(seen) == {id(c) for c in faulted}
        sharded_faults += by_tenant["sharded"].faults
        cotenant_faults += sum(by_tenant[t].faults for t in ("bob", "carol", "dave"))
    assert sharded_faults > 0 and cotenant_faults > 0
