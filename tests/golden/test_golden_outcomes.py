"""How requests end, frozen: one scenario per outcome branch.

``recovery.json`` pins what recovery reports when faults fire.  This
file pins the branches around it where a request (or a standalone
region run) *ends* — settled, failed over or re-attempted — that no
other test reaches:

* serve ``_open`` hitting a fragmented-allocator OOM: deferred while
  another region is in service, failed when it is alone;
* serve ``_open`` with a member device lost while staging;
* a blocking resident copy exhausting its retries in serve, while
  ``open()`` stages it and while ``finalize()`` copies it back;
* a sharded region whose member dies while the scheduler issues it;
* the idle-pool infeasible head (a co-tenant holds budget outside the
  scheduler, so a request that fits the budget fits no headroom);
* a fragmentation-deferred request whose device is lost: undeferred,
  it is planned again on the surviving device;
* device loss with no healthy device left;
* a positive ``max_request_retries`` budget spent mid-replay;
* a deadline cancelling a sharded region;
* ``run_with_recovery``: a blocking resident copy exhausting its
  retries under ``buffer``, re-tuning then degrading with metrics on,
  device loss under a baseline model, the integrity-gap line after
  degrading from ``buffer``, and the chaos degrade chain down to naive.

Each scenario is reduced, as in ``recovery.json``, to sha256 digests of
canonical JSON: the ``ServeReport.to_dict()`` (or the region result /
failure), every flight-recorder event (teed off the recorder, not just
the bounded ring), the recorder's dumps, the metrics snapshot and, for
region runs, the trace.  Each also keeps a few readable fields so a
diff says which outcome moved.

A second test checks that the serve counters agree with the events that
announce the same transitions, over these scenarios and the serve
scenarios of ``recovery.json``.

An intentional change regenerates the file with::

    PYTHONPATH=src python -m tests.golden.test_golden_outcomes
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

import pytest

from repro.faults import (
    FaultPlan,
    FaultPolicy,
    PressureEvent,
    RegionFailure,
    pool_fault_plans,
    run_chaos,
)
from repro.gpu import Runtime
from repro.obs import Observability
from repro.serve import (
    DevicePool,
    RegionScheduler,
    ServeConfig,
    build_request,
    load_workload,
)
from repro.sim import NVIDIA_K40M

from tests.golden.test_golden_recovery import (
    GOLDEN as RECOVERY_GOLDEN,
    STRAGGLER_WORKLOAD,
    TWO_SHARDED_WORKLOAD,
    WORKLOAD,
)

GOLDEN = Path(__file__).resolve().parent / "outcomes.json"


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# serve scenarios
# ----------------------------------------------------------------------
class Served:
    """One serve run: its report, teed events, dumps and metrics."""

    def __init__(self, report, events: List[Dict], dumps: List[Dict], metrics: Dict):
        self.report = report
        self.events = events
        self.dumps = dumps
        self.metrics = metrics

    def kinds(self) -> Counter:
        return Counter(e["kind"] for e in self.events)

    def counter(self, name: str) -> float:
        return self.metrics["counters"].get(name, 0)


def _serve(
    devices, requests, *, count: int = 1, budget: Optional[int] = None,
    config: Optional[ServeConfig] = None, plans=None, held: int = 0,
) -> Served:
    """Serve ``requests()`` on ``count`` ``devices``.

    ``plans(count)`` gives per-device fault plans; ``held`` bytes of
    device 0's budget are reserved for the whole run by a co-tenant
    outside the scheduler.
    """
    obs = Observability()
    with DevicePool(devices, count=count, budget_bytes=budget, obs=obs) as pool:
        if plans is not None:
            pool.install_faults(plans(count))
        if held:
            pool.reserve(0, held)
        sched = RegionScheduler(pool, config or ServeConfig())
        events: List[Dict] = []
        sched.recorder.sink = events.append
        sched.submit_all(requests())
        report = sched.run()
        if held:
            pool.release(0, held)
        assert pool.reserved == [0] * len(pool), "reservation leak"
    return Served(report, events, list(sched.recorder.dumps), obs.metrics.snapshot())


def _workload(source, profile: str, seed: int, *, devices=None,
              integrity: str = "off", watchdog: bool = False) -> Served:
    """A ``recovery.json`` serve scenario, run with its events kept."""
    virtual = integrity == "off"
    spec = load_workload(source, virtual=virtual)
    count = devices if devices is not None else spec.devices
    obs = Observability()
    config = ServeConfig(integrity=integrity, straggler_watchdog=watchdog)
    with DevicePool(
        spec.device, count=count, budget_bytes=spec.budget_bytes,
        obs=obs, virtual=virtual,
    ) as pool:
        pool.install_faults(pool_fault_plans(profile, seed=seed, count=count))
        sched = RegionScheduler(pool, config)
        events: List[Dict] = []
        sched.recorder.sink = events.append
        sched.submit_all(spec.requests)
        report = sched.run()
    return Served(report, events, list(sched.recorder.dumps), obs.metrics.snapshot())


def _memory(free: int):
    """A K40m with exactly ``free`` data bytes after its context."""
    return replace(
        NVIDIA_K40M,
        usable_memory_bytes=NVIDIA_K40M.context_overhead_bytes + free,
    )


def _footprint(req) -> int:
    return req.region.bind(req.arrays).device_bytes()


def _qcd(tenant: str, n: int):
    return build_request("qcd", tenant=tenant, config={"n": n})


def _oom_deferred() -> Served:
    # both plans fit the budget (== free memory == their footprints),
    # but the first's allocation padding makes the second's allocation
    # fail while the first is in service: deferred, then admitted
    def requests():
        return [_qcd("small", 5), _qcd("large", 7)]

    free = sum(_footprint(r) for r in requests())
    return _serve(_memory(free), requests, config=ServeConfig(autotune=False))


def _oom_alone() -> Served:
    # "whole"'s footprint is the device's entire free memory: it fits
    # the budget, but its padded allocations do not fit the device even
    # with nothing else in service, so it fails
    def requests():
        return [_qcd("small", 5), _qcd("large", 7), _qcd("whole", 8)]

    free = _footprint(requests()[2])
    return _serve(_memory(free), requests, config=ServeConfig(autotune=False))


#: the requests of examples/serve_workload.json at one priority, so
#: the sharded stencil is admitted (and staged) first
_MIX = (
    ("stencil", "alice", 2, {"nz": 26, "ny": 64, "nx": 64}),
    ("matmul", "bob", 1, {"n": 128, "block": 16}),
    ("conv3d", "carol", 1, {"nz": 18, "ny": 48, "nx": 48}),
)


def _mix():
    return [
        build_request(app, tenant=t, shards=s, config=c)
        for app, t, s, c in _MIX
    ]


def _lost_on_first(lost_at: int):
    """Device 0 dies after ``lost_at`` retirements; others are healthy."""
    return lambda count: [FaultPlan(seed=3, device_lost_at=lost_at)] + [None] * (count - 1)


def _open_device_lost() -> Served:
    # device 0 dies on its first retirement, while the first request's
    # open() stages its shards: the open fails over, it does not fail
    return _serve("k40m", _mix, count=2, plans=_lost_on_first(1))


def _issue_device_lost() -> Served:
    # the straggler watchdog pumps the member simulators inside
    # issue_next; device 0 dies there, so issue_next raises device loss
    def requests():
        return [
            build_request("stencil", tenant=t, shards=3,
                          config={"nz": 194, "ny": 64, "nx": 64})
            for t in ("s0", "s1")
        ]

    return _serve(
        "k40m", requests, count=3, budget=500_000,
        config=ServeConfig(straggler_watchdog=True), plans=_lost_on_first(40),
    )


def _resident_copy_exhausted(kind: str) -> Callable[[], Served]:
    # every ``kind`` copy faults and one retry is allowed: matmul's
    # resident C cannot be staged (h2d, at open) or copied back (d2h, at
    # finalize), so it fails; qcd's chunks exhaust their replays
    def run() -> Served:
        return _serve(
            "k40m",
            lambda: [
                build_request("matmul", tenant="m", config={"n": 64, "block": 16}),
                _qcd("q", 3),
            ],
            config=ServeConfig(fault_policy=FaultPolicy(max_retries=1)),
            plans=lambda count: [FaultPlan(
                seed=1, h2d_fault_rate=1.0, d2h_fault_rate=1.0, only_kinds=(kind,),
            )],
        )

    return run


def _deferred_after_device_loss() -> Served:
    # "large" is deferred on device 0 (fragmentation) while "small" runs
    # there; device 0 dies, which undefers "large", and both fail
    # planning on the 100 kB device 1 with their own footprints
    def requests():
        return [_qcd("small", 5), _qcd("large", 7)]

    free = sum(_footprint(r) for r in requests())
    return _serve(
        [_memory(free), _memory(100_000)], requests, count=2,
        config=ServeConfig(autotune=False), plans=_lost_on_first(4),
    )


def _infeasible_head() -> Served:
    # "big" fits the 200 kB budget but not the 100 kB a co-tenant
    # leaves: once "small" retires the pool is idle and nothing fits
    def requests():
        return [
            build_request("stencil", tenant="big",
                          config={"nz": 66, "ny": 64, "nx": 64}),
            _qcd("small", 3),
        ]

    return _serve(
        "k40m", requests, budget=200_000, held=100_000,
        config=ServeConfig(autotune=False),
    )


def _no_healthy_device() -> Served:
    # the only device dies mid-run: every request re-queues, then fails
    return _serve("k40m", _mix, plans=_lost_on_first(3))


def _request_retry_budget() -> Served:
    # two replays per request: spent mid-replay, then the request fails
    return _serve(
        "k40m", _mix, config=ServeConfig(max_request_retries=2),
        plans=lambda count: pool_fault_plans("transient", seed=2, count=count),
    )


def _deadline_sharded() -> Served:
    def requests():
        return [
            build_request("stencil", tenant="s", shards=2, deadline=3e-4,
                          config={"nz": 66, "ny": 64, "nx": 64}),
            build_request("conv3d", tenant="c",
                          config={"nz": 18, "ny": 48, "nx": 48}),
        ]

    return _serve("k40m", requests, count=2)


#: the new serve scenarios
SERVE: Dict[str, Callable[[], Served]] = {
    "serve-oom-deferred": _oom_deferred,
    "serve-oom-alone": _oom_alone,
    "serve-open-device-lost": _open_device_lost,
    "serve-open-resident-copy-exhausted": _resident_copy_exhausted("h2d"),
    "serve-finalize-resident-copy-exhausted": _resident_copy_exhausted("d2h"),
    "serve-issue-device-lost": _issue_device_lost,
    "serve-infeasible-head": _infeasible_head,
    "serve-deferred-after-device-loss": _deferred_after_device_loss,
    "serve-no-healthy-device": _no_healthy_device,
    "serve-request-retry-budget": _request_retry_budget,
    "serve-deadline-sharded": _deadline_sharded,
}

#: the serve scenarios of recovery.json, for the counter checks
RECOVERY_SERVE: Dict[str, Callable[[], Served]] = {
    **{
        f"serve-transient-s{seed}": functools.partial(
            _workload, str(WORKLOAD), "transient", seed)
        for seed in (1, 2)
    },
    **{
        f"serve-transient-2dev-sharded-s{seed}": functools.partial(
            _workload, str(WORKLOAD), "transient", seed, devices=2)
        for seed in (4, 5)
    },
    **{
        f"serve-transient-two-sharded-s{seed}": functools.partial(
            _workload, TWO_SHARDED_WORKLOAD, "transient", seed)
        for seed in (0, 7)
    },
    "serve-failover-2dev": functools.partial(
        _workload, str(WORKLOAD), "failover", 1, devices=2),
    "serve-sdc-checksum": functools.partial(
        _workload, str(WORKLOAD), "sdc", 2, integrity="checksum"),
    "serve-straggler-watchdog": functools.partial(
        _workload, STRAGGLER_WORKLOAD, "straggler", 0, watchdog=True),
}


@functools.lru_cache(maxsize=None)
def _served(name: str) -> Served:
    return {**SERVE, **RECOVERY_SERVE}[name]()


def _serve_digest(name: str) -> Dict[str, object]:
    s = _served(name)
    return {
        "report": _sha(s.report.to_dict()),
        "events": _sha(s.events),
        "dumps": _sha(s.dumps),
        "metrics": _sha(s.metrics),
        "statuses": [r.status for r in s.report.results],
        "dump_reasons": [d["reason"] for d in s.dumps],
    }


# ----------------------------------------------------------------------
# standalone region runs under a fault policy (run_with_recovery)
# ----------------------------------------------------------------------
_POLICY = FaultPolicy(max_retries=2, degrade=("pipelined", "naive"))


def _region_runs(
    runs, plan: FaultPlan, *, model: str = "buffer", integrity: str = "off",
) -> Dict[str, object]:
    """Run each ``(app, config)`` of ``runs`` in turn on one runtime."""
    obs = Observability()
    rt = Runtime(NVIDIA_K40M, obs=obs)
    rt.install_faults(plan)
    outcomes = []
    with rt:
        for app, config in runs:
            req = build_request(app, config=config, virtual=False)
            try:
                res = req.region.run(
                    rt, req.arrays, req.kernel, model=model,
                    fault_policy=_POLICY, integrity=integrity,
                )
            except RegionFailure as exc:
                outcomes.append({
                    "failure": str(exc),
                    "attempts": exc.attempts,
                    "retries": exc.retries,
                    "chunk_status": {str(k): v for k, v in exc.chunk_status.items()},
                })
            else:
                outcomes.append(res.to_dict())
    return {
        "results": _sha(outcomes),
        "metrics": _sha(obs.metrics.snapshot()),
        "trace": _sha(obs.chrome_trace()),
        "models": [o.get("model", "failed") for o in outcomes],
        "attempts": [o.get("attempts", []) for o in outcomes],
    }


_MATMUL = ("matmul", {"n": 48, "block": 8})
#: every H2D faults until three have: the buffer model's blocking
#: resident copy exhausts its two retries, the pipelined baseline runs
_H2D_EXHAUST = FaultPlan(seed=1, h2d_fault_rate=1.0, max_transfer_faults=3)


def _chaos_degrade() -> Dict[str, object]:
    # scripts/ci_check.sh's degrade-chain smoke, pinned
    obs = Observability()
    report = run_chaos(
        "stencil", "chaos", seed=1, obs=obs,
        policy=FaultPolicy(max_retries=0, degrade=("pipelined", "naive")),
    )
    return {
        "report": _sha(dataclasses.asdict(report)),
        "metrics": _sha(obs.metrics.snapshot()),
        "models": [report.model],
        "matches_reference": report.matches_reference,
    }


RECOVER: Dict[str, Callable[[], Dict[str, object]]] = {
    "recover-resident-copy-exhausted": functools.partial(
        _region_runs, [_MATMUL], _H2D_EXHAUST),
    "recover-integrity-gap": functools.partial(
        _region_runs, [_MATMUL], _H2D_EXHAUST, integrity="checksum"),
    # a first region's co-tenant grabs all free memory; the second,
    # larger region re-tunes, cannot fit, and degrades to the end
    "recover-retune-degrade": functools.partial(
        _region_runs,
        [_MATMUL, ("matmul", {"n": 96, "block": 8})],
        FaultPlan(seed=1, pressure_events=(
            PressureEvent(at_retirement=3, nbytes=1 << 62),
        )),
    ),
    "recover-baseline-device-lost": functools.partial(
        _region_runs, [_MATMUL], FaultPlan(seed=1, device_lost_at=2),
        model="naive",
    ),
    "recover-chaos-degrade-naive": _chaos_degrade,
}


def _scenario(name: str) -> Dict[str, object]:
    if name in SERVE:
        return _serve_digest(name)
    return RECOVER[name]()


SCENARIOS = sorted([*SERVE, *RECOVER])


def _golden() -> dict:
    assert GOLDEN.exists(), f"missing {GOLDEN}; see the module docstring"
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", SCENARIOS)
def test_outcome_matches_golden(name):
    assert _scenario(name) == _golden()[name]


def _attempts(name: str) -> str:
    return " | ".join("; ".join(a) for a in _golden()[name]["attempts"])


def test_device_loss_undefers_waiting_requests():
    """The deferred request is planned again once its device is lost:
    it fails on the surviving device's limit with its own footprint,
    not as an idle pool's head that no live device has planned."""
    small, large = SERVE["serve-deferred-after-device-loss"]().report.results
    for result in (small, large):
        assert result.status == "failed"
        assert "limit is 100000 B" in result.error
    assert "needs at least 0 B" not in large.error


def test_golden_scenarios_take_their_branch():
    """Every pinned scenario reached the outcome it is named for."""
    golden = _golden()
    assert sorted(golden) == SCENARIOS
    assert golden["serve-oom-deferred"]["statuses"] == ["ok", "ok"]
    assert golden["serve-oom-alone"]["statuses"] == ["ok", "ok", "failed"]
    assert "device-lost" in golden["serve-open-device-lost"]["dump_reasons"]
    assert "device-lost" in golden["serve-issue-device-lost"]["dump_reasons"]
    assert golden["serve-infeasible-head"]["statuses"] == ["failed", "ok"]
    assert golden["serve-deferred-after-device-loss"]["statuses"] == ["failed", "failed"]
    for stage in ("open", "finalize"):
        got = golden[f"serve-{stage}-resident-copy-exhausted"]
        assert got["statuses"] == ["failed", "failed"], stage
    assert set(golden["serve-no-healthy-device"]["statuses"]) == {"failed"}
    assert "region-failure" in golden["serve-request-retry-budget"]["dump_reasons"]
    assert golden["serve-deadline-sharded"]["statuses"] == ["cancelled", "ok"]
    assert "deadline-cancel" in golden["serve-deadline-sharded"]["dump_reasons"]
    assert golden["recover-resident-copy-exhausted"]["models"] == ["pipelined"]
    assert golden["recover-integrity-gap"]["models"] == ["pipelined"]
    assert golden["recover-retune-degrade"]["models"] == ["pipelined-buffer", "failed"]
    assert "naive: cannot fit memory" in _attempts("recover-retune-degrade")
    assert golden["recover-baseline-device-lost"]["models"] == ["failed"]
    assert golden["recover-chaos-degrade-naive"]["models"] == ["naive"]
    assert golden["recover-chaos-degrade-naive"]["matches_reference"] is True


#: request status -> the event that announces it
_STATUS_EVENT = {
    "ok": "request.retire",
    "failed": "request.fail",
    "shed": "request.shed",
    "cancelled": "request.cancel",
}


@pytest.mark.parametrize("name", sorted([*SERVE, *RECOVERY_SERVE]))
def test_counters_agree_with_events(name):
    """Each serve counter equals the events announcing its transition."""
    s = _served(name)
    if name in RECOVERY_SERVE:
        # the very run recovery.json pins
        pinned = json.loads(RECOVERY_GOLDEN.read_text(encoding="utf-8"))[name]
        assert _sha(s.events) == pinned["events"]
    kinds = s.kinds()
    assert s.counter("serve.breaker.trips") == kinds["breaker.trip"] + kinds["quarantine"]
    assert s.counter("serve.breaker.closes") == kinds["breaker.close"]
    assert s.counter("serve.device_lost") == kinds["device.lost"]
    assert s.counter("serve.failover") == kinds["request.requeue"]
    for status, kind in _STATUS_EVENT.items():
        assert s.counter(f"serve.requests.{status}") == kinds[kind], status
    sharded_admits = sum(
        1 for e in s.events
        if e["kind"] == "request.admit" and e.get("shards") is not None
    )
    assert s.counter("serve.sharded") == sharded_admits
    resplits = (
        s.report.resplits,
        s.counter("sharded.resplits"),
        kinds["shard.resplit"],
    )
    assert resplits[0] == resplits[1] == resplits[2], resplits


if __name__ == "__main__":
    out = {name: _scenario(name) for name in SCENARIOS}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(out)} scenarios)")
