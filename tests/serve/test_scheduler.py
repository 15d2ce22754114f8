"""Unit tests of the multi-tenant scheduler, pool, and workloads."""

from __future__ import annotations

import json

import pytest

from repro.serve import (
    DevicePool,
    RegionRequest,
    RegionScheduler,
    ServeConfig,
    build_request,
    load_workload,
    random_workload,
)


def _sched(requests, *, budget=None, devices=1, config=None, cache=None):
    pool = DevicePool("k40m", count=devices, budget_bytes=budget)
    s = RegionScheduler(pool, config, cache=cache)
    s.submit_all(requests)
    return s


# ----------------------------------------------------------------------
# basics
# ----------------------------------------------------------------------
def test_serves_mixed_workload_ok():
    report = _sched(random_workload(seed=3, n=5)).run()
    assert report.ok
    assert len(report.results) == 5
    assert [r.request_id for r in report.results] == list(range(5))
    for r in report.results:
        assert r.status == "ok"
        assert r.device == 0
        assert r.nchunks >= 1
        assert r.service > 0
        assert r.commands > 0
        assert r.busy["kernel"] > 0


def test_serial_mode_never_overlaps_regions():
    reqs = random_workload(seed=5, n=4)
    report = _sched(reqs, config=ServeConfig(max_active=1)).run()
    assert report.ok
    # in serial mode each region fully drains before the next starts
    spans = sorted((r.admitted, r.finished) for r in report.results)
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert start >= end


def test_results_sorted_by_submission_order():
    reqs = [
        build_request("matmul", tenant="low", priority=0,
                      config={"n": 96, "block": 16}),
        build_request("matmul", tenant="high", priority=5,
                      config={"n": 96, "block": 16}),
    ]
    report = _sched(reqs, config=ServeConfig(max_active=1)).run()
    assert [r.tenant for r in report.results] == ["low", "high"]


def test_priority_admits_first_in_serial_mode():
    # identical work; the later-submitted high-priority tenant is
    # admitted first, so it finishes first
    reqs = [
        build_request("stencil", tenant="low", priority=0,
                      config={"nz": 18, "ny": 48, "nx": 48}),
        build_request("stencil", tenant="high", priority=5,
                      config={"nz": 18, "ny": 48, "nx": 48}),
    ]
    report = _sched(reqs, config=ServeConfig(max_active=1)).run()
    assert report.ok
    by = {r.tenant: r for r in report.results}
    assert by["high"].finished < by["low"].finished
    assert by["low"].overtaken == 1


def test_unreachable_deadline_is_cancelled():
    ok = build_request("qcd", tenant="fast", deadline=10.0, config={"n": 5})
    late = build_request("qcd", tenant="slow", deadline=1e-9, config={"n": 5})
    report = _sched([ok, late]).run()
    by = {r.tenant: r for r in report.results}
    assert by["fast"].status == "ok"
    assert by["fast"].deadline_met is True
    assert by["slow"].status == "cancelled"
    assert by["slow"].deadline_met is False
    assert "deadline" in by["slow"].error
    assert report.cancelled == 1
    assert report.deadlines_missed == 1
    assert not report.ok


def test_deadline_advisory_when_enforcement_off():
    ok = build_request("qcd", tenant="fast", deadline=10.0, config={"n": 5})
    late = build_request("qcd", tenant="slow", deadline=1e-9, config={"n": 5})
    config = ServeConfig(enforce_deadlines=False)
    report = _sched([ok, late], config=config).run()
    by = {r.tenant: r for r in report.results}
    assert by["fast"].deadline_met is True
    assert by["slow"].status == "ok"  # ran to completion anyway
    assert by["slow"].deadline_met is False
    assert report.deadlines_missed == 1
    assert report.ok


def test_infeasible_request_fails_cleanly():
    # matmul keeps C resident on-device: 512*512*8 = 2 MB alone
    # exceeds the 1 MB budget, so no pipeline setting can ever fit
    reqs = [
        build_request("matmul", tenant="big",
                      config={"n": 512, "block": 64}),
        build_request("qcd", tenant="small", config={"n": 4}),
    ]
    report = _sched(reqs, budget=1_000_000).run()
    by = {r.tenant: r for r in report.results}
    assert by["big"].status == "failed"
    assert "MemLimitError" in by["big"].error
    assert by["small"].status == "ok"
    assert not report.ok
    assert report.device_peaks[0] <= 1_000_000


def test_report_to_dict_roundtrips_through_json():
    report = _sched(random_workload(seed=2, n=3)).run()
    text = json.dumps(report.to_dict(), sort_keys=True)
    back = json.loads(text)
    assert len(back["requests"]) == 3
    assert back["makespan_s"] == report.makespan


def test_run_is_deterministic():
    a = _sched(random_workload(seed=11, n=6)).run()
    b = _sched(random_workload(seed=11, n=6)).run()
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
        b.to_dict(), sort_keys=True
    )


def test_summary_mentions_every_tenant():
    report = _sched(random_workload(seed=4, n=3)).run()
    text = report.summary()
    for r in report.results:
        assert r.tenant in text


# ----------------------------------------------------------------------
# plan cache behaviour through the scheduler
# ----------------------------------------------------------------------
def test_repeat_traffic_hits_cache_and_skips_dry_runs():
    def burst():
        return [
            build_request("stencil", tenant=f"t{i}",
                          config={"nz": 18, "ny": 48, "nx": 48})
            for i in range(3)
        ]

    report = _sched(burst(), config=ServeConfig(max_active=1)).run()
    hits = [r.cache_hit for r in report.results]
    assert hits == [False, True, True]
    assert report.cache["hits"] == 2
    assert report.cache["misses"] == 1
    # only the cold request paid the autotune search
    assert report.dry_runs > 0
    cold = _sched(burst()[:1], config=ServeConfig(max_active=1)).run()
    assert report.dry_runs == cold.dry_runs
    assert report.plan_seconds == pytest.approx(cold.plan_seconds)


def test_warm_cache_across_runs():
    from repro.serve import PlanCache

    cache = PlanCache()
    first = _sched(random_workload(seed=9, n=3), cache=cache).run()
    second = _sched(random_workload(seed=9, n=3), cache=cache).run()
    assert first.dry_runs > 0
    assert second.dry_runs == 0
    assert all(r.cache_hit for r in second.results)
    assert second.plan_seconds == 0.0


def test_each_request_is_bound_once(monkeypatch):
    """A cold cache on two devices: each request's first plan is an
    autotune miss and some are planned for both devices, yet each
    region is bound to its arrays only once."""
    from repro.core.region import TargetRegion

    bound = []
    bind = TargetRegion.bind

    def counting_bind(region, arrays):
        bound.append(region)
        return bind(region, arrays)

    monkeypatch.setattr(TargetRegion, "bind", counting_bind)
    reqs = [
        build_request("stencil", tenant=f"t{i}",
                      config={"nz": 18 + 4 * i, "ny": 48, "nx": 48})
        for i in range(3)
    ]
    report = _sched(reqs, devices=2).run()
    assert report.ok
    assert report.cache["misses"] == len(reqs)
    assert report.cache["hits"] >= 1
    assert len(bound) == len(reqs)
    assert {id(r) for r in bound} == {id(req.region) for req in reqs}


def test_autotune_off_uses_pragma_params():
    reqs = [build_request("conv3d", config={"nz": 18, "ny": 48, "nx": 48})]
    report = _sched(reqs, config=ServeConfig(autotune=False)).run()
    assert report.ok
    assert report.dry_runs == 0
    assert report.plan_seconds == 0.0


# ----------------------------------------------------------------------
# pool
# ----------------------------------------------------------------------
def test_pool_reservation_accounting():
    pool = DevicePool("k40m", budget_bytes=1000)
    assert pool.headroom(0) == 1000
    pool.reserve(0, 600)
    assert not pool.fits(0, 500)
    with pytest.raises(ValueError):
        pool.reserve(0, 500)
    pool.release(0, 600)
    with pytest.raises(ValueError):
        pool.release(0, 1)
    pool.close()


def test_pool_budget_validation():
    with pytest.raises(ValueError):
        DevicePool("k40m", budget_bytes=0)
    with pytest.raises(ValueError):
        DevicePool("k40m", budget_bytes=10**15)
    with pytest.raises(ValueError):
        DevicePool([])


def test_pool_best_fit_prefers_headroom_then_index():
    pool = DevicePool("k40m", count=3, budget_bytes=1000)
    pool.reserve(0, 500)
    assert pool.best_fit(100) == 1  # 1 and 2 tie; lower index wins
    pool.reserve(1, 200)
    assert pool.best_fit(100) == 2
    assert pool.best_fit(10_000) is None


def test_two_devices_share_the_load():
    reqs = random_workload(seed=13, n=4)
    report = _sched(reqs, devices=2).run()
    assert report.ok
    assert {r.device for r in report.results} == {0, 1}


# ----------------------------------------------------------------------
# workloads and requests
# ----------------------------------------------------------------------
def test_build_request_rejects_unknown_app():
    with pytest.raises(ValueError, match="unknown app"):
        build_request("fft")


def test_request_priority_validation():
    req = build_request("qcd", config={"n": 4})
    with pytest.raises(ValueError):
        RegionRequest(
            tenant="x", region=req.region, arrays=req.arrays,
            kernel=req.kernel, priority=-1,
        )


def test_load_workload_from_dict_and_file(tmp_path):
    data = {
        "device": "k40m",
        "budget_mb": 64,
        "requests": [
            {"app": "qcd", "tenant": "a", "config": {"n": 5}},
            {"app": "matmul", "priority": 2,
             "config": {"n": 96, "block": 16}},
        ],
    }
    spec = load_workload(data)
    assert spec.budget_bytes == 64_000_000
    assert [r.tenant for r in spec.requests] == ["a", "tenant1"]
    assert spec.requests[1].priority == 2

    path = tmp_path / "w.json"
    path.write_text(json.dumps(data))
    spec2 = load_workload(str(path))
    assert [r.label for r in spec2.requests] == [r.label for r in spec.requests]


def test_load_workload_rejects_bad_shapes():
    with pytest.raises(ValueError):
        load_workload({"nope": []})
    with pytest.raises(ValueError):
        load_workload({"requests": [{"tenant": "x"}]})


def test_load_workload_rejects_unknown_request_keys():
    from repro.gpu.errors import InvalidValueError

    good = {"app": "qcd", "config": {"n": 5}}
    with pytest.raises(InvalidValueError, match=r"request 1: unknown key"):
        load_workload({"requests": [good, {"app": "qcd", "prio": 2}]})


@pytest.mark.parametrize("deadline", [0, -1, -0.5, 0.0])
def test_load_workload_rejects_nonpositive_deadline(deadline):
    from repro.gpu.errors import InvalidValueError

    with pytest.raises(InvalidValueError, match=r"request 0: deadline"):
        load_workload({"requests": [{"app": "qcd", "deadline": deadline}]})


@pytest.mark.parametrize("deadline", ["soon", True, [1]])
def test_load_workload_rejects_non_numeric_deadline(deadline):
    from repro.gpu.errors import InvalidValueError

    with pytest.raises(InvalidValueError, match=r"request 0: deadline"):
        load_workload({"requests": [{"app": "qcd", "deadline": deadline}]})


def test_load_workload_accepts_valid_deadline():
    spec = load_workload({
        "requests": [{"app": "qcd", "deadline": 0.25, "config": {"n": 5}}]
    })
    assert spec.requests[0].deadline == 0.25


def test_random_workload_same_seed_same_mix():
    a = random_workload(seed=21, n=6)
    b = random_workload(seed=21, n=6)
    assert [r.label for r in a] == [r.label for r in b]
    assert [r.priority for r in a] == [r.priority for r in b]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_serve_replays_workload(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "w.json"
    path.write_text(json.dumps({
        "requests": [
            {"app": "stencil", "tenant": "alice",
             "config": {"nz": 18, "ny": 48, "nx": 48}},
            {"app": "matmul", "tenant": "bob",
             "config": {"n": 96, "block": 16}},
            {"app": "qcd", "tenant": "carol", "config": {"n": 5}},
        ]
    }))
    assert main(["serve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "alice" in out and "bob" in out and "carol" in out
    assert main(["serve", str(path), "--serial", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["requests"]) == 3


def test_cli_serve_writes_trace(tmp_path, capsys):
    from repro.cli import main

    w = tmp_path / "w.json"
    w.write_text(json.dumps({
        "requests": [{"app": "qcd", "config": {"n": 5}}]
    }))
    trace = tmp_path / "trace.json"
    assert main(["serve", str(w), "--trace", str(trace)]) == 0
    events = json.loads(trace.read_text())["traceEvents"]
    assert any(e.get("cat") == "serve" for e in events)


def test_cli_serve_bad_workload_is_exit_2(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["serve", str(bad)]) == 2
    assert main(["serve", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
