"""Recovery paths, frozen.

The other goldens pin fault-free behaviour (``serve_journal.jsonl`` is
fault-free; ``issue_stream.json`` holds one transient scenario).  This
file pins what the recovery machinery *reports* when faults fire:

* ``run_chaos`` over every chaos app under the ``transient`` and
  ``chaos`` profiles at seeds 0 and 1, plus ``sdc`` with checksums —
  chunk replay, blocking-copy reissue, re-tuning and degradation;
* serve runs of ``examples/serve_workload.json`` under ``transient``,
  ``failover`` on two devices, ``sdc`` with checksums and ``transient``
  on two devices (the sharded request's faults cross the fault
  router), plus two sharded requests and a co-tenant under
  ``transient`` — co-tenant fault routing, the circuit breaker, pool
  failover and corruption replay;
* the 3-device ``straggler`` workload with the watchdog on, as in
  ``scripts/ci_check.sh`` — watchdog re-splits.

Each scenario is reduced to sha256 digests of canonical JSON (sorted
keys, compact separators): the ``ChaosReport`` or
``ServeReport.to_dict()``, every flight-recorder event (teed off the
recorder, not just the bounded ring), the recorder's dumps, and the
metrics snapshot.  Any change to what recovery replays, in what order,
what it charges to the clock, or what it records shows up here.

An intentional change regenerates the file with::

    PYTHONPATH=src python -m tests.golden.test_golden_recovery
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.faults import CHAOS_APPS, pool_fault_plans, run_chaos
from repro.obs import Observability
from repro.serve import DevicePool, RegionScheduler, ServeConfig, load_workload

GOLDEN = Path(__file__).resolve().parent / "recovery.json"
WORKLOAD = Path(__file__).resolve().parents[2] / "examples" / "serve_workload.json"

#: two sharded requests and a co-tenant on two devices: each shard's
#: claim pops both members, so routing order shows in the events
TWO_SHARDED_WORKLOAD = {
    "device": "k40m",
    "devices": 2,
    "requests": [
        {"app": "stencil", "tenant": "s", "shards": 2,
         "config": {"nz": 34, "ny": 64, "nx": 64}},
        {"app": "conv3d", "tenant": "c", "shards": 2,
         "config": {"nz": 26, "ny": 64, "nx": 64}},
        {"app": "matmul", "tenant": "m", "config": {"n": 128, "block": 16}},
    ],
}

#: the 3-device straggler workload of scripts/ci_check.sh
STRAGGLER_WORKLOAD = {
    "device": "k40m",
    "devices": 3,
    "budget_mb": 0.5,
    "requests": [
        {"app": "stencil", "tenant": "s0", "shards": 3,
         "config": {"nz": 194, "ny": 64, "nx": 64}},
        {"app": "stencil", "tenant": "s1", "shards": 3,
         "config": {"nz": 194, "ny": 64, "nx": 64}},
    ],
}


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _chaos(app: str, profile: str, seed: int, integrity: str = "off"):
    def scenario() -> Dict[str, object]:
        obs = Observability()
        report = run_chaos(app, profile, seed=seed, obs=obs, integrity=integrity)
        return {
            "report": _sha(dataclasses.asdict(report)),
            "metrics": _sha(obs.metrics.snapshot()),
            "faults": report.faults_injected,
            "retries": report.retries,
            "corruptions": report.corruptions,
        }

    return scenario


def _serve(
    source, profile: str, seed: int, *, devices=None, integrity: str = "off",
    watchdog: bool = False,
):
    def scenario() -> Dict[str, object]:
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
        return {
            "report": _sha(report.to_dict()),
            "events": _sha(events),
            "dumps": _sha(sched.recorder.dumps),
            "metrics": _sha(obs.metrics.snapshot()),
            "faults": report.faults,
            "retries": report.retries,
            "corruptions": report.corruptions,
            "migrated": report.migrated,
            "resplits": report.resplits,
        }

    return scenario


SCENARIOS: Dict[str, Callable[[], Dict[str, object]]] = {
    f"chaos-{app}-{profile}-s{seed}": _chaos(app, profile, seed)
    for app in CHAOS_APPS
    for profile in ("transient", "chaos")
    for seed in (0, 1)
}
# sdc seeds chosen so every app detects at least one corruption
SCENARIOS.update({
    f"chaos-{app}-sdc-checksum-s{seed}": _chaos(app, "sdc", seed, "checksum")
    for app in CHAOS_APPS
    for seed in (2, 4)
})
# serve seeds chosen so faults land on co-tenants (one device) and on
# the sharded request's members (two devices)
SCENARIOS.update({
    f"serve-transient-s{seed}": _serve(str(WORKLOAD), "transient", seed)
    for seed in (1, 2)
})
SCENARIOS.update({
    f"serve-transient-2dev-sharded-s{seed}": _serve(
        str(WORKLOAD), "transient", seed, devices=2
    )
    for seed in (4, 5)
})
SCENARIOS.update({
    f"serve-transient-two-sharded-s{seed}": _serve(
        TWO_SHARDED_WORKLOAD, "transient", seed
    )
    for seed in (0, 7)
})
SCENARIOS.update({
    "serve-failover-2dev": _serve(str(WORKLOAD), "failover", 1, devices=2),
    "serve-sdc-checksum": _serve(str(WORKLOAD), "sdc", 2, integrity="checksum"),
    "serve-straggler-watchdog": _serve(STRAGGLER_WORKLOAD, "straggler", 0, watchdog=True),
})


def _golden() -> dict:
    assert GOLDEN.exists(), f"missing {GOLDEN}; see the module docstring"
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_recovery_matches_golden(name):
    assert SCENARIOS[name]() == _golden()[name]


def test_golden_scenarios_exercise_recovery():
    """Every pinned scenario actually ran its recovery path."""
    golden = _golden()
    assert sorted(golden) == sorted(SCENARIOS)
    for name, got in golden.items():
        if "sdc" in name:
            assert got["corruptions"] > 0, name
        elif "straggler" in name:
            assert got["resplits"] > 0, name
        elif "failover" in name:
            assert got["migrated"] > 0, name
        elif name.startswith("serve"):
            assert got["faults"] > 0 and got["retries"] > 0, name
    # the fixed chaos grid: most runs absorb faults, not every one
    chaos = [g for n, g in golden.items() if n.startswith("chaos") and "sdc" not in n]
    assert sum(g["retries"] > 0 for g in chaos) >= len(chaos) - 4


if __name__ == "__main__":
    out = {name: SCENARIOS[name]() for name in sorted(SCENARIOS)}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(out)} scenarios)")
