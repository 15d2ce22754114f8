"""Shared fixtures for the figure-reproduction benchmark harness.

Each ``test_figNN_*`` module regenerates one table/figure of the paper:
it runs the relevant experiment on the simulated devices, prints the
same rows/series the paper reports (side by side with the paper's
values), asserts the *shape* — who wins, by roughly what factor, where
crossovers fall — and times the experiment through pytest-benchmark.

Run with::

    pytest benchmarks/ --benchmark-only -s

(``-s`` shows the paper-vs-measured tables; results are also appended
to ``benchmarks/results.txt``).
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict

import pytest

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")
RESULTS_JSON_PATH = os.path.join(os.path.dirname(__file__), "results.json")


class ResultSink:
    """Collects report output: prints it, appends the text form to
    ``results.txt``, and writes machine-readable records through to
    ``results.json`` keyed entry by keyed entry."""

    def __init__(self) -> None:
        self._fh = open(RESULTS_PATH, "a", encoding="utf-8")

    def emit(self, title: str, body: str) -> None:
        text = f"\n=== {title} ===\n{body}\n"
        print(text)
        self._fh.write(text)
        self._fh.flush()

    @staticmethod
    def _load_json() -> Dict[str, object]:
        if os.path.exists(RESULTS_JSON_PATH):
            try:
                with open(RESULTS_JSON_PATH, encoding="utf-8") as fh:
                    data = json.load(fh)
                if isinstance(data, dict):
                    return data
            except (OSError, json.JSONDecodeError):
                pass
        return {}

    def record(self, key: str, payload) -> None:
        """Merge one JSON-safe payload into ``results.json`` immediately.

        Write-through and idempotent per key: a ``-k`` subset run
        updates exactly its own entries and leaves every other key
        untouched, so the file converges to the same content from any
        test order or partial run (the old batch-at-session-close
        behaviour silently depended on which tests were selected).
        The read-merge-replace is atomic via a temp file, so a crash
        mid-write never corrupts previously recorded results.
        """
        merged = self._load_json()
        merged[key] = payload
        tmp = RESULTS_JSON_PATH + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=1, sort_keys=True)
        os.replace(tmp, RESULTS_JSON_PATH)

    def close(self) -> None:
        self._fh.close()


@pytest.fixture(scope="session")
def report() -> ResultSink:
    sink = ResultSink()
    yield sink
    sink.close()


@pytest.fixture(scope="session")
def cache() -> Dict[str, object]:
    """Session-wide memo so expensive sweeps run once per session."""
    return {}


def memo(cache: Dict[str, object], key: str, fn: Callable[[], object]):
    """Compute-once helper for session fixtures."""
    if key not in cache:
        cache[key] = fn()
    return cache[key]


def measure_rate(run_pool: Callable[[], object]) -> Dict[str, float]:
    """Wall-time one serve run and derive its engine event rate.

    ``run_pool`` is a zero-arg callable that drives a workload to
    completion and returns the finished :class:`~repro.serve.DevicePool`
    (so retired commands are still attached to the devices).  Returns a
    JSON-safe dict — ``wall_seconds``, ``events`` (retired engine
    commands across the pool), ``events_per_sec`` — that serve/sharding
    benches merge into their ``results.json`` payloads alongside the
    virtual-time makespans.
    """
    t0 = time.perf_counter()
    pool = run_pool()
    seconds = time.perf_counter() - t0
    events = sum(rt.device.retired for rt in pool.runtimes)
    return {
        "wall_seconds": seconds,
        "events": events,
        "events_per_sec": events / seconds if seconds > 0 else 0.0,
    }
