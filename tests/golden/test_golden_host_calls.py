"""Host-side calls, frozen.

``issue_stream.json`` pins the device commands each scenario of
:data:`tests.core.test_issue_stream.SCENARIOS` enqueues, and the four
app traces pin the API spans of plain virtual runs.  This file pins the
host side of every one of those scenarios — checksum and vote
commands, transient-fault replays, two shards and the autotune search
included — with :class:`~repro.obs.Observability` attached:

* ``host_spans``: sha256 of the tracer's host-track spans in recorded
  order, each as ``(name, category, repr(start), repr(end), attrs)``;
* ``metrics``: sha256 of ``metrics.snapshot()`` (sorted keys);
* ``host_now``: ``repr`` of the final host clock of every
  :class:`~repro.gpu.runtime.Runtime` the scenario built, in
  construction order.

Any change to which API calls a region makes, what each charges to the
host clock, or which spans and counters it records shows up here.

An intentional change regenerates the file with::

    PYTHONPATH=src python -m tests.golden.test_golden_host_calls
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.gpu.runtime import Runtime
from repro.obs import Observability
from tests.core.test_issue_stream import SCENARIOS

GOLDEN = Path(__file__).resolve().parent / "host_calls.json"


def _sha(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def capture(name: str) -> Dict[str, object]:
    """Run one scenario observed; returns its host-side digest."""
    runtimes: List[Runtime] = []
    real_init = Runtime.__init__

    def init(self, *args, **kw):
        real_init(self, *args, **kw)
        runtimes.append(self)

    obs = Observability()
    Runtime.__init__ = init
    try:
        SCENARIOS[name](obs)
    finally:
        Runtime.__init__ = real_init
    spans = [
        (s.name, s.category, repr(s.start), repr(s.end), s.attrs)
        for s in obs.tracer.spans if s.track == "host"
    ]
    return {
        "host_spans": _sha(spans),
        "spans": len(spans),
        "metrics": hashlib.sha256(
            json.dumps(
                obs.metrics.snapshot(), sort_keys=True, separators=(",", ":"),
                default=repr,
            ).encode()
        ).hexdigest(),
        "host_now": [repr(rt.host_now) for rt in runtimes],
    }


def _golden() -> dict:
    assert GOLDEN.exists(), f"missing {GOLDEN}; see the module docstring"
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_host_calls_match_golden(name):
    assert capture(name) == _golden()[name]


def test_every_issue_path_records_api_spans():
    """The pinned scenarios exercise the API-call spans at all."""
    golden = _golden()
    for name in ("stencil-checksum", "conv3d-vote", "stencil-transient",
                 "conv3d-2shard"):
        assert golden[name]["spans"] > 0, name
        assert golden[name]["host_now"], name


if __name__ == "__main__":
    out = {name: capture(name) for name in sorted(SCENARIOS)}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(out)} scenarios)")
