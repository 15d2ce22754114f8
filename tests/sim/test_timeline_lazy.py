"""A timeline's column store is byte-identical to an eager build.

A region's timeline is a view of the rows its retired commands were
folded into, and its records are built from those rows on first
access.  Every surface that reads it must render exactly what the
eager ``Timeline(records)`` construction renders.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis import ascii_gantt
from repro.sim import NVIDIA_K40M, Device
from repro.sim.stream import SimStream
from repro.sim.trace import Timeline, TimelineRecord

from tests.sim.test_retirement_refs import APPS, _retired


def _eager(commands):
    """The per-command conversion as written before timelines were lazy."""
    return Timeline([
        TimelineRecord(
            kind=c.kind,
            label=c.label,
            stream=c.stream.name if isinstance(c.stream, SimStream) else "",
            engine=c.engine,
            enqueue=c.enqueue_time,
            start=c.start_time,
            finish=c.finish_time,
            nbytes=c.nbytes,
        )
        for c in commands
    ])


@pytest.mark.parametrize("app", sorted(APPS))
def test_region_timeline_matches_eager_build(app):
    res, retired = _retired(app)
    eager = dataclasses.replace(res, timeline=_eager([c for c, _ in retired]))
    assert res.timeline.records == eager.timeline.records
    assert json.dumps(res.to_dict(), sort_keys=True) == json.dumps(
        eager.to_dict(), sort_keys=True
    )
    assert res.summary() == eager.summary()
    assert ascii_gantt(res.timeline) == ascii_gantt(eager.timeline)


def test_device_timeline_matches_eager_build():
    dev = Device(NVIDIA_K40M)
    dev.submit_copy("h2d", 1 << 20, stream=SimStream("s0"))
    dev.submit_copy("d2h", 1 << 16, stream=SimStream("s1"))
    dev.submit_copy("h2d", 1 << 10)
    dev.wait_all()
    eager = _eager(dev.sim.completed)
    lazy = dev.timeline()
    assert len(lazy) == 3
    assert lazy.records == eager.records


def test_records_built_once_on_first_access():
    res, retired = _retired("stencil")
    tl = res.timeline
    assert tl._records is None
    assert tl.records is tl.records
    assert len(tl) == len(retired)
