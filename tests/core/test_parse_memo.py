"""``TargetRegion.parse`` parses each distinct ``(pragma, loop)`` once.

Regions built from one pragma text share the parser's clause objects
(all frozen) but never its lists, so a region built from the memo is
indistinguishable from one built from a fresh :func:`parse_pragma`, a
region that rebinds its clauses leaves every other region alone, and a
pragma the parser rejects is rejected with the same message every time.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.apps import conv3d as cv
from repro.apps import matmul as mm
from repro.apps import qcd as qc
from repro.apps import stencil as st
from repro.core import region as region_mod
from repro.core.region import TargetRegion
from repro.directives.clauses import DirectiveError, Loop, MapClause, PipelineClause
from repro.directives.format import format_pragma
from repro.directives.parser import ParsedPragma, parse_pragma
from tests.directives.test_parser import FIGURE2, LOOP, MALFORMED

ROOT = Path(__file__).resolve().parents[2]

#: the well-formed pragmas of ``tests/directives/test_parser.py``
PARSER_PRAGMAS = [
    (FIGURE2, LOOP),
    ("pipeline(static[2,4]) pipeline_map(to: A[k:1][0:8])", LOOP),
    ("pipeline(adaptive[1,2]) pipeline_map(to: A[k:1][0:8])", LOOP),
    ("pipeline(static[1,2]) pipeline_map(to: A[k:1][0:8]) map(tofrom: C)", LOOP),
    ("pipeline(static[1,2]) pipeline_map(to: A[0:4096][kb*512:512])", Loop("kb", 0, 8)),
    ("#pragma acc target pipeline(static[1,2]) pipeline_map(to: A[k:1][0:8])", LOOP),
    ("pipeline(static[1,3]) pipeline_map(to: A[k-1:3][0:16])", LOOP),
    ("pipeline( static[ 1 , 3 ] )   pipeline_map( to :A[ k-1 : 3 ][ 0 : 16 ])", LOOP),
]


def _app_pragmas():
    """``(text, loop)`` of every app's region, under its default config
    and under an adaptive schedule with a memory limit."""
    seen = []
    shared = region_mod._parse_shared

    def record(text, loop):
        seen.append((text, loop))
        return shared(text, loop)

    region_mod._parse_shared = record
    try:
        for app, config in (
            (cv, cv.Conv3dConfig), (st, st.StencilConfig),
            (qc, qc.QcdConfig), (mm, mm.MatmulConfig),
        ):
            app.make_region(config())
            app.make_region(config(schedule="adaptive", mem_limit="256MB"))
    finally:
        region_mod._parse_shared = shared
    return seen


ALL_PRAGMAS = _app_pragmas() + PARSER_PRAGMAS


def _clauses(r):
    """A region's (or parse's) clauses, lists as lists."""
    return (
        r.pipeline, list(r.pipeline_maps), list(r.maps), r.mem_limit,
        r.device_num, tuple(r.privates),
    )


@pytest.fixture(autouse=True)
def _fresh_memo():
    region_mod._parse_shared.cache_clear()
    yield
    region_mod._parse_shared.cache_clear()


def test_apps_and_parser_tests_cover_the_pragmas():
    assert len(ALL_PRAGMAS) == 16
    assert len({text for text, _loop in ALL_PRAGMAS}) == 16


@pytest.mark.parametrize("index", range(len(ALL_PRAGMAS)))
def test_region_built_twice_equals_a_fresh_parse(index):
    text, loop = ALL_PRAGMAS[index]
    first = TargetRegion.parse(text, loop)
    second = TargetRegion.parse(text, loop)
    assert region_mod._parse_shared.cache_info().hits == 1
    fresh = parse_pragma(text, loop)
    assert _clauses(first) == _clauses(second) == _clauses(fresh)
    assert first.pipeline_maps is not second.pipeline_maps
    assert first.maps is not second.maps
    for r in (first, second):
        parsed = ParsedPragma(
            pipeline=r.pipeline, pipeline_maps=r.pipeline_maps, maps=r.maps,
            mem_limit=r.mem_limit,
        )
        back = parse_pragma(format_pragma(parsed, loop_var=loop.var), loop)
        assert _clauses(back)[:4] == _clauses(fresh)[:4]


@pytest.mark.parametrize("text", MALFORMED)
def test_invalid_pragma_raises_the_same_error_every_call(text):
    with pytest.raises(DirectiveError) as want:
        parse_pragma(text, LOOP)
    for _ in range(2):
        with pytest.raises(DirectiveError) as got:
            TargetRegion.parse(text, LOOP)
        assert str(got.value) == str(want.value)
    assert region_mod._parse_shared.cache_info().currsize == 0


def test_rebinding_one_region_leaves_another_unchanged():
    text, loop = ALL_PRAGMAS[0]
    first = TargetRegion.parse(text, loop)
    second = TargetRegion.parse(text, loop)
    want = _clauses(second)
    first.pipeline = PipelineClause("adaptive", 7, 5)
    first.pipeline_maps.pop()
    first.maps.append(MapClause("to", "Z"))
    assert _clauses(second) == want
    assert _clauses(TargetRegion.parse(text, loop)) == want


def test_parse_keys_on_the_loop():
    text = "pipeline(static[1,2]) pipeline_map(to: A[kb*4:4][0:8])"
    assert TargetRegion.parse(text, Loop("kb", 0, 8)).pipeline_maps[0].split_iter.a == 4
    with pytest.raises(DirectiveError):
        TargetRegion.parse(text, Loop("k", 0, 8))


def _bench_workloads(monkeypatch):
    """``bench/workloads.py``, imported for one test without writing
    bytecode there."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def test_backlog_setup_parses_each_distinct_pragma_once(monkeypatch, tmp_path):
    """A seed-1 ``serve_backlog`` setup builds 600 requests of ten shapes
    (nine pragma texts, two stencils differing only in their loop): ten
    parses."""
    calls = []

    def counted(text, loop):
        calls.append((text, loop))
        return parse_pragma(text, loop)

    workloads = _bench_workloads(monkeypatch)
    workload = workloads.WORKLOADS["serve_backlog"](1, workdir=str(tmp_path))
    workload.prepare()
    monkeypatch.setattr(region_mod, "parse_pragma", counted)
    state = workload.setup()
    assert len(state["sched"]._waiting) == 600
    assert len(calls) == len(set(calls)) == 10
    assert len({text for text, _loop in calls}) == 9
