"""Unit tests for the pragma text parser."""

from __future__ import annotations

import pytest

from repro.directives.clauses import DirectiveError, Loop
from repro.directives.parser import parse_mem_size, parse_pragma

LOOP = Loop("k", 1, 63)

#: the paper's Figure 2 stencil pragma, verbatim
FIGURE2 = """
    #pragma omp target \\
        pipeline(static[1,3]) \\
        pipeline_map(to: A0[k-1:3][0:512][0:512]) \\
        pipeline_map(from: Anext[k:1][0:512][0:512]) \\
        pipeline_mem_limit(MB_256)
"""

#: pragmas the parser rejects (each against ``LOOP``)
MALFORMED = [
    "pipeline_map(to: A[k:1][0:8])",  # missing pipeline()
    "pipeline(static[1,2])",  # missing pipeline_map
    "pipeline(static[1]) pipeline_map(to: A[k:1][0:8])",  # one param
    "pipeline(static[1,2]) pipeline_map(A[k:1][0:8])",  # no map_type
    "pipeline(static[1,2]) pipeline_map(to: A[0:8][1:2])",  # no loop var
    "pipeline(static[1,2]) pipeline_map(to: A[k:1][k:1][0:8])",  # 2 splits... same bracket twice
    "pipeline(static[1,2]) pipeline_map(to: A[k:1][0:8]) bogus(1)",
    "pipeline(static[1,2]) pipeline_map(to: A[k:1][0:8]) pipeline(static[1,2])",
    "pipeline(static[1,2]) pipeline_map(to: A[k:1][0:8]) pipeline_map(to: A[k:1][0:8])",
    "pipeline(static[1,2]) pipeline_map(to: A[k:1][0:8]) stray words",
]


class TestMemSize:
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("1024", 1024),
            ("256MB", 256_000_000),
            ("1.5GB", 1_500_000_000),
            ("64KiB", 65536),
            ("2GiB", 2 << 30),
            ("MB_256", 256_000_000),  # the paper's macro spelling
            ("GB_2", 2_000_000_000),
            ("512 kb", 512_000),
        ],
    )
    def test_valid(self, text, expect):
        assert parse_mem_size(text) == expect

    @pytest.mark.parametrize("text", ["", "MB", "12XB", "lots"])
    def test_invalid(self, text):
        with pytest.raises(DirectiveError):
            parse_mem_size(text)


class TestFigure2Pragma:
    """The paper's Figure 2 stencil pragma must parse verbatim."""

    PRAGMA = FIGURE2

    def test_parses(self):
        p = parse_pragma(self.PRAGMA, LOOP)
        assert p.pipeline.schedule == "static"
        assert p.pipeline.chunk_size == 1
        assert p.pipeline.num_streams == 3
        assert p.mem_limit.limit_bytes == 256_000_000
        assert len(p.pipeline_maps) == 2

    def test_input_clause_geometry(self):
        p = parse_pragma(self.PRAGMA, LOOP)
        a0 = p.map_for("A0")
        assert a0.direction == "to"
        assert a0.split_dim == 0
        assert (a0.split_iter.a, a0.split_iter.b) == (1, -1)
        assert a0.size == 3
        assert a0.dims[1] == (0, 512) and a0.dims[2] == (0, 512)
        assert a0.dims[0] == (0, -1)  # split extent bound later

    def test_output_clause_geometry(self):
        p = parse_pragma(self.PRAGMA, LOOP)
        an = p.map_for("Anext")
        assert an.direction == "from"
        assert an.size == 1
        assert (an.split_iter.a, an.split_iter.b) == (1, 0)

    def test_map_for_unknown_raises(self):
        p = parse_pragma(self.PRAGMA, LOOP)
        with pytest.raises(KeyError):
            p.map_for("nope")


class TestGrammar:
    def test_minimal_pragma(self):
        p = parse_pragma(
            "pipeline(static[2,4]) pipeline_map(to: A[k:1][0:8])", LOOP
        )
        assert p.pipeline.chunk_size == 2 and p.pipeline.num_streams == 4
        assert p.mem_limit is None and p.maps == []

    def test_adaptive_schedule(self):
        p = parse_pragma(
            "pipeline(adaptive[1,2]) pipeline_map(to: A[k:1][0:8])", LOOP
        )
        assert p.pipeline.schedule == "adaptive"

    def test_resident_map_clause(self):
        p = parse_pragma(
            "pipeline(static[1,2]) pipeline_map(to: A[k:1][0:8]) map(tofrom: C)",
            LOOP,
        )
        assert p.maps[0].var == "C" and p.maps[0].direction == "tofrom"

    def test_inner_dim_split(self):
        """Matmul's A splits its second dimension via bracket position."""
        p = parse_pragma(
            "pipeline(static[1,2]) pipeline_map(to: A[0:4096][kb*512:512])",
            Loop("kb", 0, 8),
        )
        a = p.map_for("A")
        assert a.split_dim == 1
        assert a.split_iter.a == 512
        assert a.dims[0] == (0, 4096)

    def test_acc_prefix_tolerated(self):
        p = parse_pragma(
            "#pragma acc target pipeline(static[1,2]) pipeline_map(to: A[k:1][0:8])",
            LOOP,
        )
        assert p.pipeline.num_streams == 2

    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_rejected(self, text):
        with pytest.raises(DirectiveError):
            parse_pragma(text, LOOP)

    def test_duplicate_variable_across_map_kinds_rejected(self):
        with pytest.raises(DirectiveError):
            parse_pragma(
                "pipeline(static[1,2]) pipeline_map(to: A[k:1][0:8]) map(to: A)",
                LOOP,
            )

    def test_whitespace_insensitive(self):
        p1 = parse_pragma(
            "pipeline(static[1,3]) pipeline_map(to: A[k-1:3][0:16])", LOOP
        )
        p2 = parse_pragma(
            "pipeline( static[ 1 , 3 ] )   pipeline_map( to :A[ k-1 : 3 ][ 0 : 16 ])",
            LOOP,
        )
        assert p1.pipeline == p2.pipeline
        assert p1.pipeline_maps[0].size == p2.pipeline_maps[0].size
