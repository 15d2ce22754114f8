"""Tests for the experiment CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_all_subcommands_parse(self):
        p = build_parser()
        assert p.parse_args(["list"]).cmd == "list"
        args = p.parse_args(["run", "fig3", "--device", "hd7970"])
        assert (args.experiment, args.device) == ("fig3", "hd7970")
        assert p.parse_args(["compare", "stencil"]).app == "stencil"
        assert p.parse_args(["trace", "3dconv", "-o", "x.json"]).out == "x.json"

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(EXPERIMENTS)

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_fig3(self, capsys):
        assert main(["run", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "time distribution" in out
        assert "Pipelined speedup" in out

    def test_run_fig8_on_amd(self, capsys):
        assert main(["run", "fig8", "--device", "hd7970"]) == 0
        out = capsys.readouterr().out
        assert "chunk count" in out and "hd7970" in out

    def test_run_figure_too_big_for_device(self, capsys):
        """A figure whose dataset exceeds the device ends in one line on
        stderr and exit 2, not a traceback."""
        assert main(["run", "fig5", "--device", "hd7970"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("fig5 does not fit the hd7970: ")
        assert "1811939328 B" in err and "B usable" in err

    def test_compare_each_app(self, capsys):
        for app in ("stencil", "3dconv", "qcd"):
            assert main(["compare", app]) == 0
        out = capsys.readouterr().out
        assert "naive=" in out and "qcd-large" in out

    def test_compare_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["compare", "raytracer"])

    def test_trace_ascii(self, capsys):
        assert main(["trace", "stencil", "--width", "50"]) == 0
        out = capsys.readouterr().out
        assert "legend" in out and "#" in out

    def test_trace_json(self, tmp_path, capsys):
        out_file = tmp_path / "t.json"
        assert main(["trace", "stencil", "-o", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["traceEvents"]
        assert "wrote" in capsys.readouterr().out

    def test_trace_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["trace", "qcd"])

    def test_run_all_dedupes_shared_generators(self, capsys):
        """fig5/fig6 and fig9/fig10 share generators; 'all' must not
        run them twice."""
        assert main(["run", "all"]) == 0
        out = capsys.readouterr().out
        assert out.count("Speedup and memory by benchmark") == 1
        assert out.count("Matmul speedup/memory") == 1


class TestFigureRuns:
    """``repro run`` prints the same runs the figure benchmarks assert."""

    def test_run_fig5_stencil_buffer_beats_pipelined(self, capsys):
        # Figure 5's hand-coded Pipelined stencil runs on OpenACC's
        # default of 8 streams and trails the buffer version
        assert main(["run", "fig5"]) == 0
        out = capsys.readouterr().out
        (row,) = [
            line.split() for line in out.splitlines()
            if line.split()[:1] == ["stencil"]
        ]
        pipelined, buffer = float(row[1]), float(row[2])
        assert buffer > pipelined

    def test_run_fig8_defaults_to_hd7970_with_both_sweeps(self, capsys):
        assert main(["run", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "===== fig8 (hd7970) =====" in out
        assert "3dconv: speedup vs chunk count (hd7970)" in out
        assert "stencil: speedup vs chunk count (hd7970)" in out


class TestChaos:
    def test_chaos_parses(self):
        args = build_parser().parse_args(
            ["chaos", "stencil", "--profile", "jitter", "--seed", "5", "--retries", "2"]
        )
        assert (args.app, args.profile, args.seed, args.retries) == (
            "stencil", "jitter", 5, 2,
        )

    def test_chaos_recovers_and_exits_zero(self, capsys):
        assert main(["chaos", "stencil", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "reference match  yes" in out
        assert "faults injected" in out

    def test_chaos_unknown_profile(self, capsys):
        assert main(["chaos", "stencil", "--profile", "nosuch"]) == 2
        assert "unknown fault profile" in capsys.readouterr().err

    def test_chaos_unknown_app(self, capsys):
        assert main(["chaos", "raytracer"]) == 2
        assert "unknown chaos app" in capsys.readouterr().err

    def test_chaos_exhaustion_reported_cleanly(self, capsys):
        # recovery disabled: exits 1 with the RegionFailure text, no traceback
        rc = main(["chaos", "stencil", "--no-degrade", "--retries", "0",
                   "--profile", "chaos", "--seed", "3"])
        assert rc == 1
        assert "recovery failed" in capsys.readouterr().err


class TestAnalyze:
    def test_analyze_parses(self):
        args = build_parser().parse_args(
            ["analyze", "stencil", "--baseline", "b.json",
             "--tolerance", "0.1", "-o", "out.json"]
        )
        assert (args.app, args.baseline, args.tolerance, args.out) == (
            "stencil", "b.json", 0.1, "out.json",
        )

    def test_analyze_report(self, capsys):
        assert main(["analyze", "stencil"]) == 0
        out = capsys.readouterr().out
        assert "critical-path analysis" in out
        assert "where the wall time went" in out
        assert "what-if bounds" in out

    def test_analyze_json_and_out_are_identical(self, tmp_path, capsys):
        out_file = tmp_path / "a.json"
        assert main(["analyze", "matmul", "--json", "-o", str(out_file)]) == 0
        printed = capsys.readouterr().out
        # stdout JSON begins after the "wrote ..." line
        doc = json.loads(printed[printed.index("{"):])
        assert doc == json.loads(out_file.read_text())
        assert doc["model"] == "pipelined-buffer"
        assert doc["causes"]

    def test_analyze_baseline_gate(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        assert main(["analyze", "qcd", "-o", str(base)]) == 0
        capsys.readouterr()
        # identical baseline: gate passes
        assert main(["analyze", "qcd", "--baseline", str(base)]) == 0
        assert "no regression" in capsys.readouterr().out
        # doctored faster baseline: gate trips
        doc = json.loads(base.read_text())
        doc["wall_s"] *= 0.5
        base.write_text(json.dumps(doc))
        assert main(["analyze", "qcd", "--baseline", str(base)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_analyze_bad_baseline(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["analyze", "stencil", "--baseline", str(bad)]) == 2
        assert "bad baseline" in capsys.readouterr().err

    def test_analyze_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["analyze", "raytracer"])
