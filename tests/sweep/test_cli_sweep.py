"""CLI surface of the sweep engine: ``repro sweep`` and the global
``--jobs`` / ``--no-cache`` / ``--cache-dir`` flags."""

import json

import pytest

from repro.cli import build_parser, main

pytestmark = pytest.mark.sweep


class TestParser:
    def test_sweep_subcommand_parses(self):
        args = build_parser().parse_args(
            ["sweep", "--grid", "f4", "--machine", "tiny", "--quick"])
        assert args.command == "sweep"
        assert args.grid == "f4"

    def test_global_flags_before_subcommand(self):
        args = build_parser().parse_args(
            ["--jobs", "4", "--no-cache", "sweep", "--grid", "f4"])
        assert args.jobs == 4 and args.no_cache is True

    def test_subcommand_flags_override_defaults(self):
        args = build_parser().parse_args(
            ["sweep", "--grid", "f4", "--jobs", "2",
             "--cache-dir", "/tmp/x"])
        assert args.jobs == 2 and args.cache_dir == "/tmp/x"

    def test_global_value_survives_subparser(self):
        # SUPPRESS defaults in the subparser must not clobber the
        # value parsed by the main parser
        args = build_parser().parse_args(
            ["--cache-dir", "/tmp/y", "experiment", "T1"])
        assert args.cache_dir == "/tmp/y"

    def test_unknown_grid_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--grid", "f99"])


class TestSweepCommand:
    def test_grid_then_replay_hits_100_percent(self, tmp_path, capsys):
        argv = ["sweep", "--grid", "f4", "--machine", "tiny", "--quick",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "miss" in cold and "(0% hit rate)" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "(100% hit rate)" in warm

    def test_json_runs_are_bit_identical(self, tmp_path, capsys):
        argv = ["sweep", "--grid", "f4", "--machine", "tiny", "--quick",
                "--cache-dir", str(tmp_path / "cache"), "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["stats"]["misses"] > 0
        assert second["stats"]["hit_rate"] == 1.0
        assert second["measurements"] == first["measurements"]
        assert second["keys"] == first["keys"]

    def test_explicit_kernel_form(self, tmp_path, capsys):
        assert main(["sweep", "daxpy", "--sizes", "64,128",
                     "--protocol", "cold,warm", "--reps", "1",
                     "--machine", "tiny",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert out.count("daxpy") >= 4  # 2 sizes x 2 protocols

    def test_no_cache_never_hits(self, tmp_path, capsys):
        argv = ["sweep", "--grid", "f4", "--machine", "tiny", "--quick",
                "--no-cache", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0 and main(argv) == 0
        out = capsys.readouterr().out
        assert "(100% hit rate)" not in out
        assert not (tmp_path / "cache").exists()

    def test_missing_grid_and_kernel_is_an_error(self, capsys):
        assert main(["sweep"]) == 2
        assert "error" in capsys.readouterr().err

    def test_trace_and_metrics_export(self, tmp_path, capsys):
        trace = tmp_path / "sweep.trace.json"
        metrics = tmp_path / "sweep.prom"
        assert main(["sweep", "--grid", "f4", "--machine", "tiny",
                     "--quick", "--cache-dir", str(tmp_path / "cache"),
                     "--trace-out", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        doc = json.loads(trace.read_text())
        names = [e.get("name", "") for e in doc["traceEvents"]]
        assert any("daxpy" in n for n in names)
        text = metrics.read_text()
        assert 'repro_sweep_points_total{outcome="miss"}' in text
        assert "repro_sweep_cache_hit_rate" in text

    def test_metrics_out_has_no_machine_plane_families(self, tmp_path,
                                                       capsys):
        # a sweep keeps no machine trace, so the trace-summary families
        # must not appear as zeros next to the points it simulated
        metrics = tmp_path / "sweep.prom"
        assert main(["--no-cache", "sweep", "daxpy", "--sizes", "256,512",
                     "--machine", "tiny", "--jobs", "1",
                     "--metrics-out", str(metrics)]) == 0
        text = metrics.read_text()
        assert "repro_cycles_total" not in text
        assert "repro_phase_count" not in text
        assert "repro_dram_lines_total" not in text
        assert 'repro_sweep_points_total{outcome="miss"} 2' in text
        for family in ("repro_sweep_cache_hit_rate",
                       "repro_sweep_elapsed_seconds",
                       "repro_plan_cache_lookups_total",
                       "repro_plan_cache_built_total",
                       "repro_plan_cache_flushes_total",
                       "repro_plan_cache_hit_rate"):
            assert f"# TYPE {family} " in text, family
        for line in text.splitlines():
            if line and not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])

    def test_metrics_out_describes_this_sweep_only(self, tmp_path, capsys):
        metrics = tmp_path / "sweep.prom"
        argv = ["--no-cache", "sweep", "daxpy", "--sizes", "256",
                "--machine", "tiny", "--jobs", "1",
                "--metrics-out", str(metrics)]
        assert main(argv) == 0 and main(argv) == 0
        assert ('repro_sweep_points_total{outcome="miss"} 1'
                in metrics.read_text())

    def test_serial_flame_out_records_point_spans(self, tmp_path, capsys):
        flame = tmp_path / "flame.json"
        argv = ["--no-cache", "sweep", "daxpy", "--sizes", "256,512",
                "--machine", "tiny", "--jobs", "1",
                "--flame-out", str(flame)]
        assert main(argv) == 0
        events = json.loads(flame.read_text())["traceEvents"]
        points = [e for e in events
                  if e.get("ph") == "X" and e["name"] == "sweep.point"]
        assert len(points) == 2
        # --no-telemetry still wins over the flame request
        assert main(argv + ["--no-telemetry"]) == 0
        events = json.loads(flame.read_text())["traceEvents"]
        assert not any(e["name"] == "sweep.point" for e in events)


class TestExperimentIntegration:
    def test_experiment_reports_cache_stats(self, tmp_path, capsys):
        argv = ["experiment", "F4", "--quick",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(tmp_path / "report.md")]
        assert main(argv) == 0
        assert "sweep cache:" in capsys.readouterr().out
        assert main(argv) == 0
        assert "(100% hit rate)" in capsys.readouterr().out
