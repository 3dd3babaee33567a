"""Tests for the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import main


def _run_into_closed_pipe(*argv):
    """Run ``python -m repro *argv`` with stdout a pipe nobody reads.

    The read end is closed before the child starts, so its first write
    to stdout fails with ``EPIPE`` as in ``repro figures | head -1``
    once ``head`` has exited.
    """
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)


class TestInfo:
    def test_prints_summary(self, capsys):
        assert main(["info", "--ell", "4", "--t", "3"]) == 0
        out = capsys.readouterr().out
        assert "linear_nodes" in out
        assert "90" in out

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            main(["info", "--ell", "0"])


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [("figures",), ("info", "--ell", "4", "--t", "3")],
        ids=["figures", "info"],
    )
    def test_exits_quietly_when_the_reader_goes_away(self, argv):
        proc = _run_into_closed_pipe(*argv)
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr
        assert proc.returncode == 1


class TestFigures:
    def test_renders_both_constructions(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Linear construction G" in out
        assert "Quadratic construction F" in out
        assert "A^0" in out


class TestClaims:
    def test_all_hold(self, capsys):
        assert main(["claims", "--ell", "2", "--t", "2", "--samples", "1"]) == 0
        out = capsys.readouterr().out
        assert "Claim 1" in out
        assert "Claim 5" in out

    def test_json_output(self, capsys):
        code = main(
            ["claims", "--ell", "2", "--t", "2", "--samples", "1", "--json"]
        )
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert all(entry["holds"] for entry in parsed)

    def test_with_quadratic(self, capsys):
        code = main(
            ["claims", "--ell", "2", "--t", "2", "--samples", "2", "--quadratic"]
        )
        assert code == 0
        assert "Claim 6" in capsys.readouterr().out


class TestTheorems:
    def test_theorem1_table(self, capsys):
        assert main(["theorem1", "--max-t", "3", "--samples", "1"]) == 0
        out = capsys.readouterr().out
        assert "toward 1/2" in out

    def test_theorem1_json(self, capsys):
        assert main(["theorem1", "--max-t", "2", "--samples", "1", "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["gap"]["claims_hold"] is True

    def test_theorem2_table(self, capsys):
        assert main(["theorem2", "--max-t", "2", "--samples", "2"]) == 0
        assert "toward 3/4" in capsys.readouterr().out


class TestSimulate:
    def test_both_sides_consistent(self, capsys):
        assert main(["simulate"]) == 0
        out = capsys.readouterr().out
        assert "intersecting" in out
        assert "disjoint" in out


class TestProtocols:
    def test_table_and_floor(self, capsys):
        assert main(["protocols", "--k", "10", "--t", "2", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "full-reveal" in out
        assert "Theorem 3 floor" in out
        assert "fooling-set bound" in out

    def test_no_fooling_line_for_large_k(self, capsys):
        assert main(["protocols", "--k", "64", "--t", "3", "--trials", "1"]) == 0
        assert "fooling-set" not in capsys.readouterr().out


class TestExport:
    def test_writes_files(self, tmp_path, capsys):
        out_dir = tmp_path / "exports"
        assert (
            main(["export", "--ell", "2", "--t", "2", "--output", str(out_dir)])
            == 0
        )
        assert (out_dir / "linear.dot").exists()
        assert (out_dir / "quadratic.dot").exists()
        assert (out_dir / "linear_fixed.json").exists()

    def test_exported_json_round_trips(self, tmp_path):
        from repro.gadgets import GadgetParameters, LinearConstruction
        from repro.graphs import graph_from_json

        out_dir = tmp_path / "exports"
        main(["export", "--ell", "2", "--t", "2", "--output", str(out_dir)])
        restored = graph_from_json((out_dir / "linear_fixed.json").read_text())
        expected = LinearConstruction(GadgetParameters(ell=2, alpha=1, t=2)).graph
        assert restored == expected


class TestProfile:
    def test_theorem1_profile_prints_span_tree_and_counters(self, capsys):
        code = main(["theorem1", "--max-t", "2", "--samples", "1", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PROFILE" in out
        # The profiled run covers the full proof chain: build, sample,
        # solve, check, cut, plus the Theorem 5 simulation phase.
        for name in (
            "experiment.build",
            "experiment.sample",
            "experiment.solve",
            "experiment.check",
            "theorem5.simulate",
        ):
            assert name in out
        assert "congest.messages" in out
        assert "congest.bits" in out

    def test_profile_prints_the_critical_path_after_the_span_tree(self, capsys):
        assert main(["report", "--max-t", "2", "--samples", "1", "--profile"]) == 0
        out = capsys.readouterr().out
        profile = out[out.index("PROFILE\n"):]
        title = "where did the time go (critical path):"
        assert profile.index("report") < profile.index(title)
        table = profile[profile.index(title):].split("\n\n")[0]
        header = table.splitlines()[1].split()
        assert header[:4] == ["span", "total", "ms", "self"]
        # The chain starts at the command span, the longest root.
        assert table.splitlines()[3].split()[0] == "report"

    def test_profile_restores_disabled_state(self, capsys):
        from repro import obs

        main(["theorem1", "--max-t", "2", "--samples", "1", "--profile"])
        capsys.readouterr()
        assert obs.is_enabled() is False

    def test_simulate_profile(self, capsys):
        assert main(["simulate", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "theorem5.simulate" in out
        assert "congest.rounds" in out

    def test_profile_json_then_stats_round_trip(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        code = main(
            [
                "theorem1",
                "--max-t",
                "2",
                "--samples",
                "1",
                "--profile",
                "--profile-json",
                str(events),
            ]
        )
        assert code == 0
        assert "events written to" in capsys.readouterr().out
        assert events.exists()

        assert main(["stats", str(events)]) == 0
        out = capsys.readouterr().out
        assert "Spans" in out
        assert "congest.bits" in out

    def test_profile_json_implies_profile(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        assert main(["simulate", "--profile-json", str(events)]) == 0
        capsys.readouterr()
        assert events.exists()


class TestSimulateCutTraffic:
    def test_profile_prints_per_round_cut_stats(self, capsys):
        assert main(["simulate", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "cut traffic/round" in out
        assert "predicted: <= 2*|cut|*B" in out

    def test_plain_simulate_omits_cut_stats(self, capsys):
        assert main(["simulate"]) == 0
        assert "cut traffic/round" not in capsys.readouterr().out


class TestTelemetry:
    def test_prints_round_histograms_and_bound_table(self, capsys):
        assert main(["telemetry"]) == 0
        out = capsys.readouterr().out
        assert "Per-round CONGEST telemetry" in out
        assert "congest.round_messages" in out
        assert "congest.round_bits" in out
        assert "congest.edge_utilization" in out
        assert "theorem5.cut_round_bits" in out
        assert "Observed cut traffic vs the Theorem 5 ceiling" in out
        assert "yes" in out

    def test_leaves_recorder_disabled(self, capsys):
        from repro import obs

        main(["telemetry"])
        capsys.readouterr()
        assert obs.is_enabled() is False


class TestStatsTolerance:
    def test_stats_warns_on_malformed_lines(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text(
            '{"type": "counter", "name": "congest.bits", "value": 9}\n'
            "garbage line\n"
        )
        assert main(["stats", str(events)]) == 0
        out = capsys.readouterr().out
        assert "skipped 1 malformed line(s)" in out
        assert "congest.bits" in out

    def test_stats_on_empty_file(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text("")
        assert main(["stats", str(events)]) == 0

    def test_missing_file_is_not_an_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "never-written.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "no events recorded" in out
        assert "--profile-json" in out

    def test_empty_file_is_not_an_error(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text("")
        assert main(["stats", str(events)]) == 0
        assert "no events recorded" in capsys.readouterr().out

    def test_unparseable_file_is_not_an_error(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text("not json\nstill not json\n")
        assert main(["stats", str(events)]) == 0
        assert "no parseable event lines" in capsys.readouterr().out


class TestBenchCommand:
    def _write_trajectory(self, tmp_path, name, median, sha):
        from tests.test_bench_runner import _trajectory

        path = tmp_path / name
        path.write_text(json.dumps(_trajectory({"a": median}, sha=sha)))
        return path

    def test_compare_ok_exits_zero(self, tmp_path, capsys):
        old = self._write_trajectory(tmp_path, "old.json", 1.0, "old1")
        assert main(["bench", "--compare", str(old), str(old)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_regression_exits_nonzero(self, tmp_path, capsys):
        old = self._write_trajectory(tmp_path, "old.json", 1.0, "old1")
        new = self._write_trajectory(tmp_path, "new.json", 2.0, "new1")
        assert main(["bench", "--compare", str(old), str(new)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_compare_warn_only_exits_zero(self, tmp_path, capsys):
        old = self._write_trajectory(tmp_path, "old.json", 1.0, "old1")
        new = self._write_trajectory(tmp_path, "new.json", 2.0, "new1")
        assert main(["bench", "--compare", str(old), str(new), "--warn-only"]) == 0
        assert "REGRESSED" in capsys.readouterr().out

    def test_fast_run_writes_trajectory(self, tmp_path, capsys):
        from benchmarks import runner

        code = main(
            [
                "bench",
                "--fast",
                "--only",
                "construction_build",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        (path,) = tmp_path.glob("BENCH_*.json")
        trajectory = runner.load_trajectory(path)
        assert trajectory["config"] == {"warmup": 1, "repeats": 3}
        assert set(trajectory["benches"]) == {"construction_build"}


class TestBenchCompareAutoDiscovery:
    def _write_trajectory(self, directory, name, median, sha, age_s=0):
        import os
        import time

        from tests.test_bench_runner import _trajectory

        path = directory / name
        path.write_text(json.dumps(_trajectory({"a": median}, sha=sha)))
        if age_s:
            stamp = time.time() - age_s
            os.utime(path, (stamp, stamp))
        return path

    def test_single_path_discovers_the_newest_baseline(self, tmp_path, capsys):
        self._write_trajectory(tmp_path, "BENCH_old.json", 1.0, "old1", age_s=100)
        new = self._write_trajectory(tmp_path, "BENCH_new.json", 1.0, "new1")
        code = main(
            ["bench", "--compare", str(new), "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "auto-discovered baseline" in out
        assert "BENCH_old.json" in out

    def test_single_path_falls_back_to_the_committed_baseline(
        self, tmp_path, capsys
    ):
        # The only record in its own directory: auto-discovery consults
        # benchmarks/baselines/, so a fresh clone's first run compares
        # against the checked-in seed.
        new = self._write_trajectory(tmp_path, "BENCH_only.json", 1.0, "one")
        code = main(["bench", "--compare", str(new), "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "auto-discovered baseline" in out
        assert "baselines" in out

    def test_single_path_without_any_baseline_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        from benchmarks import runner

        monkeypatch.setattr(
            runner, "BASELINES_DIR", tmp_path / "no-baselines"
        )
        new = self._write_trajectory(tmp_path, "BENCH_only.json", 1.0, "one")
        code = main(["bench", "--compare", str(new), "--out", str(tmp_path)])
        assert code == 2
        assert "no baseline" in capsys.readouterr().err

    def test_three_paths_is_a_usage_error(self, tmp_path, capsys):
        path = self._write_trajectory(tmp_path, "BENCH_x.json", 1.0, "x")
        code = main(["bench", "--compare", str(path), str(path), str(path)])
        assert code == 2
        assert "one" in capsys.readouterr().err


class TestTraceExport:
    def test_profiled_command_writes_chrome_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "theorem1",
                "--max-t",
                "2",
                "--samples",
                "1",
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        assert "Chrome trace written to" in capsys.readouterr().out
        trace = json.loads(trace_path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        phases = {event["ph"] for event in events}
        assert phases == {"M", "X"}
        for event in events:
            assert {"ph", "name", "pid", "tid"} <= set(event)

    def test_trace_out_implies_profile(self, capsys):
        from repro import obs

        assert not obs.is_enabled()
        # No --profile flag: --trace-out alone must still record spans.
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            trace_path = f"{tmp}/trace.json"
            assert main(["simulate", "--trace-out", trace_path]) == 0
            capsys.readouterr()
            trace = json.loads(open(trace_path).read())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        assert not obs.is_enabled()

    def test_stats_trace_out_round_trips_jsonl(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        assert main(["simulate", "--profile-json", str(events)]) == 0
        capsys.readouterr()
        trace_path = tmp_path / "replayed.json"
        assert main(["stats", str(events), "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        trace = json.loads(trace_path.read_text())
        x_events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert x_events
        # Replaying identical input twice yields identical bytes.
        again = tmp_path / "again.json"
        assert main(["stats", str(events), "--trace-out", str(again)]) == 0
        capsys.readouterr()
        assert again.read_bytes() == trace_path.read_bytes()


class TestTelemetryJson:
    def test_json_output_is_machine_readable(self, capsys):
        from repro.cli import TELEMETRY_SCHEMA_VERSION

        assert main(["telemetry", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {
            "schema_version",
            "seed",
            "metrics",
            "sides",
            "consistent",
        }
        assert data["schema_version"] == TELEMETRY_SCHEMA_VERSION == 2
        assert data["consistent"] is True
        assert set(data["metrics"]) == {
            "congest.round_messages",
            "congest.round_bits",
            "congest.edge_utilization",
            "theorem5.cut_round_bits",
        }
        for side in data["sides"]:
            assert side["within_bound"] is True
            assert side["measured_bits"] <= side["analytic_bit_bound"]

    def test_json_matches_collector_api(self, capsys):
        from repro.cli import telemetry_data

        assert main(["telemetry", "--json", "--seed", "3"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == telemetry_data(seed=3)


class TestDashboardCommand:
    def test_builds_a_self_contained_report(self, tmp_path, capsys):
        code = main(
            [
                "dashboard",
                "--out",
                str(tmp_path / "dash"),
                "--results",
                str(tmp_path / "results"),
                "--no-telemetry",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "coverage:" in out
        assert "report.html" in out
        html = (tmp_path / "dash" / "report.html").read_text()
        assert "<script" not in html
        assert "Theorem 5" in html


class TestCacheFlags:
    def test_theorem1_output_unchanged_by_memory_cache(self, capsys):
        assert main(["theorem1", "--max-t", "2", "--samples", "1", "--json"]) == 0
        plain = capsys.readouterr().out
        args = ["theorem1", "--max-t", "2", "--samples", "1", "--json"]
        assert main(args + ["--cache", "memory"]) == 0
        assert capsys.readouterr().out == plain

    def test_theorem2_disk_cold_warm_byte_identical(self, tmp_path, capsys):
        args = [
            "theorem2",
            "--max-t",
            "2",
            "--samples",
            "1",
            "--json",
            "--cache",
            "disk",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_cache_flag_leaves_store_unconfigured_after_exit(self):
        from repro.store import get_store

        assert main(["theorem1", "--max-t", "2", "--samples", "1",
                     "--cache", "memory"]) == 0
        assert get_store() is None

    def test_telemetry_rejects_cache_flag(self, capsys):
        # The simulation reaches no cached work unit, so telemetry takes
        # no --cache flag.
        with pytest.raises(SystemExit) as excinfo:
            main(["telemetry", "--cache", "memory"])
        assert excinfo.value.code == 2
        assert "--cache" in capsys.readouterr().err

    def test_telemetry_omits_cache_section_when_off(self, capsys):
        assert main(["telemetry"]) == 0
        assert "Result store" not in capsys.readouterr().out


class TestCacheCommands:
    def test_warm_then_stats_then_clear(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        assert main(["cache", "warm", "--cache-dir", root, "--max-t", "2",
                     "--samples", "1"]) == 0
        assert "warmed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", root]) == 0
        stats_out = capsys.readouterr().out
        assert "TOTAL" in stats_out
        assert "parallel.theorem1_point" in stats_out
        assert main(["cache", "clear", "--cache-dir", root]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", root]) == 0
        assert "parallel.theorem1_point" not in capsys.readouterr().out

    def test_warmed_cache_serves_the_sweep(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        assert main(["cache", "warm", "--cache-dir", root, "--max-t", "2",
                     "--samples", "1"]) == 0
        capsys.readouterr()
        args = ["theorem1", "--max-t", "2", "--samples", "1", "--json",
                "--cache", "disk", "--cache-dir", root, "--profile"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "cache.hit" in out
        # The sweep unit itself was served from the warm store.
        assert "parallel.units_cached" in out

    def test_stats_on_missing_root_is_empty_not_an_error(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path / "nowhere")]) == 0
        assert "TOTAL" in capsys.readouterr().out


class TestParser:
    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    @pytest.mark.parametrize("command", ["report", "simulate"])
    def test_abbreviated_flag_is_rejected(self, command, tmp_path, monkeypatch):
        # Neither command has --t; an abbreviation-reading parser took it
        # for --trace-out and wrote a Chrome trace to a file named "3".
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--t", "3"])
        assert excinfo.value.code == 2
        assert not (tmp_path / "3").exists()


def _sweep_argv(command, cache_dir):
    if command == "cache warm":
        return ["cache", "warm", "--cache-dir", str(cache_dir)]
    return [command]


SWEEP_COMMANDS = ["claims", "theorem1", "theorem2", "report", "cache warm"]


class TestSweepSizeValidation:
    """An empty sweep is a usage error, not a run that proves nothing."""

    @pytest.mark.parametrize("command", SWEEP_COMMANDS)
    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_below_one_exit_2(
        self, command, samples, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        argv = _sweep_argv(command, tmp_path / "store") + ["--samples", samples]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [c for c in SWEEP_COMMANDS if c != "claims"]
    )
    def test_max_t_below_two_exit_2(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = _sweep_argv(command, tmp_path / "store") + ["--max-t", "1"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "must be at least 2" in capsys.readouterr().err

    def test_non_integer_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["theorem1", "--samples", "two"])
        assert excinfo.value.code == 2
        assert "invalid int value: 'two'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", SWEEP_COMMANDS)
    def test_smallest_sweep_parses(self, command, tmp_path):
        from repro.cli import build_parser

        argv = _sweep_argv(command, tmp_path) + ["--samples", "1"]
        if command != "claims":
            argv += ["--max-t", "2"]
        args = build_parser().parse_args(argv)
        assert args.samples == 1


def _exit_code(argv):
    """``main``'s exit code, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exit:
        return exit.code


class TestUsageErrors:
    """Bad option values exit 2 with a message, never a traceback."""

    def test_bench_unknown_name_exits_2_before_any_bench_runs(
        self, tmp_path, capsys
    ):
        argv = ["bench", "--only", "nosuch", "--out", str(tmp_path)]
        assert _exit_code(argv) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "repro bench: unknown bench(es) ['nosuch']; available:" in captured.err
        assert "bench " not in captured.out
        assert not list(tmp_path.glob("BENCH_*.json"))

    @pytest.mark.parametrize(
        "option, value, minimum", [("--repeats", "0", 1), ("--warmup", "-1", 0)]
    )
    def test_bench_timing_counts_below_their_minimum_exit_2(
        self, option, value, minimum, tmp_path, capsys
    ):
        argv = ["bench", "--only", "construction_build", "--out", str(tmp_path)]
        assert _exit_code(argv + [option, value]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert f"must be at least {minimum}" in captured.err
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_claims_with_more_players_than_indices_exits_2(self, capsys):
        # --ell 2 --alpha 1 gives k = 3 indices; Claim 4 needs t of them.
        assert _exit_code(["claims", "--ell", "2", "--t", "4"]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "repro claims: --t 4 needs at least 4 indices, but k = 3" in captured.err
        assert captured.out == ""

    def test_serve_queue_limit_zero_exits_2_without_starting(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.serve

        started = []
        monkeypatch.setattr(
            repro.serve, "run", lambda *args, **kwargs: started.append(args)
        )
        access_log = tmp_path / "access.jsonl"
        argv = ["serve", "--port", "0", "--queue-limit", "0"]
        assert _exit_code(argv + ["--access-log", str(access_log)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert started == []
        assert not access_log.exists()
