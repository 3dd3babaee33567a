"""CLI-level tests for the live telemetry flags.

The fastest real sweep (``theorem2`` at small ``--max-t``/``--samples``)
drives the full path: ``--live-out`` streaming, ``repro stats`` replay,
``--metrics-port`` scraping against a genuinely running process, and
the parent-directory regression for every path-writing flag.
"""

import json
import os
import pathlib
import re
import subprocess
import sys
import time
import urllib.request

import repro
from repro.cli import main

FAST_SWEEP = ["theorem2", "--max-t", "3", "--samples", "10"]


class TestLiveOut:
    def test_live_out_streams_v4_envelope(self, tmp_path, capsys):
        path = tmp_path / "live.jsonl"
        assert main(FAST_SWEEP + ["--live-out", str(path)]) == 0
        capsys.readouterr()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events[0]["type"] == "meta"
        assert events[0]["schema_version"] == 4
        assert events[0]["stream"] == "live"
        assert events[0]["command"] == "theorem2"
        summary = events[-1]
        assert summary["type"] == "live_summary"
        assert summary["units_done"] == summary["units_total"] == 3
        assert summary["stalled_units"] == 0

    def test_live_out_creates_missing_parent_directories(self, tmp_path, capsys):
        path = tmp_path / "runs" / "today" / "live.jsonl"
        assert main(FAST_SWEEP + ["--live-out", str(path)]) == 0
        capsys.readouterr()
        assert path.is_file()

    def test_stats_replays_live_events(self, tmp_path, capsys):
        path = tmp_path / "live.jsonl"
        assert main(FAST_SWEEP + ["--live-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Live progress (theorem2)" in out
        assert "Slowest units" in out

    def test_stats_replays_each_appended_session_on_its_own(
        self, tmp_path, capsys
    ):
        path = tmp_path / "live.jsonl"
        for command in ("theorem1", "theorem2"):
            argv = [command, "--max-t", "3", "--samples", "1"]
            assert main(argv + ["--live-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        first, second = out.split("Live progress (theorem2)")
        assert "Live progress (theorem1)" in first
        assert "Slowest units (theorem1, top 2 of 2)" in first
        assert re.search(r"units_total\s+2\b", first)
        assert "theorem2/" not in first
        assert "Slowest units (theorem2, top 3 of 3)" in second
        assert re.search(r"units_total\s+3\b", second)
        assert "theorem1/" not in second

    def test_trace_out_creates_missing_parent_directories(self, tmp_path, capsys):
        # Regression guard for the same courtesy on the profiling flags.
        trace = tmp_path / "traces" / "nested" / "trace.json"
        assert main(FAST_SWEEP + ["--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert trace.is_file()
        assert json.loads(trace.read_text())["traceEvents"]

    def test_profile_json_creates_missing_parent_directories(
        self, tmp_path, capsys
    ):
        events = tmp_path / "profiles" / "nested" / "events.jsonl"
        assert main(FAST_SWEEP + ["--profile-json", str(events)]) == 0
        capsys.readouterr()
        assert events.is_file()


class TestMetricsEndpoint:
    def test_scrape_while_sweep_runs(self, tmp_path):
        """Acceptance: a real 2-worker sweep serves valid Prometheus text.

        Runs the CLI as a subprocess with ``--metrics-port 0``, parses
        the announced URL from stderr, and scrapes ``/metrics`` and
        ``/progress`` while the sweep is still going.
        """
        live_out = tmp_path / "live.jsonl"
        env = dict(os.environ)
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "theorem2",
                "--max-t",
                "4",
                "--samples",
                "40",
                "--workers",
                "2",
                "--live",
                "--live-out",
                str(live_out),
                "--metrics-port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            url = None
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                line = process.stderr.readline()
                match = re.search(r"\[live metrics: (http://[^\]]+)\]", line)
                if match:
                    url = match.group(1)
                    break
                if not line and process.poll() is not None:
                    break
            assert url, "CLI never announced a metrics URL on stderr"

            metrics = progress = None
            while process.poll() is None:
                with urllib.request.urlopen(f"{url}/metrics", timeout=5) as resp:
                    text = resp.read().decode("utf-8")
                # congest_round_bits appears first (the simulation phase
                # is profiled before the sweep); keep scraping until the
                # sweep itself has been planned.
                if "congest_round_bits" in text and "parallel_units_planned 4" in text:
                    metrics = text
                    with urllib.request.urlopen(
                        f"{url}/progress", timeout=5
                    ) as resp:
                        progress = json.loads(resp.read().decode("utf-8"))
                    break
                time.sleep(0.05)
            assert metrics is not None, "sweep finished before a full scrape"
            assert metrics.endswith("\n")
            assert "# TYPE" in metrics
            assert "parallel_units_done" in metrics
            assert progress["active"] is True
            assert progress["units_total"] == 4
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
            process.stdout.close()
            process.stderr.close()
        events = [json.loads(line) for line in live_out.read_text().splitlines()]
        assert events[-1]["type"] == "live_summary"

    def test_watchdog_requeue_flag_accepted_serially(self, capsys):
        # --watchdog-requeue on a serial run activates live mode but
        # must never requeue anything: there is no pool to stall.
        assert main(FAST_SWEEP + ["--watchdog-requeue"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 2" in out
