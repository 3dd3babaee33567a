"""The JSONL envelope: one ``meta`` header per session for every stream.

The events file (``--profile-json``), ``live.jsonl`` (``--live-out``)
and the serve access log (``--access-log``) open each session with the
same header, and ``repro stats`` replays any of them session by
session.  Files written before ``schema_version`` 4 still replay.
"""

import json

from repro.cli import main
from repro.obs import SCHEMA_VERSION, run_provenance
from repro.obs.stats import render_stats, split_sessions

FAST_SWEEP = ["theorem2", "--max-t", "2", "--samples", "1"]


def _first_line(path):
    return json.loads(path.read_text().splitlines()[0])


def _assert_envelope(meta, stream, command):
    assert isinstance(meta.pop("unix_s"), float)
    assert meta == {
        "type": "meta",
        "schema_version": SCHEMA_VERSION,
        "stream": stream,
        "command": command,
        "provenance": run_provenance(),
    }


class TestEnvelopeHeader:
    def test_schema_version_is_4(self):
        assert SCHEMA_VERSION == 4

    def test_profile_json_first_line(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        assert main(FAST_SWEEP + ["--profile-json", str(path)]) == 0
        capsys.readouterr()
        _assert_envelope(_first_line(path), "events", "theorem2")

    def test_live_out_first_line(self, tmp_path, capsys):
        path = tmp_path / "live.jsonl"
        assert main(FAST_SWEEP + ["--live-out", str(path)]) == 0
        capsys.readouterr()
        _assert_envelope(_first_line(path), "live", "theorem2")

    def test_flag_combination_produces_one_meta_line(self, tmp_path, capsys):
        """--profile-json with --live-out enables the recorder once.

        Each plane enters through one enablement path, so the events
        file gets one recorder setup and hence one ``meta`` line, first.
        """
        events = tmp_path / "events.jsonl"
        live = tmp_path / "live.jsonl"
        argv = FAST_SWEEP + ["--profile-json", str(events), "--live-out", str(live)]
        assert main(argv) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in events.read_text().splitlines()]
        assert [r["type"] for r in records].count("meta") == 1
        assert records[0]["type"] == "meta"

    def test_access_log_first_line(self, tmp_path):
        from tests.serve.conftest import serve_session

        path = tmp_path / "access.jsonl"
        serve_session(path, ["/health"])
        _assert_envelope(_first_line(path), "access", "serve")

    def test_stats_prints_one_header_per_session(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        assert main(FAST_SWEEP + ["--profile-json", str(path)]) == 0
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            f"schema_version: {SCHEMA_VERSION}  stream: events  command: theorem2\n"
        )
        assert out.count("schema_version:") == 1


class TestSessions:
    def test_records_before_the_first_meta_form_one_session(self):
        events = [
            {"type": "counter", "name": "a", "value": 1},
            {"type": "meta", "schema_version": 4, "stream": "events"},
            {"type": "counter", "name": "b", "value": 2},
            {"type": "meta", "schema_version": 4, "stream": "events"},
        ]
        sessions = split_sessions(events)
        assert [len(session) for session in sessions] == [1, 2, 1]
        text = render_stats(events)
        assert text.count("schema_version:") == 3
        assert text.startswith("schema_version: unknown  stream: unknown")

    def test_unknown_stream_renders_its_records(self):
        events = [
            {"type": "meta", "schema_version": 9, "stream": "quantum",
             "command": "future"},
            {"type": "counter", "name": "qubits", "value": 7},
            {"type": "entangle", "pairs": 3},
        ]
        text = render_stats(events)
        assert "schema_version: 9  stream: quantum  command: future" in text
        assert "qubits" in text


#: A ``live.jsonl`` session as ``--live-out`` wrote it before version 4.
LEGACY_LIVE = [
    {"type": "live_meta", "live_schema_version": 1, "command": "theorem1"},
    {"type": "unit", "uid": "theorem1/t=2", "status": "started", "worker": 7,
     "t_s": 0.1, "duration_s": None},
    {"type": "unit", "uid": "theorem1/t=2", "status": "done", "worker": 7,
     "t_s": 0.2, "duration_s": 0.0125},
    {"type": "progress", "t_s": 0.2, "units_total": 1, "units_done": 1,
     "units_in_flight": 0, "units_cached": 0, "units_requeued": 0,
     "unit_ema_s": 0.0125, "unit_peak_s": 0.0125, "workers_alive": 1,
     "workers": {}, "stalled_units": 0},
    {"type": "live_summary", "t_s": 0.2, "units_total": 1, "units_done": 1,
     "units_in_flight": 0, "units_cached": 0, "units_requeued": 0,
     "unit_ema_s": 0.0125, "unit_peak_s": 0.0125, "workers_alive": 1,
     "workers": {}, "stalled_units": 0},
]

#: An access log as ``repro serve --access-log`` wrote it before version 4.
LEGACY_ACCESS = [
    {"type": "access_meta", "access_schema_version": 1, "command": "serve",
     "unix_s": 1.0, "provenance": {"git_sha": "unknown"}},
    {"type": "access", "access_schema_version": 1, "unix_s": 2.0,
     "trace_id": "ab" * 16, "span_id": "cd" * 8, "method": "GET",
     "path": "/health", "endpoint": "GET /health", "status": 200,
     "disposition": None, "queue_wait_ms": None, "handler_ms": 0.1,
     "duration_ms": 0.2, "error": None},
]


class TestLegacyFiles:
    def _replay(self, tmp_path, capsys, events):
        path = tmp_path / "legacy.jsonl"
        path.write_text("".join(json.dumps(event) + "\n" for event in events))
        assert main(["stats", str(path)]) == 0
        return capsys.readouterr().out

    def test_pre_v4_live_file(self, tmp_path, capsys):
        out = self._replay(tmp_path, capsys, LEGACY_LIVE)
        assert out.startswith("schema_version: unknown")
        assert "Live progress" in out
        assert "Slowest units" in out
        assert "theorem1/t=2" in out

    def test_pre_v4_access_file(self, tmp_path, capsys):
        out = self._replay(tmp_path, capsys, LEGACY_ACCESS)
        assert out.startswith("schema_version: unknown")
        assert "Access log" in out
        assert "GET /health" in out
        assert "ab" * 16 in out
