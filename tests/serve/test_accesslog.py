"""Access log: envelope, record schema, parent-dir creation, ``repro stats`` replay."""

import json
import re

import pytest

from repro.obs import SCHEMA_VERSION, run_provenance
from repro.obs.sinks import JsonlAppender
from repro.serve import Application, BackgroundServer

#: Fields of one ``access`` record, as ``Application.dispatch`` writes it.
ACCESS_FIELDS = {
    "type", "unix_s", "trace_id", "span_id", "method", "path", "endpoint",
    "status", "disposition", "queue_wait_ms", "handler_ms", "duration_ms",
    "error",
}


def _read_lines(path):
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line
    ]


def _access_log(path):
    return JsonlAppender(path, "access", "serve")


def _served_requests(path, requests):
    """Serve an Application logging to ``path``; run ``requests(client)``."""
    from tests.serve.conftest import Client

    app = Application(access_log=_access_log(path))
    server = BackgroundServer(app.dispatch).start()
    try:
        requests(Client(app, server))
    finally:
        server.close()
        app.close()


def _access_record(trace_id, endpoint, status, duration_ms, error=None):
    method, path = endpoint.split(" ", 1)
    return {
        "type": "access",
        "unix_s": 0.0,
        "trace_id": trace_id,
        "span_id": "cd" * 8,
        "method": method,
        "path": path,
        "endpoint": endpoint,
        "status": status,
        "disposition": "computed" if status == 200 else None,
        "queue_wait_ms": 0.5 if method == "POST" else None,
        "handler_ms": duration_ms - 0.1,
        "duration_ms": duration_ms,
        "error": error,
    }


class TestAccessLog:
    def test_meta_header_and_record_schema(self, tmp_path):
        path = tmp_path / "access.jsonl"
        _served_requests(
            path,
            lambda client: client.post(
                "/v1/gadgets",
                {"construction": "linear", "params": {"ell": 2, "alpha": 1, "t": 2}},
            ),
        )
        meta, record = _read_lines(path)
        assert meta["type"] == "meta"
        assert meta["schema_version"] == SCHEMA_VERSION
        assert meta["stream"] == "access"
        assert meta["command"] == "serve"
        assert meta["provenance"] == run_provenance()
        assert set(record) == ACCESS_FIELDS
        assert record["endpoint"] == "POST /v1/gadgets"
        assert record["disposition"] in ("computed", "cache_hit")
        assert record["queue_wait_ms"] == round(record["queue_wait_ms"], 3)
        assert record["error"] is None

    def test_creates_missing_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "dirs" / "access.jsonl"
        assert not path.parent.exists()
        with _access_log(path):
            pass
        assert path.exists()
        assert _read_lines(path)[0]["stream"] == "access"

    def test_appends_across_reopen(self, tmp_path):
        path = tmp_path / "access.jsonl"
        for _ in range(2):
            with _access_log(path):
                pass
        metas = [l for l in _read_lines(path) if l["type"] == "meta"]
        assert [meta["stream"] for meta in metas] == ["access", "access"]

    def test_close_is_idempotent_and_silences_records(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = _access_log(path)
        log.close()
        log.close()
        log.write(_access_record("ab" * 16, "GET /health", 200, 0.2))
        assert len(_read_lines(path)) == 1  # just the meta line


class TestServedAccessLog:
    def test_every_request_logged_with_trace_id(self, tmp_path):
        path = tmp_path / "logs" / "access.jsonl"

        def requests(client):
            traceparent = f"00-{'ab' * 16}-{'cd' * 8}-01"
            client.get("/health", headers={"traceparent": traceparent})
            status, _, _ = client.post("/v1/gadgets", {"construction": "nope"})
            assert status == 400

        _served_requests(path, requests)
        records = [l for l in _read_lines(path) if l["type"] == "access"]
        assert len(records) == 2
        health, bad = records
        assert health["trace_id"] == "ab" * 16
        assert health["endpoint"] == "GET /health"
        assert health["status"] == 200
        assert health["queue_wait_ms"] is None
        assert bad["status"] == 400
        assert bad["error"]
        assert bad["duration_ms"] >= bad["handler_ms"] >= 0.0


class TestStatsReplay:
    @pytest.fixture
    def access_file(self, tmp_path):
        path = tmp_path / "access.jsonl"
        with _access_log(path) as log:
            for index in range(5):
                log.write(
                    _access_record(
                        format(index + 1, "02x") * 16,
                        "POST /v1/maxis",
                        200,
                        float(index + 1) + 0.5,
                    )
                )
            log.write(_access_record("ee" * 16, "GET /health", 500, 0.2, "boom"))
        return path

    def test_render_stats_file_summarizes_endpoints(self, access_file):
        from repro.obs.stats import render_stats_file

        text = render_stats_file(access_file)
        assert "stream: access  command: serve" in text
        assert "Access log (serve, 6 requests)" in text
        assert "POST /v1/maxis" in text
        assert "GET /health" in text
        assert "ee" * 16 in text  # slowest-requests table keys by trace id

    def test_cli_stats_replays_access_log(self, access_file, capsys):
        from repro.cli import main

        assert main(["stats", str(access_file)]) == 0
        out = capsys.readouterr().out
        assert "POST /v1/maxis" in out

    def test_appended_serve_sessions_replay_as_two_sections(
        self, tmp_path, capsys
    ):
        from repro.cli import main
        from tests.serve.conftest import serve_session

        path = tmp_path / "access.jsonl"
        serve_session(path, ["/health"])
        serve_session(path, ["/health", "/progress"])
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        header = f"schema_version: {SCHEMA_VERSION}  stream: access  command: serve"
        assert out.count(header) == 2
        _, first, second = out.split(header)
        assert "Access log (serve, 1 requests)" in first
        assert "GET /progress" not in first
        assert "Access log (serve, 2 requests)" in second
        assert re.search(r"GET /health\s+1\b", second)
