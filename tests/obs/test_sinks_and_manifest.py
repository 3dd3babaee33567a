"""Tests for JSONL sinks, stats replay, run manifests, and bench publish."""

import json
import shutil
import subprocess

import pytest

from repro import obs
from repro.obs import (
    Recorder,
    SCHEMA_VERSION,
    build_manifest,
    ensure_json_native,
    load_manifest,
    run_provenance,
    write_manifest,
)
from repro.obs.sinks import JsonlSink
from repro.obs.stats import (
    load_events,
    load_events_tolerant,
    render_stats,
    render_stats_file,
)


def _record_sample_run(path):
    recorder = Recorder(enabled=True)
    sink = JsonlSink(path)
    recorder.add_sink(sink)
    with recorder.span("pipeline", t=2):
        with recorder.span("solve"):
            recorder.incr("maxis.exact.solves", 3)
        recorder.incr_keyed("congest.edge_bits", "a->b", 16)
        recorder.gauge("nodes", 12)
    recorder.flush()
    sink.close()
    return recorder


class TestJsonlRoundTrip:
    def test_first_line_is_meta_with_schema_version(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _record_sample_run(path)
        first = json.loads(path.read_text().splitlines()[0])
        assert isinstance(first.pop("unix_s"), float)
        assert first == {
            "type": "meta",
            "schema_version": SCHEMA_VERSION,
            "stream": "events",
            "command": None,
            "provenance": run_provenance(),
        }

    def test_rerun_truncates_the_previous_session(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _record_sample_run(path)
        _record_sample_run(path)
        events = load_events(path)
        assert [event["type"] for event in events].count("meta") == 1

    def test_events_replay_into_tables(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _record_sample_run(path)
        events = load_events(path)
        types = {event["type"] for event in events}
        assert types == {"meta", "span", "counter", "gauge"}
        text = render_stats(events)
        assert "Spans" in text
        assert "pipeline" in text
        assert "maxis.exact.solves" in text
        assert "a->b" in text
        assert f"schema_version: {SCHEMA_VERSION}  stream: events" in text

    def test_render_stats_file_reads_path(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _record_sample_run(path)
        assert "Counters" in render_stats_file(path)

    def test_malformed_line_is_an_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta", "schema_version": 1}\nnot json\n')
        with pytest.raises(ValueError, match="not JSON"):
            load_events(path)


class TestTolerantLoading:
    def test_tolerant_loader_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"type": "meta", "schema_version": 2}\n'
            "not json\n"
            '{"type": "counter", "name": "bits", "value": 3}\n'
            '{"type": "gauge", "name": "truncat'  # mid-write crash
        )
        events, malformed = load_events_tolerant(path)
        assert malformed == 2
        assert [event["type"] for event in events] == ["meta", "counter"]

    def test_tolerant_loader_skips_non_object_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('[1, 2]\n"string"\n')
        events, malformed = load_events_tolerant(path)
        assert events == []
        assert malformed == 2

    def test_empty_file_yields_no_events(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_events_tolerant(path) == ([], 0)

    def test_render_stats_reports_malformed_count(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"type": "counter", "name": "bits", "value": 1}\ngarbage\n'
        )
        text = render_stats_file(path)
        assert "skipped 1 malformed line(s)" in text
        assert "bits" in text

    def test_render_stats_clean_file_has_no_warning(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _record_sample_run(path)
        assert "malformed" not in render_stats_file(path)


class TestManifest:
    def test_build_manifest_shape(self):
        recorder = Recorder(enabled=True)
        with recorder.span("phase"):
            recorder.incr("bits", 5)
        manifest = build_manifest(
            "my_bench", parameters={"ell": 2}, recorder=recorder, extra={"note": "x"}
        )
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["name"] == "my_bench"
        assert manifest["parameters"] == {"ell": 2}
        assert manifest["counters"] == {"bits": 5}
        assert manifest["spans"]["phase"]["count"] == 1
        assert manifest["extra"] == {"note": "x"}

    def test_disabled_recorder_yields_empty_sections(self):
        manifest = build_manifest("idle", recorder=Recorder())
        assert manifest["counters"] == {}
        assert manifest["spans"] == {}

    def test_write_and_load_round_trip(self, tmp_path):
        path = write_manifest(
            tmp_path / "run.json", "run", parameters={"seed": 1}, recorder=Recorder()
        )
        manifest = load_manifest(path)
        assert manifest["name"] == "run"
        assert manifest["parameters"] == {"seed": 1}

    def test_load_rejects_non_manifest(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="schema_version"):
            load_manifest(path)

    def test_manifest_carries_provenance(self):
        manifest = build_manifest("run", recorder=Recorder())
        provenance = manifest["provenance"]
        assert set(provenance) == {"git_sha", "hostname", "python_version"}
        assert provenance["git_sha"]
        assert provenance["python_version"].count(".") == 2
        assert manifest["provenance"] == run_provenance()

    def test_manifest_carries_histogram_and_timer_sections(self):
        recorder = Recorder(enabled=True)
        recorder.observe("congest.round_bits", 8)
        manifest = build_manifest("run", recorder=recorder)
        assert manifest["histograms"]["congest.round_bits"]["count"] == 1
        assert manifest["timers"] == {}

    def test_manifest_rejects_non_json_native_parameters(self):
        with pytest.raises(TypeError, match="parameters"):
            build_manifest(
                "run", parameters={"path": object()}, recorder=Recorder()
            )
        with pytest.raises(TypeError, match="extra"):
            build_manifest("run", recorder=Recorder(), extra={"s": {1, 2}})

    def test_ensure_json_native_accepts_nested_native_values(self):
        ensure_json_native(
            {"a": [1, 2.5, None, True, "x"], "b": {"c": (1, 2)}}, "value"
        )

    def test_ensure_json_native_rejects_non_string_keys(self):
        with pytest.raises(TypeError, match="key"):
            ensure_json_native({1: "x"}, "value")


class TestProvenanceDegradation:
    """Provenance must degrade to "unknown", never raise or omit."""

    def test_git_sha_unknown_when_git_is_missing(self, monkeypatch):
        import subprocess

        from repro.obs import manifest as manifest_mod

        def no_git(*args, **kwargs):
            raise OSError("git not found")

        monkeypatch.setattr(subprocess, "run", no_git)
        manifest_mod._git_sha.cache_clear()
        try:
            provenance = run_provenance()
            assert provenance["git_sha"] == "unknown"
        finally:
            manifest_mod._git_sha.cache_clear()

    def test_git_sha_unknown_outside_a_checkout(self, monkeypatch):
        import subprocess

        from repro.obs import manifest as manifest_mod

        real_run = subprocess.run

        def not_a_repo(cmd, **kwargs):
            result = real_run(["false"], capture_output=True)
            result.stdout = "fatal: not a git repository"
            return result

        monkeypatch.setattr(subprocess, "run", not_a_repo)
        manifest_mod._git_sha.cache_clear()
        try:
            assert run_provenance()["git_sha"] == "unknown"
        finally:
            manifest_mod._git_sha.cache_clear()

    def test_hostname_unknown_when_lookup_fails(self, monkeypatch):
        import socket

        def no_hostname():
            raise OSError("no hostname")

        monkeypatch.setattr(socket, "gethostname", no_hostname)
        assert run_provenance()["hostname"] == "unknown"

    def test_empty_hostname_becomes_unknown(self, monkeypatch):
        import socket

        monkeypatch.setattr(socket, "gethostname", lambda: "")
        assert run_provenance()["hostname"] == "unknown"

    def test_degraded_manifest_still_builds_and_loads(self, tmp_path, monkeypatch):
        import socket
        import subprocess

        from repro.obs import manifest as manifest_mod

        def no_git(*args, **kwargs):
            raise OSError("no git")

        monkeypatch.setattr(subprocess, "run", no_git)
        monkeypatch.setattr(socket, "gethostname", lambda: "")
        manifest_mod._git_sha.cache_clear()
        try:
            path = write_manifest(tmp_path / "run.json", "run", recorder=Recorder())
            provenance = load_manifest(path)["provenance"]
            assert provenance["git_sha"] == "unknown"
            assert provenance["hostname"] == "unknown"
        finally:
            manifest_mod._git_sha.cache_clear()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs the git CLI")
class TestDirtyTree:
    """A tree with uncommitted tracked changes is marked ``-dirty``."""

    @pytest.fixture
    def checkout(self, tmp_path):
        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                cwd=tmp_path,
                check=True,
                capture_output=True,
                text=True,
            ).stdout.strip()

        git("init", "-q")
        (tmp_path / "tracked.txt").write_text("one\n")
        git("add", "tracked.txt")
        git("commit", "-q", "-m", "initial")
        return tmp_path, git("rev-parse", "--short=12", "HEAD")

    def test_clean_tree_is_the_bare_sha(self, checkout):
        from repro.obs.manifest import _tree_sha

        root, sha = checkout
        assert _tree_sha(root) == sha

    def test_modified_tracked_file_marks_the_tree_dirty(self, checkout):
        from repro.obs.manifest import _tree_sha

        root, sha = checkout
        (root / "tracked.txt").write_text("two\n")
        assert _tree_sha(root) == f"{sha}-dirty"

    def test_untracked_file_alone_keeps_the_tree_clean(self, checkout):
        from repro.obs.manifest import _tree_sha

        root, sha = checkout
        (root / "untracked.txt").write_text("new\n")
        assert _tree_sha(root) == sha

    def test_outside_git_is_unknown(self, tmp_path):
        from repro.obs.manifest import _tree_sha

        assert _tree_sha(tmp_path) == "unknown"


class TestBenchPublish:
    def test_publish_writes_text_and_manifest_sidecar(self, tmp_path, monkeypatch, capsys):
        import benchmarks._util as util

        monkeypatch.setattr(util, "RESULTS_DIR", tmp_path)
        path = util.publish("demo", "hello table", parameters={"t": 2})
        assert path == tmp_path / "demo.txt"
        assert path.read_text() == "hello table\n"
        manifest = json.loads((tmp_path / "demo.json").read_text())
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["parameters"] == {"t": 2}
        assert manifest["extra"]["artifact"] == "demo.txt"
        assert "demo.txt" in capsys.readouterr().out

    def test_publish_captures_recorder_counters(self, tmp_path, monkeypatch):
        import benchmarks._util as util

        monkeypatch.setattr(util, "RESULTS_DIR", tmp_path)
        with obs.recording():
            obs.get_recorder().incr("congest.bits", 99)
        util.publish("counted", "text")
        manifest = json.loads((tmp_path / "counted.json").read_text())
        assert manifest["counters"]["congest.bits"] == 99

    def test_publish_drains_recorder_between_benches(self, tmp_path, monkeypatch):
        import benchmarks._util as util

        monkeypatch.setattr(util, "RESULTS_DIR", tmp_path)
        with obs.recording():
            obs.get_recorder().incr("congest.bits", 7)
        util.publish("first", "text")
        util.publish("second", "text")
        second = json.loads((tmp_path / "second.json").read_text())
        assert second["counters"] == {}

    def test_publish_drains_even_while_span_is_open(self, tmp_path, monkeypatch):
        # Regression: publish used to call reset(), which raises while a
        # span is open; the swallowed error leaked counters into every
        # subsequent manifest.
        import benchmarks._util as util

        monkeypatch.setattr(util, "RESULTS_DIR", tmp_path)
        with obs.recording():
            recorder = obs.get_recorder()
            with recorder.span("suite"):
                recorder.incr("congest.bits", 7)
                recorder.observe("congest.round_bits", 12)
                util.publish("first", "text")
                util.publish("second", "text")
        first = json.loads((tmp_path / "first.json").read_text())
        second = json.loads((tmp_path / "second.json").read_text())
        assert first["counters"] == {"congest.bits": 7}
        assert first["histograms"]["congest.round_bits"]["count"] == 1
        assert second["counters"] == {}
        assert second["histograms"] == {}
