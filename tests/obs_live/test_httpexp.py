"""Tests for the Prometheus renderer and the ``--metrics-port`` host."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.httpexp import (
    MetricsSuite,
    render_prometheus,
    sanitize_metric_name,
)
from repro.obs.live import LiveMonitor
from repro.obs.recorder import SCHEMA_VERSION, Recorder
from repro.serve.http import BackgroundServer, suite_handler


def fresh_recorder():
    recorder = Recorder()
    recorder.enabled = True
    return recorder


def parse_exposition(text):
    """``{metric_line_name: value}`` for every sample line, with checks.

    Asserts the structural rules of the text exposition format: every
    non-comment line is ``name{labels} value``, every ``# TYPE`` names
    a type the format defines, and the text ends with a newline.
    """
    assert text.endswith("\n")
    samples = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            assert parts[1] == "TYPE"
            assert parts[3] in ("counter", "gauge", "summary", "histogram")
            continue
        name_part, _, value = line.rpartition(" ")
        assert name_part, line
        float(value)  # must parse
        samples[name_part] = value
    return samples


class TestSanitize:
    def test_dots_become_underscores(self):
        assert sanitize_metric_name("congest.round_bits") == "congest_round_bits"

    def test_leading_digit_prefixed(self):
        assert sanitize_metric_name("5xx.count") == "_5xx_count"

    def test_valid_names_unchanged(self):
        assert sanitize_metric_name("already_fine:yes") == "already_fine:yes"


class TestRenderPrometheus:
    def test_counters_get_total_suffix(self):
        recorder = fresh_recorder()
        recorder.incr("congest.messages", 7)
        samples = parse_exposition(render_prometheus(recorder=recorder))
        assert samples["congest_messages_total"] == "7"

    def test_gauges_pass_through(self):
        recorder = fresh_recorder()
        recorder.gauge("cache.speedup_x", 3.5)
        samples = parse_exposition(render_prometheus(recorder=recorder))
        assert samples["cache_speedup_x"] == "3.5"

    def test_histogram_summary_quantiles(self):
        recorder = fresh_recorder()
        for value in (1.0, 2.0, 3.0, 4.0):
            recorder.observe("congest.round_bits", value)
        text = render_prometheus(recorder=recorder)
        samples = parse_exposition(text)
        assert 'congest_round_bits{quantile="0.5"}' in samples
        assert 'congest_round_bits{quantile="0.99"}' in samples
        assert samples["congest_round_bits_count"] == "4"
        assert samples["congest_round_bits_sum"] == "10"

    def test_timers_get_seconds_suffix(self):
        recorder = fresh_recorder()
        with recorder.time("cache.lookup"):
            pass
        samples = parse_exposition(render_prometheus(recorder=recorder))
        assert "cache_lookup_seconds_count" in samples

    def test_keyed_counters_are_labeled_and_capped(self):
        from repro.obs import httpexp

        recorder = fresh_recorder()
        for index in range(httpexp.MAX_KEYED_SERIES + 10):
            recorder.incr_keyed("congest.edge_bits", f"edge-{index:03d}", index + 1)
        text = render_prometheus(recorder=recorder)
        labeled = [
            line
            for line in text.splitlines()
            if line.startswith("congest_edge_bits_total{")
        ]
        # The cap, plus one marker series carrying the dropped count.
        assert len(labeled) == httpexp.MAX_KEYED_SERIES + 1
        # Largest-valued keys survive the cap.
        assert 'key="edge-059"' in text
        assert 'congest_edge_bits_total{key="_truncated"} 10' in text

    def test_truncation_marker_counts_every_dropped_key(self):
        from repro.obs import httpexp

        recorder = fresh_recorder()
        for index in range(httpexp.MAX_KEYED_SERIES * 2):
            recorder.incr_keyed("big.bucket", f"k{index:03d}", index + 1)
        samples = parse_exposition(render_prometheus(recorder=recorder))
        assert samples['big_bucket_total{key="_truncated"}'] == str(
            httpexp.MAX_KEYED_SERIES
        )

    def test_no_truncation_marker_at_or_under_the_cap(self):
        from repro.obs import httpexp

        recorder = fresh_recorder()
        for index in range(httpexp.MAX_KEYED_SERIES):
            recorder.incr_keyed("at.cap", f"k{index:03d}")
        recorder.incr_keyed("under.cap", "only")
        text = render_prometheus(recorder=recorder)
        assert "_truncated" not in text
        assert (
            len([l for l in text.splitlines() if l.startswith("at_cap_total{")])
            == httpexp.MAX_KEYED_SERIES
        )

    def test_empty_recorder_renders_build_info_only(self):
        text = render_prometheus(recorder=fresh_recorder())
        samples = parse_exposition(text)
        assert all(name.startswith("repro_build_info") for name in samples)

    def test_label_values_escaped(self):
        recorder = fresh_recorder()
        recorder.incr_keyed("weird.keys", 'a"b\\c\nd')
        text = render_prometheus(recorder=recorder)
        assert '\\"' in text and "\\\\" in text and "\\n" in text

    def test_build_info_always_present(self):
        samples = parse_exposition(render_prometheus(recorder=fresh_recorder()))
        build = [name for name in samples if name.startswith("repro_build_info")]
        assert len(build) == 1

    def test_monitor_gauges_included(self):
        monitor = LiveMonitor(command="t")
        monitor.sweep_started(5)
        monitor.note_cached(2)
        samples = parse_exposition(
            render_prometheus(recorder=fresh_recorder(), monitor=monitor)
        )
        assert samples["parallel_units_planned"] == "5"
        assert samples["parallel_units_done"] == "2"
        assert samples["parallel_units_cached"] == "2"
        monitor.close()

    def test_without_monitor_no_progress_gauges(self):
        text = render_prometheus(recorder=fresh_recorder(), monitor=None)
        assert "parallel_units_planned" not in text


def fetch(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read().decode("utf-8")


def metrics_host(recorder, monitor=None):
    """A suite hosted the way ``--metrics-port`` hosts it."""
    suite = MetricsSuite(recorder=recorder, monitor=monitor)
    return BackgroundServer(suite_handler(suite)).start()


class TestMetricsServer:
    @pytest.fixture()
    def server(self):
        recorder = fresh_recorder()
        recorder.incr("congest.messages", 3)
        monitor = LiveMonitor(command="serve-test")
        monitor.sweep_started(2)
        server = metrics_host(recorder, monitor)
        yield server
        server.close()
        monitor.close()

    def test_ephemeral_port_resolved(self, server):
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"

    def test_metrics_endpoint(self, server):
        status, headers, body = fetch(f"{server.url}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        samples = parse_exposition(body)
        assert samples["congest_messages_total"] == "3"
        assert samples["parallel_units_planned"] == "2"

    def test_progress_endpoint(self, server):
        status, headers, body = fetch(f"{server.url}/progress")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        document = json.loads(body)
        assert document["active"] is True
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["units_total"] == 2
        assert document["stalls"] == []

    def test_health_endpoint(self, server):
        status, _, body = fetch(f"{server.url}/health")
        assert status == 200
        document = json.loads(body)
        assert document["status"] == "ok"
        assert document["uptime_s"] >= 0

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(f"{server.url}/nope")
        assert excinfo.value.code == 404

    def test_unknown_path_lists_the_suite_paths(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(f"{server.url}/nope")
        assert excinfo.value.headers["Content-Type"] == "application/json"
        assert json.loads(excinfo.value.read()) == {
            "error": "unknown path",
            "paths": ["/metrics", "/progress", "/health"],
        }

    def test_post_is_405_with_allow_get(self, server):
        request = urllib.request.Request(
            f"{server.url}/metrics", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 405
        assert excinfo.value.headers["Allow"] == "GET"

    def test_progress_inactive_without_monitor(self):
        server = metrics_host(fresh_recorder(), monitor=None)
        try:
            _, _, body = fetch(f"{server.url}/progress")
            assert json.loads(body) == {
                "active": False,
                "schema_version": SCHEMA_VERSION,
            }
        finally:
            server.close()

    def test_close_releases_port(self):
        server = metrics_host(fresh_recorder())
        url = server.url
        server.close()
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            fetch(f"{url}/health")
