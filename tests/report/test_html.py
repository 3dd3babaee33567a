"""Tests for the HTML renderer and the SVG sparklines."""

import json

import pytest

from repro.report.collect import collect_report
from repro.report.html import build_dashboard, render_report
from repro.report.svg import sparkline_svg


class TestSparkline:
    def test_renders_a_polyline_with_endpoint_dot(self):
        svg = sparkline_svg([1.0, 2.0, 1.5])
        assert svg.startswith("<svg")
        assert "<polyline" in svg and "<circle" in svg

    def test_empty_series_renders_an_empty_frame(self):
        svg = sparkline_svg([])
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "<polyline" not in svg

    def test_flat_series_stays_on_the_midline(self):
        svg = sparkline_svg([3.0, 3.0, 3.0], height=28)
        assert "14.00" in svg

    def test_byte_deterministic(self):
        values = [0.1234567, 0.7654321, 0.5]
        assert sparkline_svg(values) == sparkline_svg(values)


def _model(tmp_path):
    return collect_report(tmp_path, include_telemetry=False)


class TestRenderReport:
    def test_self_contained_html(self, tmp_path):
        html = render_report(_model(tmp_path))
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html
        assert "<link" not in html
        assert "<style>" in html

    def test_matrix_lists_every_statement(self, tmp_path):
        html = render_report(_model(tmp_path))
        for sid in (
            "Theorem 1",
            "Theorem 5",
            "Property 2",
            "Claim 7",
            "Lemma 1",
            "Remark 1",
            "Figure 6",
        ):
            assert sid in html

    def test_escapes_untrusted_manifest_content(self, tmp_path):
        (tmp_path / "evil.json").write_text(
            json.dumps(
                {
                    "schema_version": 3,
                    "name": "<script>alert(1)</script>",
                    "parameters": {},
                    "provenance": {"git_sha": "x", "hostname": "h"},
                    "spans": {},
                }
            )
        )
        html = render_report(_model(tmp_path))
        assert "<script>alert(1)</script>" not in html
        assert "&lt;script&gt;" in html

    def test_render_is_byte_deterministic(self, tmp_path):
        model = _model(tmp_path)
        assert render_report(model) == render_report(model)

    def test_healthy_runs_omit_the_stall_section(self, tmp_path):
        html = render_report(_model(tmp_path))
        assert "Stall watchdog reports" not in html

    def test_stall_reports_render_a_table(self, tmp_path):
        model = _model(tmp_path)
        model["stalls"] = {
            "stalled_units": 1,
            "requeued_units": 1,
            "reports": [
                {
                    "manifest": "theorem2_sweep",
                    "uid": "theorem2/t=3",
                    "worker": 4242,
                    "waited_s": 30.5,
                    "deadline_s": 30.0,
                    "requeued": True,
                }
            ],
        }
        html = render_report(model)
        assert "Stall watchdog reports" in html
        assert "theorem2/t=3" in html
        assert "4242" in html
        assert "1 stalled" in html


class TestBuildDashboard:
    def test_writes_report_html(self, tmp_path):
        result = build_dashboard(
            tmp_path / "out",
            results_dir=tmp_path / "results",
            include_telemetry=False,
        )
        assert result["path"].name == "report.html"
        assert result["path"].exists()
        assert result["unmapped"] == []
        assert result["problems"] == []

    def test_rebuild_is_byte_identical(self, tmp_path):
        kwargs = dict(results_dir=tmp_path / "results", include_telemetry=False)
        first = build_dashboard(tmp_path / "a", **kwargs)
        second = build_dashboard(tmp_path / "b", **kwargs)
        assert first["path"].read_bytes() == second["path"].read_bytes()

    def test_report_with_telemetry_includes_metrics(self, tmp_path):
        result = build_dashboard(
            tmp_path / "out", results_dir=tmp_path / "results", seed=0
        )
        html = result["path"].read_text()
        assert "congest.round_bits" in html
        assert "<script" not in html
