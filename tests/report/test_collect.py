"""Tests for the report collector: manifests -> coverage rows."""

import json

import pytest

from repro.report import collect, registry


def _manifest(name, git_sha="abc123", spans=None, parameters=None, counters=None):
    return {
        "schema_version": 3,
        "name": name,
        "parameters": parameters or {},
        "provenance": {
            "git_sha": git_sha,
            "hostname": "host",
            "python_version": "3.11.0",
        },
        "counters": counters or {},
        "gauges": {},
        "keyed_counters": {},
        "histograms": {},
        "timers": {},
        "spans": spans or {},
    }


def _write(directory, name, manifest):
    path = directory / f"{name}.json"
    path.write_text(json.dumps(manifest))
    return path


class TestCollectManifests:
    def test_loads_named_manifests(self, tmp_path):
        _write(tmp_path, "theorem5_simulation", _manifest("theorem5_simulation"))
        found = collect.collect_manifests(tmp_path)
        assert set(found) == {"theorem5_simulation"}

    def test_skips_bench_trajectories_and_garbage(self, tmp_path):
        _write(tmp_path, "BENCH_abc", {"kind": "bench_trajectory"})
        (tmp_path / "broken.json").write_text("{not json")
        (tmp_path / "no_schema.json").write_text('{"name": "x"}')
        _write(tmp_path, "good", _manifest("good"))
        assert set(collect.collect_manifests(tmp_path)) == {"good"}

    def test_missing_directory_is_empty(self, tmp_path):
        assert collect.collect_manifests(tmp_path / "nowhere") == {}


class TestManifestWall:
    def test_wall_is_the_largest_span_total(self):
        manifest = _manifest(
            "x",
            spans={
                "outer": {"count": 1, "total_s": 2.5},
                "inner": {"count": 3, "total_s": 1.0},
            },
        )
        assert collect.manifest_wall_s(manifest) == 2.5

    def test_no_spans_means_no_wall(self):
        assert collect.manifest_wall_s(_manifest("x")) is None


class TestCoverageRows:
    def test_all_statements_get_a_row(self, tmp_path):
        rows = collect.coverage_rows({}, "abc123")
        assert len(rows) == len(registry.all_statements())
        assert all(row["status"] == "unverified" for row in rows)

    def test_current_sha_manifest_marks_verified(self, tmp_path):
        manifests = {
            "theorem5_simulation": {
                "path": "p",
                "manifest": _manifest(
                    "theorem5_simulation",
                    git_sha="abc123",
                    parameters={"seed": 11},
                    spans={"run": {"count": 1, "total_s": 0.25}},
                ),
            }
        }
        rows = {
            row["statement_id"]: row
            for row in collect.coverage_rows(manifests, "abc123")
        }
        row = rows["Theorem 5"]
        assert row["status"] == "verified"
        assert row["git_sha"] == "abc123"
        assert row["wall_s"] == 0.25
        assert row["parameters"] == "seed=11"

    def test_old_sha_manifest_marks_stale(self):
        manifests = {
            "theorem5_simulation": {
                "path": "p",
                "manifest": _manifest("theorem5_simulation", git_sha="old000"),
            }
        }
        rows = {
            row["statement_id"]: row
            for row in collect.coverage_rows(manifests, "new111")
        }
        assert rows["Theorem 5"]["status"] == "stale"
        assert rows["Theorem 1"]["status"] == "unverified"

    def test_current_manifest_preferred_over_stale(self):
        manifests = {
            "theorem1_linear_gap": {
                "path": "p1",
                "manifest": _manifest("theorem1_linear_gap", git_sha="old000"),
            },
            "theorem1_all_claims": {
                "path": "p2",
                "manifest": _manifest("theorem1_all_claims", git_sha="new111"),
            },
        }
        rows = {
            row["statement_id"]: row
            for row in collect.coverage_rows(manifests, "new111")
        }
        row = rows["Theorem 1"]
        assert row["status"] == "verified"
        assert row["manifest"] == "theorem1_all_claims"


class TestTrajectoriesAndCache:
    def _trajectory(self, sha, medians):
        return {
            "schema_version": 1,
            "kind": "bench_trajectory",
            "provenance": {"git_sha": sha},
            "benches": {
                name: {"wall": {"median_s": median, "iqr_s": 0.001, "repeats": 5}}
                for name, median in medians.items()
            },
        }

    def test_series_walk_the_timeline_in_order(self, tmp_path):
        import os
        import time

        a = tmp_path / "BENCH_aaa.json"
        a.write_text(json.dumps(self._trajectory("aaa", {"maxis_exact": 0.5})))
        b = tmp_path / "BENCH_bbb.json"
        b.write_text(json.dumps(self._trajectory("bbb", {"maxis_exact": 0.4})))
        now = time.time()
        os.utime(a, (now - 100, now - 100))
        os.utime(b, (now, now))
        result = collect.bench_trajectories(tmp_path)
        assert result["count"] == 2
        assert result["series"]["maxis_exact"] == [0.5, 0.4]
        assert result["shas"] == ["aaa", "bbb"]
        assert result["latest"]["maxis_exact"]["median_s"] == 0.4

    def test_cache_totals_aggregate_counters(self):
        manifests = {
            "a": {
                "path": "p",
                "manifest": _manifest(
                    "a", counters={"cache.hit": 3, "cache.miss": 1}
                ),
            },
            "b": {
                "path": "p",
                "manifest": _manifest("b", counters={"cache.bytes_written": 64}),
            },
        }
        totals = collect.cache_totals(manifests)
        assert totals == {
            "hits": 3,
            "misses": 1,
            "hit_rate": 0.75,
            "bytes_written": 64,
        }

    def test_cache_totals_none_when_idle(self):
        manifests = {"a": {"path": "p", "manifest": _manifest("a")}}
        assert collect.cache_totals(manifests) is None

    def test_stall_totals_none_when_healthy(self):
        manifests = {"a": {"path": "p", "manifest": _manifest("a")}}
        assert collect.stall_totals(manifests) is None

    def test_stall_totals_merge_counters_and_reports(self):
        stalled = dict(
            _manifest(
                "a",
                counters={
                    "parallel.stalled_units": 2,
                    "parallel.requeued_units": 5,
                },
            ),
            stalls=[
                {"uid": "nap/0", "worker": 41, "waited_s": 0.6, "requeued": True}
            ],
        )
        manifests = {
            "a": {"path": "p", "manifest": stalled},
            "b": {"path": "p", "manifest": _manifest("b")},
        }
        totals = collect.stall_totals(manifests)
        assert totals["stalled_units"] == 2
        assert totals["requeued_units"] == 5
        assert totals["reports"] == [
            {
                "uid": "nap/0",
                "worker": 41,
                "waited_s": 0.6,
                "requeued": True,
                "manifest": "a",
            }
        ]

    def test_stall_totals_reports_alone_imply_a_count(self):
        # A manifest written by a run whose recorder was disabled still
        # carries the structured reports; the totals must not read 0.
        stalled = dict(
            _manifest("a"), stalls=[{"uid": "u", "worker": 7, "waited_s": 1.0}]
        )
        manifests = {"a": {"path": "p", "manifest": stalled}}
        assert collect.stall_totals(manifests)["stalled_units"] == 1


class TestCollectReport:
    def test_model_shape_without_telemetry(self, tmp_path):
        data = collect.collect_report(tmp_path, include_telemetry=False)
        assert data["telemetry"] is None
        assert data["unmapped"] == []
        assert data["registry_problems"] == []
        assert data["summary"]["total"] == 23
        assert (
            data["summary"]["verified"]
            + data["summary"]["stale"]
            + data["summary"]["unverified"]
            + data["summary"]["unmapped"]
            == 23
        )

    def test_model_is_deterministic(self, tmp_path):
        _write(tmp_path, "theorem4_codes", _manifest("theorem4_codes"))
        first = collect.collect_report(tmp_path, include_telemetry=False)
        second = collect.collect_report(tmp_path, include_telemetry=False)
        assert first == second


def _deepprof_document(name):
    """A stale ``DEEPPROF_*.json`` left by an older sampling profiler."""
    return {"kind": "deep_profile", "schema_version": 1, "name": name}


class TestCollectDeepProfiles:
    """Documents left by an older sampling profiler are not run manifests."""

    def test_manifest_collector_ignores_deepprof_files(self, tmp_path):
        (tmp_path / "DEEPPROF_run.json").write_text(
            json.dumps(_deepprof_document("run"))
        )
        _write(tmp_path, "good", _manifest("good"))
        assert set(collect.collect_manifests(tmp_path)) == {"good"}
