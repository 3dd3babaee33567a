"""Tests for the perf-trajectory runner (discovery, stats, compare)."""

import json

import pytest

from benchmarks import runner


def _trajectory(medians, iqr=0.001, sha="aaa"):
    """Synthesize a minimal bench_trajectory record."""
    return {
        "schema_version": runner.BENCH_SCHEMA_VERSION,
        "kind": "bench_trajectory",
        "provenance": {"git_sha": sha},
        "config": {"warmup": 0, "repeats": 3},
        "benches": {
            name: {
                "parameters": {},
                "wall": {
                    "repeats": 3,
                    "median_s": median,
                    "iqr_s": iqr,
                    "min_s": median,
                    "max_s": median,
                    "mean_s": median,
                    "stdev_s": 0.0,
                    "outliers_rejected": 0,
                },
                "counters": {},
                "gauges": {},
                "histograms": {},
                "timers": {},
                "spans": {},
            }
            for name, median in medians.items()
        },
    }


class TestDiscovery:
    def test_registry_holds_the_six_benches(self):
        names = [spec.name for spec in runner.discover()]
        assert names == [
            "construction_build",
            "gf_arithmetic",
            "maxis_exact",
            "kernel_reduction",
            "congest_trace",
            "theorem5_simulation",
        ]

    def test_only_filter_preserves_request_order(self):
        specs = runner.discover(["maxis_exact", "gf_arithmetic"])
        assert [spec.name for spec in specs] == ["maxis_exact", "gf_arithmetic"]

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="no_such_bench"):
            runner.discover(["no_such_bench"])

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="twice"):
            runner.bench("construction_build")(lambda: None)


class TestRobustStats:
    def test_median_and_iqr_over_all_samples(self):
        stats = runner.robust_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats["median_s"] == pytest.approx(3.0)
        assert stats["iqr_s"] == pytest.approx(2.0)
        assert stats["min_s"] == 1.0
        assert stats["max_s"] == 5.0
        assert stats["outliers_rejected"] == 0

    def test_outlier_rejected_from_mean_but_kept_in_max(self):
        samples = [1.0, 1.0, 1.0, 1.0, 100.0]
        stats = runner.robust_stats(samples)
        assert stats["outliers_rejected"] == 1
        assert stats["mean_s"] == pytest.approx(1.0)
        assert stats["max_s"] == 100.0
        assert stats["repeats"] == 5

    def test_single_sample(self):
        stats = runner.robust_stats([0.5])
        assert stats["median_s"] == 0.5
        assert stats["stdev_s"] == 0.0

    def test_zero_samples_raises(self):
        with pytest.raises(ValueError):
            runner.robust_stats([])


class TestTrajectoryDiscovery:
    def _write(self, tmp_path, name, record, age_s=0):
        import os
        import time

        path = tmp_path / name
        path.write_text(json.dumps(record))
        if age_s:
            stamp = time.time() - age_s
            os.utime(path, (stamp, stamp))
        return path

    def test_discovery_orders_by_mtime(self, tmp_path):
        self._write(tmp_path, "BENCH_new.json", _trajectory({"a": 1.0}, sha="new"))
        self._write(
            tmp_path, "BENCH_old.json", _trajectory({"a": 2.0}, sha="old"), age_s=100
        )
        found = runner.discover_trajectories(tmp_path)
        assert [record["provenance"]["git_sha"] for _, record in found] == [
            "old",
            "new",
        ]

    def test_discovery_skips_unparseable_records(self, tmp_path):
        (tmp_path / "BENCH_broken.json").write_text("{nope")
        (tmp_path / "BENCH_wrongkind.json").write_text('{"kind": "other"}')
        self._write(tmp_path, "BENCH_good.json", _trajectory({"a": 1.0}))
        assert len(runner.discover_trajectories(tmp_path)) == 1

    def test_missing_directory_is_empty(self, tmp_path):
        assert runner.discover_trajectories(tmp_path / "nope") == []

    def test_latest_trajectory_picks_the_newest(self, tmp_path):
        self._write(
            tmp_path, "BENCH_old.json", _trajectory({"a": 1.0}, sha="old"), age_s=100
        )
        newest = self._write(
            tmp_path, "BENCH_new.json", _trajectory({"a": 1.0}, sha="new")
        )
        assert runner.latest_trajectory(tmp_path) == newest

    def test_latest_trajectory_excludes_the_given_record(self, tmp_path):
        old = self._write(
            tmp_path, "BENCH_old.json", _trajectory({"a": 1.0}, sha="old"), age_s=100
        )
        newest = self._write(
            tmp_path, "BENCH_new.json", _trajectory({"a": 1.0}, sha="new")
        )
        assert runner.latest_trajectory(tmp_path, exclude=newest) == old

    def test_latest_trajectory_none_when_empty(self, tmp_path, monkeypatch):
        # Point the committed-baseline fallback at an empty directory,
        # otherwise benchmarks/baselines/ would answer.
        monkeypatch.setattr(runner, "BASELINES_DIR", tmp_path / "no-baselines")
        assert runner.latest_trajectory(tmp_path) is None

    def test_latest_trajectory_falls_back_to_baselines(
        self, tmp_path, monkeypatch
    ):
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        seed = self._write(
            baselines, "BENCH_seed.json", _trajectory({"a": 1.0}, sha="seed")
        )
        monkeypatch.setattr(runner, "BASELINES_DIR", baselines)
        empty_results = tmp_path / "results"
        empty_results.mkdir()
        assert runner.latest_trajectory(empty_results) == seed

    def test_results_dir_wins_over_the_baseline_fallback(
        self, tmp_path, monkeypatch
    ):
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        self._write(
            baselines, "BENCH_seed.json", _trajectory({"a": 1.0}, sha="seed")
        )
        monkeypatch.setattr(runner, "BASELINES_DIR", baselines)
        local = self._write(
            tmp_path, "BENCH_local.json", _trajectory({"a": 1.0}, sha="local")
        )
        assert runner.latest_trajectory(tmp_path) == local

    def test_committed_baseline_is_a_valid_trajectory(self):
        found = runner.discover_trajectories(runner.BASELINES_DIR)
        assert found, "benchmarks/baselines/ should hold a seed record"
        _, record = found[-1]
        assert record["benches"]

    def test_discover_require_raises_an_actionable_error(self, tmp_path):
        with pytest.raises(FileNotFoundError) as excinfo:
            runner.discover_trajectories(tmp_path, require=True)
        message = str(excinfo.value)
        assert str(tmp_path) in message
        assert "python -m repro bench" in message
        assert "baselines" in message


class TestCompare:
    def test_regression_needs_both_gates(self):
        old = _trajectory({"a": 1.0}, iqr=0.01)
        # +50% and far beyond the IQR noise floor: regressed.
        slow = runner.compare(old, _trajectory({"a": 1.5}, iqr=0.01))
        assert slow[0]["verdict"] == "regressed"
        # +50% but within a huge IQR: noise gate blocks the verdict.
        noisy = runner.compare(old, _trajectory({"a": 1.5}, iqr=2.0))
        assert noisy[0]["verdict"] == "ok"
        # +5% absolute movement below the relative threshold: ok.
        small = runner.compare(old, _trajectory({"a": 1.05}, iqr=0.01))
        assert small[0]["verdict"] == "ok"

    def test_improvement_is_symmetric(self):
        old = _trajectory({"a": 2.0}, iqr=0.01)
        new = _trajectory({"a": 1.0}, iqr=0.01)
        assert runner.compare(old, new)[0]["verdict"] == "improved"

    def test_added_and_removed_benches(self):
        old = _trajectory({"a": 1.0, "gone": 1.0})
        new = _trajectory({"a": 1.0, "fresh": 1.0})
        verdicts = {v["bench"]: v["verdict"] for v in runner.compare(old, new)}
        assert verdicts == {"a": "ok", "gone": "removed", "fresh": "added"}

    def test_threshold_parameter_widens_the_gate(self):
        old = _trajectory({"a": 1.0}, iqr=0.0)
        new = _trajectory({"a": 1.3}, iqr=0.0)
        assert runner.compare(old, new, threshold=0.15)[0]["verdict"] == "regressed"
        assert runner.compare(old, new, threshold=0.50)[0]["verdict"] == "ok"


class TestCompareFiles:
    def _write(self, tmp_path, name, record):
        path = tmp_path / name
        path.write_text(json.dumps(record))
        return path

    def test_exit_one_on_regression(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", _trajectory({"a": 1.0}, sha="old1"))
        new = self._write(tmp_path, "new.json", _trajectory({"a": 2.0}, sha="new1"))
        assert runner.compare_files(old, new) == 1
        out = capsys.readouterr().out
        assert "REGRESSED: a" in out
        assert "old1" in out and "new1" in out

    def test_warn_only_reports_but_exits_zero(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", _trajectory({"a": 1.0}))
        new = self._write(tmp_path, "new.json", _trajectory({"a": 2.0}))
        assert runner.compare_files(old, new, warn_only=True) == 0
        assert "REGRESSED: a" in capsys.readouterr().out

    def test_exit_zero_when_stable(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", _trajectory({"a": 1.0}))
        assert runner.compare_files(old, old) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_rejects_non_trajectory_file(self, tmp_path):
        bogus = self._write(tmp_path, "x.json", {"benches": {}})
        with pytest.raises(ValueError, match="bench trajectory"):
            runner.compare_files(bogus, bogus)


class TestRunSuite:
    def test_run_bench_requires_a_repeat(self):
        spec = runner.discover(["construction_build"])[0]
        with pytest.raises(ValueError, match="repeat"):
            runner.run_bench(spec, warmup=0, repeats=0)

    def test_suite_writes_valid_trajectory(self, tmp_path, capsys):
        path, trajectory = runner.run_suite(
            warmup=0, repeats=2, only=["construction_build"], out_dir=str(tmp_path)
        )
        assert path.parent == tmp_path
        assert path.name.startswith("BENCH_")
        on_disk = runner.load_trajectory(path)
        assert on_disk == trajectory
        record = trajectory["benches"]["construction_build"]
        assert record["wall"]["repeats"] == 2
        assert record["wall"]["median_s"] > 0
        # The profiled extra run populated the instrumentation sections.
        assert record["counters"]
        assert set(trajectory["provenance"]) == {
            "git_sha",
            "hostname",
            "python_version",
        }
        assert "construction_build" in capsys.readouterr().out
