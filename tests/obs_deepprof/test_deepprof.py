"""Tests for the sampling profiler / memory telemetry core.

Sampling itself is stochastic, so these tests drive the profiler over
workloads long enough that "at least one sample landed" is effectively
certain, and pin everything around the sampling — key construction,
the folded export, the absorb merge, the critical path — as
exact deterministic contracts.
"""

import json
import time

import pytest

from repro.obs import deepprof
from repro.obs.deepprof import DeepProfiler
from repro.obs.recorder import Recorder
from tests.obs.span_sources import span_sources


def _busy(seconds):
    """Deterministic CPU spin: a sampler always catches a busy loop."""
    deadline = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < deadline:
        total += 1
    return total


class TestSampler:
    def test_busy_loop_is_sampled(self):
        with DeepProfiler(hz=250.0) as profiler:
            _busy(0.2)
        assert profiler.total_samples >= 10
        assert profiler.samples
        assert any("_busy" in key for key in profiler.samples)

    def test_samples_attribute_to_open_spans(self):
        recorder = Recorder(enabled=True)
        with DeepProfiler(hz=250.0, recorder=recorder) as profiler:
            with recorder.span("outer"):
                with recorder.span("inner"):
                    _busy(0.2)
        attributed = [
            key
            for key in profiler.samples
            if key.startswith("span:outer;span:inner;")
        ]
        assert attributed, sorted(profiler.samples)

    def test_paused_suppresses_sampling(self):
        profiler = DeepProfiler(hz=250.0).start()
        try:
            with profiler.paused():
                # A sample may land between start() and the pause (and
                # one may be in flight), so assert on the delta with a
                # one-sample tolerance rather than on zero.
                before = profiler.total_samples
                _busy(0.2)
                delta = profiler.total_samples - before
        finally:
            profiler.stop()
        assert delta <= 1  # ~50 samples would land unpaused

    def test_pause_is_nested_safe(self):
        profiler = DeepProfiler(hz=250.0).start()
        try:
            with profiler.paused():
                with profiler.paused():
                    pass
                before = profiler.total_samples
                _busy(0.1)
                assert profiler.total_samples - before <= 1
            _busy(0.2)
        finally:
            profiler.stop()
        assert profiler.total_samples > 0

    def test_double_start_raises(self):
        profiler = DeepProfiler().start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                profiler.start()
        finally:
            profiler.stop()

    def test_stop_without_start_is_a_noop(self):
        DeepProfiler().stop()

    def test_invalid_hz_raises(self):
        with pytest.raises(ValueError, match="positive"):
            DeepProfiler(hz=0)

    def test_memory_only_mode_collects_no_stacks(self):
        with DeepProfiler(hz=250.0, sample_stacks=False, memory=True) as prof:
            _busy(0.1)
        assert prof.samples == {}
        assert prof.state()["memory"] is not None

    def test_config_roundtrip(self):
        profiler = DeepProfiler(hz=11.0, memory=True, max_depth=9)
        clone = DeepProfiler.from_config(profiler.config())
        assert clone.config() == profiler.config()


class TestKeyConstruction:
    def test_clean_segment_strips_separators(self):
        assert deepprof._clean_segment("a b;c") == "a_b,c"

    def test_trim_cuts_at_the_deepest_anchor(self):
        anchor = "repro.parallel.jobs:execute_unit"
        labels = ["cli:main", anchor, "engine:loop", anchor, "maxis:solve"]
        assert deepprof._trim_stack(labels) == ["maxis:solve"]

    def test_trim_keeps_unanchored_stacks(self):
        labels = ["cli:main", "maxis:solve"]
        assert deepprof._trim_stack(labels) == labels


class TestFoldedExports:
    SAMPLES = {
        "span:a;m:f": 3,
        "span:a;span:b;m:g": 2,
        "m:h": 1,
        "m:zero": 0,
    }

    def test_folded_lines_sorted_and_zero_free(self):
        text = deepprof.folded_lines(self.SAMPLES)
        assert text == "m:h 1\nspan:a;m:f 3\nspan:a;span:b;m:g 2\n"

    def test_folded_lines_empty(self):
        assert deepprof.folded_lines({}) == ""

    def test_span_folded_collapses_to_span_prefixes(self):
        assert deepprof.span_folded(self.SAMPLES) == {
            "": 1,
            "span:a": 3,
            "span:a;span:b": 2,
        }

    def test_structural_span_keys_drop_the_stochastic_tail(self):
        samples = {"span:a;m:f": 990, "span:b;m:g": 9}
        assert deepprof.structural_span_keys(samples) == frozenset(
            {"span:a"}
        )

    def test_structural_span_keys_empty_profile(self):
        assert deepprof.structural_span_keys({}) == frozenset()

class TestAbsorb:
    def _worker_state(self, samples, total=None, memory=None):
        return {
            "schema_version": deepprof.DEEPPROF_SCHEMA_VERSION,
            "hz": deepprof.DEFAULT_HZ,
            "sample_stacks": True,
            "total_samples": total if total is not None else sum(samples.values()),
            "duration_s": 0.5,
            "merged_profiles": 0,
            "samples": samples,
            "memory": memory,
        }

    def test_absorb_prefixes_with_the_span_path(self):
        parent = DeepProfiler()
        parent.absorb(
            self._worker_state({"m:f": 2, "span:unit;m:g": 1}),
            span_prefix=("parallel.run",),
        )
        assert parent.samples == {
            "span:parallel.run;m:f": 2,
            "span:parallel.run;span:unit;m:g": 1,
        }
        assert parent.total_samples == 3
        assert parent.merged_profiles == 1

    def test_absorb_without_prefix_keeps_keys(self):
        parent = DeepProfiler()
        parent.absorb(self._worker_state({"m:f": 2}))
        assert parent.samples == {"m:f": 2}

    def test_absorb_accumulates_across_workers(self):
        parent = DeepProfiler()
        state = self._worker_state({"m:f": 2})
        parent.absorb(state, span_prefix=("run",))
        parent.absorb(state, span_prefix=("run",))
        assert parent.samples == {"span:run;m:f": 4}
        assert parent.merged_profiles == 2

    def test_absorb_is_order_independent(self):
        one = self._worker_state({"m:f": 2, "m:g": 1})
        two = self._worker_state({"m:f": 5})
        forward, backward = DeepProfiler(), DeepProfiler()
        forward.absorb(one), forward.absorb(two)
        backward.absorb(two), backward.absorb(one)
        assert forward.samples == backward.samples

    def test_absorb_merges_memory(self):
        parent = DeepProfiler()
        memory = {
            "current_bytes": 10,
            "peak_bytes": 700,
            "span_peak_bytes": {"span:unit": 600},
            "top_allocations": [
                {"site": "maxis/exact.py:1", "size_bytes": 64, "count": 2}
            ],
        }
        parent.absorb(
            self._worker_state({}, total=0, memory=memory),
            span_prefix=("run",),
        )
        parent.absorb(
            self._worker_state({}, total=0, memory=memory),
            span_prefix=("run",),
        )
        state = parent.state()["memory"]
        assert state["peak_bytes"] == 700  # peaks max, not sum
        assert state["span_peak_bytes"] == {"span:run;span:unit": 600}
        assert state["top_allocations"] == [
            {"site": "maxis/exact.py:1", "size_bytes": 128, "count": 4}
        ]

    def test_state_json_roundtrip(self):
        profiler = DeepProfiler(memory=True)
        profiler.absorb(self._worker_state({"m:f": 1}))
        state = profiler.state()
        assert json.loads(json.dumps(state)) == state


class TestTopFrames:
    def test_leaf_fractions_skip_span_leaves(self):
        profiler = DeepProfiler()
        profiler.samples = {
            "span:a;m:f": 6,
            "span:b;m:f": 2,
            "m:g": 2,
            "span:only": 5,  # span leaf: no frame information
        }
        assert profiler.top_frames() == {"m:f": 0.8, "m:g": 0.2}

    def test_limit_and_tiebreak(self):
        profiler = DeepProfiler()
        profiler.samples = {"m:b": 1, "m:a": 1, "m:c": 2}
        assert list(profiler.top_frames(limit=2)) == ["m:c", "m:a"]

    def test_empty(self):
        assert DeepProfiler().top_frames() == {}


class TestMemoryTelemetry:
    def test_peaks_and_allocation_sites(self):
        recorder = Recorder(enabled=True)
        with DeepProfiler(
            hz=250.0, sample_stacks=False, memory=True, recorder=recorder
        ) as profiler:
            with recorder.span("alloc.phase"):
                blob = [bytes(1024) for _ in range(2000)]
                _busy(0.1)
        memory = profiler.state()["memory"]
        assert len(blob) == 2000  # kept alive through stop()'s snapshot
        assert memory["peak_bytes"] > 1024 * 1024
        assert any(
            key.startswith("span:alloc.phase")
            for key in memory["span_peak_bytes"]
        )
        assert memory["top_allocations"]
        for entry in memory["top_allocations"]:
            assert entry["size_bytes"] > 0
            assert ":" in entry["site"]
        # The profiler filters its own allocations out of the report
        # ("obs/deepprof.py", not this test file's "test_deepprof.py").
        assert not any(
            "obs/deepprof.py" in entry["site"]
            for entry in memory["top_allocations"]
        )


class TestCriticalPath:
    SPANS = [
        {"index": 0, "parent": None, "depth": 0, "name": "root", "duration_s": 1.0},
        {"index": 1, "parent": 0, "depth": 1, "name": "big", "duration_s": 0.6},
        {"index": 2, "parent": 0, "depth": 1, "name": "small", "duration_s": 0.3},
        {"index": 3, "parent": 1, "depth": 2, "name": "leaf", "duration_s": 0.5},
    ]

    def test_follows_the_longest_child_chain(self):
        rows = deepprof.critical_path(self.SPANS)
        assert [row["name"] for row in rows] == ["root", "big", "leaf"]

    def test_self_time_subtracts_children(self):
        rows = {row["name"]: row for row in deepprof.critical_path(self.SPANS)}
        assert rows["root"]["self_s"] == pytest.approx(0.1)
        assert rows["big"]["self_s"] == pytest.approx(0.1)
        assert rows["leaf"]["self_s"] == pytest.approx(0.5)
        assert rows["root"]["share"] == 1.0
        assert rows["big"]["share"] == pytest.approx(0.6)
        assert rows["root"]["children"] == 2

    def test_longest_root_wins(self):
        spans = [
            {"index": 0, "parent": None, "name": "short", "duration_s": 0.1},
            {"index": 1, "parent": None, "name": "long", "duration_s": 0.9},
        ]
        assert deepprof.critical_path(spans)[0]["name"] == "long"

    def test_empty_spans(self):
        assert deepprof.critical_path([]) == []

    def test_accepts_span_records(self):
        recorder = Recorder(enabled=True)
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        rows = deepprof.critical_path(recorder.spans)
        assert [row["name"] for row in rows] == ["outer", "inner"]
        for label, records in span_sources():
            events = [record.to_dict() for record in records]
            rows = deepprof.critical_path(records)
            assert rows and rows == deepprof.critical_path(events), label

    def test_render_mentions_every_hop(self):
        table = deepprof.render_critical_path(self.SPANS)
        for name in ("root", "big", "leaf"):
            assert name in table
        assert deepprof.render_critical_path([]) == "(no spans recorded)"


class TestArtifacts:
    def test_write_artifacts_round_trips(self, tmp_path):
        profiler = DeepProfiler()
        profiler.samples = {"span:a;m:f": 3, "m:g": 1}
        profiler.total_samples = 4
        paths = deepprof.write_artifacts(
            "demo", profiler, tmp_path, spans=self_spans()
        )
        document = json.loads(paths["document"].read_text())
        assert document["kind"] == "deep_profile"
        assert document["name"] == "demo"
        assert document["schema_version"] == deepprof.DEEPPROF_SCHEMA_VERSION
        assert document["samples"] == profiler.samples
        assert [row["name"] for row in document["critical_path"]] == ["root"]
        from repro.obs.flame import parse_folded

        assert parse_folded(paths["folded"].read_text()) == profiler.samples
        assert set(paths) == {"document", "folded"}

    def test_artifacts_are_byte_deterministic(self, tmp_path):
        profiler = DeepProfiler()
        profiler.samples = {"span:a;m:f": 3}
        first = deepprof.write_artifacts("x", profiler, tmp_path / "a")
        second = deepprof.write_artifacts("x", profiler, tmp_path / "b")
        for key in first:
            assert first[key].read_bytes() == second[key].read_bytes()


def self_spans():
    return [
        {"index": 0, "parent": None, "depth": 0, "name": "root", "duration_s": 1.0}
    ]


class TestAmbient:
    def test_using_profiler_installs_and_restores(self):
        assert deepprof.get_profiler() is None
        profiler = DeepProfiler()
        with deepprof.using_profiler(profiler):
            assert deepprof.get_profiler() is profiler
            assert deepprof.ambient_config() == profiler.config()
        assert deepprof.get_profiler() is None
        assert deepprof.ambient_config() is None

    def test_hard_reset_hook_clears_the_ambient_profiler(self):
        from repro import obs

        profiler = DeepProfiler()
        with deepprof.using_profiler(profiler):
            obs.get_recorder().hard_reset()
            assert deepprof.get_profiler() is None
