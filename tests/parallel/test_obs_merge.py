"""Recorder snapshot/merge semantics: the cross-process obs contract.

A worker recorder's ``snapshot()`` must fold into the parent via
``merge_snapshot()`` so that counters add, gauges follow merge order,
span trees graft under the parent's open span, and histograms merge
exactly (or deterministically when reservoirs overflow).
"""

import pytest

from repro.obs.metrics import Histogram
from repro.obs.recorder import Recorder
from repro.parallel import jobs


def _worker_recorder() -> Recorder:
    """A recorder that pretends to be a worker mid-unit."""
    worker = Recorder(enabled=True, clock=_FakeClock())
    with worker.span("unit", uid="w/0"):
        with worker.span("inner"):
            worker.incr("work.done", 2)
        worker.incr_keyed("edges", "a->b", 5)
        worker.gauge("last.t", 3)
        worker.observe("sizes", 10.0)
        with worker.time("solve"):
            pass
    return worker


class _FakeClock:
    """Deterministic monotonically increasing clock."""

    def __init__(self):
        self._now = 0.0

    def __call__(self) -> float:
        self._now += 1.0
        return self._now


class TestSnapshot:
    def test_snapshot_is_json_native(self):
        import json

        snapshot = _worker_recorder().snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_snapshot_excludes_open_spans(self):
        recorder = Recorder(enabled=True)
        live = recorder.span("open")
        live.__enter__()
        try:
            # The open span is in ``spans`` but the merge-side contract
            # is exercised by workers only after every span has closed.
            assert recorder._stack
        finally:
            live.__exit__(None, None, None)
        assert not recorder._stack


class TestMergeSnapshot:
    def test_counters_add_and_keyed_counters_add(self):
        parent = Recorder(enabled=True)
        parent.incr("work.done", 1)
        parent.incr_keyed("edges", "a->b", 1)
        snapshot = _worker_recorder().snapshot()
        parent.merge_snapshot(snapshot)
        parent.merge_snapshot(snapshot)
        assert parent.counters["work.done"] == 5
        assert parent.keyed_counters["edges"]["a->b"] == 11

    def test_gauges_last_merge_wins(self):
        parent = Recorder(enabled=True)
        parent.gauge("last.t", 99)
        parent.merge_snapshot(_worker_recorder().snapshot())
        assert parent.gauges["last.t"] == 3

    def test_spans_graft_under_open_span(self):
        parent = Recorder(enabled=True)
        with parent.span("parallel.run"):
            parent.merge_snapshot(_worker_recorder().snapshot())
        root = parent.spans[0]
        grafted = [r for r in parent.spans if r.name == "unit"]
        assert len(grafted) == 1
        assert grafted[0].parent == root.index
        assert grafted[0].depth == root.depth + 1
        inner = [r for r in parent.spans if r.name == "inner"]
        assert inner[0].parent == grafted[0].index
        assert inner[0].depth == grafted[0].depth + 1

    def test_spans_graft_as_roots_without_open_span(self):
        parent = Recorder(enabled=True)
        parent.merge_snapshot(_worker_recorder().snapshot())
        grafted = [r for r in parent.spans if r.name == "unit"]
        assert grafted[0].parent is None
        assert grafted[0].depth == 0

    def test_merged_spans_reach_sinks(self):
        closed = []

        class _Sink:
            def on_span(self, record):
                closed.append(record.name)

            def on_flush(self, recorder):
                pass

        parent = Recorder(enabled=True)
        parent.add_sink(_Sink())
        parent.merge_snapshot(_worker_recorder().snapshot())
        assert sorted(closed) == ["inner", "unit"]

    def test_timers_and_histograms_merge(self):
        parent = Recorder(enabled=True)
        parent.observe("sizes", 4.0)
        parent.merge_snapshot(_worker_recorder().snapshot())
        sizes = parent.histograms["sizes"].summary()
        assert sizes["count"] == 2
        assert sizes["min"] == 4.0
        assert sizes["max"] == 10.0
        assert parent.timers["solve"].summary()["count"] == 1

    def test_merge_roundtrip_equals_direct_recording(self):
        direct = Recorder(enabled=True)
        direct.incr("a", 1)
        direct.incr("a", 2)
        via_merge = Recorder(enabled=True)
        worker = Recorder(enabled=True)
        worker.incr("a", 1)
        via_merge.merge_snapshot(worker.snapshot())
        worker2 = Recorder(enabled=True)
        worker2.incr("a", 2)
        via_merge.merge_snapshot(worker2.snapshot())
        assert via_merge.counters == direct.counters


class TestSpanTracks:
    def test_merge_tags_grafted_spans_with_the_track(self):
        parent = Recorder(enabled=True)
        with parent.span("parallel.run"):
            parent.merge_snapshot(_worker_recorder().snapshot(), track="unit/0")
        grafted = [r for r in parent.spans if r.name in ("unit", "inner")]
        assert len(grafted) == 2
        assert all(record.track == "unit/0" for record in grafted)
        local = [r for r in parent.spans if r.name == "parallel.run"]
        assert local[0].track is None

    def test_span_tracks_first_appearance_order(self):
        parent = Recorder(enabled=True)
        with parent.span("parallel.run"):
            parent.merge_snapshot(_worker_recorder().snapshot(), track="unit/0")
            parent.merge_snapshot(_worker_recorder().snapshot(), track="unit/1")
        assert parent.span_tracks() == [None, "unit/0", "unit/1"]

    def test_already_tagged_spans_keep_their_track(self):
        # A snapshot whose spans already carry a track (e.g. a worker
        # that itself merged sub-workers) is not relabelled.
        snapshot = _worker_recorder().snapshot()
        for event in snapshot["spans"]:
            event["track"] = "nested/x"
        parent = Recorder(enabled=True)
        parent.merge_snapshot(snapshot, track="unit/0")
        assert {r.track for r in parent.spans} == {"nested/x"}

    def test_merge_without_track_stays_on_the_in_process_lane(self):
        parent = Recorder(enabled=True)
        parent.merge_snapshot(_worker_recorder().snapshot())
        assert parent.span_tracks() == [None]

    def test_process_pool_tags_tracks_with_unit_uids(self):
        from repro import obs
        from repro.parallel import ProcessPoolBackend, WorkUnit
        from repro.parallel import backends as backends_module

        if backends_module._multiprocessing_context() is None:
            pytest.skip("multiprocessing unavailable on this platform")
        units = [
            WorkUnit(uid=f"probe/{x}", kind="probe", kwargs={"x": x})
            for x in (2.0, 3.0)
        ]
        with obs.recording() as recorder:
            results = ProcessPoolBackend(2).run(units, chunk_size=1)
            tracks = set(recorder.span_tracks())
        assert results == [4.0, 9.0]
        assert {"probe/2.0", "probe/3.0"} <= tracks


class TestHistogramStateMerge:
    def test_exact_merge_when_reservoirs_fit(self):
        left = Histogram(reservoir_size=100)
        right = Histogram(reservoir_size=100)
        for value in (1.0, 2.0, 3.0):
            left.observe(value)
        for value in (10.0, 20.0):
            right.observe(value)
        left.merge_state(right.to_state())
        summary = left.summary()
        assert summary["count"] == 5
        assert summary["min"] == 1.0
        assert summary["max"] == 20.0
        assert summary["mean"] == pytest.approx(36.0 / 5)

    def test_overflow_merge_is_deterministic_and_bounded(self):
        def build():
            a = Histogram(reservoir_size=8)
            b = Histogram(reservoir_size=8)
            for i in range(20):
                a.observe(float(i))
            for i in range(30):
                b.observe(float(100 + i))
            a.merge_state(b.to_state())
            return a

        first, second = build(), build()
        assert first.to_state() == second.to_state()
        assert len(first.to_state()["reservoir"]) <= 8
        summary = first.summary()
        assert summary["count"] == 50
        assert summary["min"] == 0.0
        assert summary["max"] == 129.0

    def test_merge_into_empty_histogram(self):
        target = Histogram(reservoir_size=4)
        source = Histogram(reservoir_size=4)
        for value in (5.0, 6.0):
            source.observe(value)
        target.merge_state(source.to_state())
        assert target.summary()["count"] == 2
        assert target.summary()["mean"] == pytest.approx(5.5)


class TestHardReset:
    def test_abandons_open_spans_and_drops_sinks(self):
        recorder = Recorder(enabled=True)
        recorder.add_sink(object())
        live = recorder.span("stuck")
        live.__enter__()
        recorder.hard_reset()
        assert recorder._stack == []
        assert recorder._sinks == []
        assert recorder.spans == []
        assert not recorder.enabled

    def test_keep_sinks(self):
        recorder = Recorder(enabled=True)
        sentinel = object()
        recorder.add_sink(sentinel)
        recorder.hard_reset(keep_sinks=True)
        assert recorder._sinks == [sentinel]


class TestExecuteChunk:
    """The worker entry point returns a snapshot only for recorded units."""

    def test_snapshot_when_recording(self):
        outcomes = jobs.execute_chunk([(0, "probe", {"x": 3.0}, True)])
        _, result, snapshot = outcomes[0]
        assert result == 9.0
        assert snapshot["counters"] == {"parallel.probe_calls": 1}
        assert [span["name"] for span in snapshot["spans"]] == ["probe"]

    def test_no_snapshot_at_all_without_record_obs(self):
        outcomes = jobs.execute_chunk([(0, "probe", {"x": 2.0}, False)])
        _, result, snapshot = outcomes[0]
        assert result == 4.0
        assert snapshot is None
