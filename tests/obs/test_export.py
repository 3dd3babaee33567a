"""Tests for the Chrome-trace/Perfetto export of recorded span trees."""

import json

import pytest

from repro.obs import Recorder
from repro.obs.export import (
    MAIN_PID,
    chrome_trace,
    dump_trace,
    trace_events,
    trace_from_events,
    trace_from_recorder,
    write_chrome_trace,
)
from tests.obs.span_sources import span_sources


class FakeClock:
    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def _recorded():
    recorder = Recorder(enabled=True, clock=FakeClock())
    with recorder.span("outer", phase="build"):
        with recorder.span("inner"):
            pass
    return recorder


class TestTraceEvents:
    def test_one_complete_event_per_span(self):
        recorder = _recorded()
        events = trace_events(recorder.spans)
        complete = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in complete] == ["outer", "inner"]

    def test_metadata_rows_come_first(self):
        events = trace_events(_recorded().spans, trace_name="run")
        metadata = [e for e in events if e["ph"] == "M"]
        assert events[: len(metadata)] == metadata
        names = {
            e["pid"]: e["args"]["name"]
            for e in metadata
            if e["name"] == "process_name"
        }
        assert names == {MAIN_PID: "run"}

    def test_timestamps_and_durations_in_microseconds(self):
        events = trace_events(_recorded().spans)
        outer = next(e for e in events if e["name"] == "outer")
        # FakeClock: outer opens at t=0s and closes at t=3s.
        assert outer["ts"] == 0.0
        assert outer["dur"] == 3_000_000.0

    def test_export_is_lossless(self):
        recorder = _recorded()
        events = trace_events(recorder.spans)
        inner = next(e for e in events if e["name"] == "inner")
        outer = next(e for e in events if e["name"] == "outer")
        assert inner["args"]["repro.parent"] == outer["args"]["repro.index"]
        assert inner["args"]["repro.depth"] == 1
        assert outer["args"]["phase"] == "build"

    def test_every_event_has_pid_and_tid(self):
        for event in trace_events(_recorded().spans):
            assert {"ph", "name", "pid", "tid"} <= set(event)


class TestWorkerTracks:
    def _merged(self):
        worker_a = Recorder(enabled=True, clock=FakeClock())
        with worker_a.span("unit"):
            pass
        worker_b = Recorder(enabled=True, clock=FakeClock())
        with worker_b.span("unit"):
            pass
        parent = Recorder(enabled=True, clock=FakeClock())
        with parent.span("sweep"):
            pass
        parent.merge_snapshot(worker_a.snapshot(), track="sweep/seed=0")
        parent.merge_snapshot(worker_b.snapshot(), track="sweep/seed=1")
        return parent

    def test_each_track_gets_its_own_pid(self):
        events = trace_events(self._merged().spans)
        names = {
            e["args"]["name"]: e["pid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names["sweep/seed=0"] != names["sweep/seed=1"]
        assert names["repro"] == MAIN_PID

    def test_in_process_spans_stay_on_the_main_track(self):
        events = trace_events(self._merged().spans)
        sweep = next(e for e in events if e["ph"] == "X" and e["name"] == "sweep")
        assert sweep["pid"] == MAIN_PID

    def test_pid_assignment_is_first_appearance_order(self):
        spans = self._merged().spans
        pids = [e["pid"] for e in trace_events(spans) if e["ph"] == "X"]
        assert pids == sorted(pids)


class TestDocumentsAndFiles:
    def test_chrome_trace_document_shape(self):
        trace = chrome_trace(_recorded().spans)
        assert set(trace) == {"displayTimeUnit", "traceEvents"}
        assert trace["displayTimeUnit"] == "ms"

    def test_trace_from_recorder_matches_chrome_trace(self):
        recorder = _recorded()
        assert trace_from_recorder(recorder) == chrome_trace(recorder.spans)

    def test_trace_from_events_skips_non_span_lines(self):
        events = [
            {"type": "meta", "schema_version": 3},
            {
                "type": "span",
                "index": 0,
                "parent": None,
                "depth": 0,
                "name": "phase",
                "params": {},
                "start_s": 1.0,
                "duration_s": 0.5,
                "track": None,
            },
            {"type": "counter", "name": "n", "value": 2},
        ]
        trace = trace_from_events(events)
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in complete] == ["phase"]

    def test_dump_is_byte_deterministic(self):
        recorder = _recorded()
        assert dump_trace(chrome_trace(recorder.spans)) == dump_trace(
            chrome_trace(recorder.spans)
        )
        for label, records in span_sources():
            # Records and their event dicts export to the same bytes.
            events = [record.to_dict() for record in records]
            assert dump_trace(chrome_trace(records)) == dump_trace(
                chrome_trace(events)
            ), label

    def test_write_chrome_trace_emits_valid_json(self, tmp_path):
        path = write_chrome_trace(tmp_path / "trace.json", _recorded().spans)
        trace = json.loads(path.read_text())
        assert trace["traceEvents"]

    def test_write_creates_parent_directories(self, tmp_path):
        path = write_chrome_trace(
            tmp_path / "nested" / "dir" / "trace.json", _recorded().spans
        )
        assert path.exists()
