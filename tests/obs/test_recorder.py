"""Tests for the observability recorder: spans, counters, no-op guarantee."""

import pytest

from repro import obs
from repro.obs import InMemorySink, Recorder
from repro.obs.recorder import NULL_SPAN, SpanRecord
from tests.obs.span_sources import span_sources


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestDisabledIsNoOp:
    def test_span_returns_shared_null_context(self):
        recorder = Recorder()
        assert recorder.span("anything", key=1) is NULL_SPAN
        assert recorder.span("other") is NULL_SPAN

    def test_nothing_is_recorded(self):
        recorder = Recorder()
        with recorder.span("phase"):
            recorder.incr("counter", 5)
            recorder.incr_keyed("keyed", "a", 2)
            recorder.gauge("gauge", 7)
        assert recorder.spans == []
        assert recorder.counters == {}
        assert recorder.keyed_counters == {}
        assert recorder.gauges == {}

    def test_global_recorder_disabled_by_default(self):
        assert obs.is_enabled() is False


class TestSpans:
    def test_nesting_records_parent_and_depth(self):
        recorder = Recorder(enabled=True, clock=FakeClock())
        with recorder.span("outer"):
            with recorder.span("inner", side="left"):
                pass
            with recorder.span("inner", side="right"):
                pass
        outer, left, right = recorder.spans
        assert (outer.name, outer.parent, outer.depth) == ("outer", None, 0)
        assert (left.parent, left.depth) == (outer.index, 1)
        assert (right.parent, right.depth) == (outer.index, 1)
        assert left.params == {"side": "left"}

    def test_durations_come_from_the_clock(self):
        recorder = Recorder(enabled=True, clock=FakeClock(step=1.0))
        with recorder.span("timed"):
            pass
        # Clock reads: start=0, end=1.
        assert recorder.spans[0].duration_s == pytest.approx(1.0)

    def test_span_closes_on_exception(self):
        recorder = Recorder(enabled=True, clock=FakeClock())
        with pytest.raises(RuntimeError):
            with recorder.span("failing"):
                raise RuntimeError("boom")
        assert recorder.spans[0].duration_s > 0
        with recorder.span("after"):
            pass
        assert recorder.spans[1].depth == 0

    def test_aggregates_by_name(self):
        recorder = Recorder(enabled=True, clock=FakeClock())
        for _ in range(3):
            with recorder.span("repeat"):
                pass
        count, total = recorder.span_aggregates()["repeat"]
        assert count == 3
        assert total == pytest.approx(3.0)

    def test_tree_render_merges_siblings(self):
        recorder = Recorder(enabled=True, clock=FakeClock())
        with recorder.span("root"):
            with recorder.span("child"):
                pass
            with recorder.span("child"):
                pass
        text = recorder.render_span_tree()
        assert "root" in text
        assert "child x2" in text

    def test_empty_tree_renders_placeholder(self):
        assert "no spans" in Recorder(enabled=True).render_span_tree()


class TestSpanTreeAccessors:
    def _recorder(self):
        recorder = Recorder(enabled=True, clock=FakeClock())
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        with recorder.span("second"):
            pass
        return recorder

    def test_span_children_is_the_adjacency_view(self):
        recorder = self._recorder()
        outer, inner, second = recorder.spans
        children = recorder.span_children()
        assert children[None] == [outer, second]
        assert children[outer.index] == [inner]

    def test_root_spans_are_the_parentless_records(self):
        recorder = self._recorder()
        assert [record.name for record in recorder.root_spans()] == [
            "outer",
            "second",
        ]

    def test_local_spans_live_on_the_in_process_track(self):
        recorder = self._recorder()
        assert all(record.track is None for record in recorder.spans)
        assert recorder.span_tracks() == [None]

    def test_to_dict_carries_the_track_field(self):
        recorder = self._recorder()
        event = recorder.spans[0].to_dict()
        assert "track" in event
        assert event["track"] is None

    def test_from_dict_round_trips(self):
        for label, records in span_sources():
            for record in records:
                event = record.to_dict()
                again = SpanRecord.from_dict(event)
                assert isinstance(again, SpanRecord)
                assert again.to_dict() == event, label
        assert any(
            record.track == "unit/1" for record in span_sources()[0][1]
        )

    def test_from_dict_defaults_optional_keys(self):
        record = SpanRecord.from_dict({"index": 2, "parent": 0, "name": "x"})
        assert (record.depth, record.params, record.track) == (0, {}, None)
        assert (record.start_s, record.duration_s) == (0.0, 0.0)


class TestCountersAndGauges:
    def test_incr_accumulates(self):
        recorder = Recorder(enabled=True)
        recorder.incr("bits", 8)
        recorder.incr("bits", 4)
        assert recorder.counters["bits"] == 12

    def test_keyed_counters_accumulate_per_key(self):
        recorder = Recorder(enabled=True)
        recorder.incr_keyed("edge_bits", "a->b", 3)
        recorder.incr_keyed("edge_bits", "a->b", 2)
        recorder.incr_keyed("edge_bits", "b->a", 1)
        assert recorder.keyed_counters["edge_bits"] == {"a->b": 5, "b->a": 1}

    def test_gauge_last_write_wins(self):
        recorder = Recorder(enabled=True)
        recorder.gauge("nodes", 10)
        recorder.gauge("nodes", 20)
        assert recorder.gauges["nodes"] == 20

    def test_summary_renders_tables(self):
        recorder = Recorder(enabled=True, clock=FakeClock())
        with recorder.span("phase"):
            recorder.incr("congest.bits", 42)
            recorder.gauge("width", 3)
            recorder.incr_keyed("edge", "u->v", 9)
        text = recorder.render_summary()
        assert "Spans" in text
        assert "congest.bits" in text
        assert "42" in text
        assert "u->v" in text


class TestLifecycle:
    def test_reset_refuses_open_spans(self):
        recorder = Recorder(enabled=True)
        span = recorder.span("open")
        span.__enter__()
        with pytest.raises(RuntimeError):
            recorder.reset()
        span.__exit__(None, None, None)
        recorder.reset()
        assert recorder.spans == []

    def test_sinks_receive_spans_and_flush(self):
        recorder = Recorder(enabled=True, clock=FakeClock())
        sink = InMemorySink()
        recorder.add_sink(sink)
        with recorder.span("observed"):
            recorder.incr("count", 1)
        recorder.flush()
        types = [event["type"] for event in sink.events]
        assert types == ["span", "counter"]
        assert sink.events[0]["name"] == "observed"

    def test_recording_context_enables_and_restores(self):
        recorder = obs.get_recorder()
        assert not recorder.enabled
        with obs.recording() as active:
            assert active is recorder
            assert recorder.enabled
            recorder.incr("inside", 1)
        assert not recorder.enabled
        # Data survives the block for rendering...
        assert recorder.counters["inside"] == 1
        # ...and the next recording block starts clean.
        with obs.recording():
            pass
        assert recorder.counters == {}
