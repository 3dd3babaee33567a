"""Unit tests for the request-tracing core (repro.obs.reqtrace)."""

import json

import pytest

from repro.obs.export import chrome_trace, dump_trace
from repro.obs.recorder import Recorder
from repro.obs.reqtrace import (
    RequestTrace,
    TraceBuffer,
    current_trace,
    format_traceparent,
    mint_span_id,
    mint_trace_id,
    parse_traceparent,
    using_trace,
)

VALID_TRACE_ID = "af" * 16
VALID_SPAN_ID = "b7" * 8
VALID = f"00-{VALID_TRACE_ID}-{VALID_SPAN_ID}-01"


class TestParseTraceparent:
    def test_valid_header_parses(self):
        context = parse_traceparent(VALID)
        assert context is not None
        assert context.trace_id == VALID_TRACE_ID
        assert context.span_id == VALID_SPAN_ID
        assert context.sampled is True

    def test_unsampled_flags(self):
        context = parse_traceparent(f"00-{VALID_TRACE_ID}-{VALID_SPAN_ID}-00")
        assert context is not None
        assert context.sampled is False

    def test_surrounding_whitespace_tolerated(self):
        assert parse_traceparent(f"  {VALID}  ") is not None

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00",
            f"00-{VALID_TRACE_ID}",
            f"00-{VALID_TRACE_ID}-{VALID_SPAN_ID}",  # missing flags
            f"00-{VALID_TRACE_ID}-{VALID_SPAN_ID}-01-extra",
            f"01-{VALID_TRACE_ID}-{VALID_SPAN_ID}-01",  # wrong version
            f"ff-{VALID_TRACE_ID}-{VALID_SPAN_ID}-01",
            f"00-{VALID_TRACE_ID[:-2]}-{VALID_SPAN_ID}-01",  # truncated trace
            f"00-{VALID_TRACE_ID}-{VALID_SPAN_ID[:-2]}-01",  # truncated span
            f"00-{VALID_TRACE_ID.upper()}-{VALID_SPAN_ID}-01",  # uppercase
            f"00-{'g' * 32}-{VALID_SPAN_ID}-01",  # non-hex
            f"00-{'0' * 32}-{VALID_SPAN_ID}-01",  # all-zero trace id
            f"00-{VALID_TRACE_ID}-{'0' * 16}-01",  # all-zero span id
            f"00-{VALID_TRACE_ID}-{VALID_SPAN_ID}-0",  # short flags
            f"00-{VALID_TRACE_ID}-{VALID_SPAN_ID}-zz",  # non-hex flags
        ],
    )
    def test_malformed_headers_return_none(self, header):
        assert parse_traceparent(header) is None

    def test_format_round_trips(self):
        header = format_traceparent(VALID_TRACE_ID, VALID_SPAN_ID)
        context = parse_traceparent(header)
        assert (context.trace_id, context.span_id) == (
            VALID_TRACE_ID,
            VALID_SPAN_ID,
        )

    def test_minted_ids_parse(self):
        header = format_traceparent(mint_trace_id(), mint_span_id())
        assert parse_traceparent(header) is not None


def _assert_well_formed(spans):
    """Index is position, the root is 0, parents precede their children."""
    assert [span.index for span in spans] == list(range(len(spans)))
    assert spans[0].name == "request" and spans[0].parent is None
    for span in spans[1:]:
        assert 0 <= span.parent < span.index
        assert span.depth == spans[span.parent].depth + 1


class TestRequestTrace:
    def test_root_span_and_finish(self):
        trace = RequestTrace(endpoint="GET /health", method="GET", path="/health")
        trace.finish(status=200, disposition="cache_hit")
        assert trace.status == 200
        assert trace.disposition == "cache_hit"
        assert trace.spans[0].name == "request"
        assert trace.spans[0].index == 0
        assert trace.spans[0].params["status"] == 200
        assert len(trace.root_span_id) == 16
        assert not trace.is_error

    def test_finish_is_idempotent(self):
        trace = RequestTrace()
        trace.finish(status=200)
        trace.finish(status=500, error="late")
        assert trace.status == 200
        assert trace.error is None

    def test_child_spans_default_to_root_parent(self):
        trace = RequestTrace()
        with trace.span("store.lookup") as span:
            span.params["outcome"] = "miss"
        record = trace.spans[-1]
        assert record.parent == 0
        assert record.depth == 1
        assert record.params["outcome"] == "miss"
        assert record.duration_s >= 0.0

    def test_explicit_parent_nesting(self):
        trace = RequestTrace()
        with trace.span("execute.maxis_solve") as outer:
            inner = trace.add_span(
                "maxis.exact.search", start_s=0.0, duration_s=0.5,
                parent=outer.index,
            )
        assert trace.spans[inner].parent == outer.index
        assert trace.spans[inner].depth == 2
        _assert_well_formed(trace.spans)

    def test_adopt_rebases_recorder_spans(self):
        ticks = iter(range(100))
        recorder = Recorder(enabled=True, clock=lambda: float(next(ticks)))
        with recorder.span("earlier"):
            pass
        with recorder.span("serve.gadget_graph"):
            with recorder.span("outer", a=1):
                with recorder.span("inner"):
                    pass
            with recorder.span("sibling"):
                pass
        trace = RequestTrace()
        trace.add_span("dispatch.queue", start_s=0.0, duration_s=0.1)
        with trace.span("execute.gadget_graph") as execute:
            assert trace.adopt(recorder.spans[2:], parent=execute.index) == 3
        _assert_well_formed(trace.spans)
        by_name = {span.name: span for span in trace.spans}
        assert by_name["outer"].parent == execute.index
        assert by_name["inner"].parent == by_name["outer"].index
        assert by_name["sibling"].parent == execute.index
        assert by_name["outer"].params == {"a": 1}
        assert by_name["inner"].start_s == recorder.spans[3].start_s
        # The recorder's own records keep their indices.
        assert [r.index for r in recorder.spans] == [0, 1, 2, 3, 4]
        assert trace.adopt([], parent=0) == 0

    def test_span_total_ms_matches_prefix(self):
        trace = RequestTrace()
        trace.add_span("dispatch.queue", start_s=0.0, duration_s=0.25)
        assert trace.span_total_ms("dispatch.queue") == pytest.approx(250.0)
        assert trace.span_total_ms("missing") is None

    def test_links_surface_in_summary_and_document(self):
        trace = RequestTrace()
        trace.link("ab" * 16, "cd" * 8, "coalesced_with")
        trace.finish(status=200)
        assert trace.summary()["links"] == [
            {"trace_id": "ab" * 16, "span_id": "cd" * 8,
             "relation": "coalesced_with"}
        ]
        assert trace.to_document()["links"] == trace.summary()["links"]

    def test_document_spans_are_span_events(self):
        trace = RequestTrace()
        with trace.span("store.lookup", key="k"):
            pass
        trace.finish(status=200)
        document = trace.to_document()
        assert document["trace_schema_version"] == 2
        assert document["spans"] == [span.to_dict() for span in trace.spans]
        assert document["spans"][1]["parent"] == 0
        assert document["spans"][1]["params"] == {"key": "k"}

    def test_is_error_classification(self):
        errored = RequestTrace()
        errored.finish(status=500, error="boom")
        assert errored.is_error
        client_error = RequestTrace()
        client_error.finish(status=404)
        assert not client_error.is_error

    def test_span_events_are_chrome_exportable_and_deterministic(self):
        trace = RequestTrace(endpoint="POST /v1/maxis", method="POST",
                             path="/v1/maxis")
        with trace.span("execute.maxis_solve"):
            pass
        trace.finish(status=200, disposition="computed")
        one = dump_trace(chrome_trace(trace.spans))
        two = dump_trace(chrome_trace(trace.spans))
        assert one == two
        # The served document's span events export to the same bytes.
        assert dump_trace(chrome_trace(trace.to_document()["spans"])) == one
        document = json.loads(one)
        names = [e["name"] for e in document["traceEvents"] if e["ph"] == "X"]
        assert "request" in names and "execute.maxis_solve" in names


class TestAmbientContext:
    def test_current_trace_defaults_to_none(self):
        assert current_trace() is None

    def test_using_trace_binds_and_restores(self):
        trace = RequestTrace()
        with using_trace(trace):
            assert current_trace() is trace
            with using_trace(None):
                assert current_trace() is None
            assert current_trace() is trace
        assert current_trace() is None


def _finished(duration_ms=1.0, status=200, error=None):
    trace = RequestTrace()
    trace._root.duration_s = duration_ms / 1000.0
    trace._finished = True
    trace.status = status
    trace.error = error
    return trace


class TestTraceBuffer:
    def test_lookup_by_id(self):
        buffer = TraceBuffer(capacity=4, slow_ms=100.0)
        trace = _finished()
        buffer.admit(trace)
        assert buffer.get(trace.trace_id) is trace
        assert buffer.get("nope" * 8) is None

    def test_routine_traffic_cannot_evict_interesting(self):
        buffer = TraceBuffer(capacity=2, slow_ms=100.0)
        slow = _finished(duration_ms=250.0)
        errored = _finished(status=500)
        buffer.admit(slow)
        buffer.admit(errored)
        for _ in range(50):
            buffer.admit(_finished(duration_ms=1.0))
        assert buffer.get(slow.trace_id) is slow
        assert buffer.get(errored.trace_id) is errored
        stats = buffer.stats()
        assert stats["routine"] == 2
        assert stats["interesting"] == 2
        assert stats["evicted"] == 48

    def test_interesting_tier_is_bounded_too(self):
        buffer = TraceBuffer(capacity=3, slow_ms=0.0)  # everything is slow
        traces = [_finished(duration_ms=10.0) for _ in range(5)]
        for trace in traces:
            buffer.admit(trace)
        assert buffer.get(traces[0].trace_id) is None
        assert buffer.get(traces[-1].trace_id) is traces[-1]

    def test_summaries_newest_first(self):
        buffer = TraceBuffer(capacity=8)
        first, second = _finished(), _finished()
        second.started_unix_s = first.started_unix_s + 10.0
        buffer.admit(first)
        buffer.admit(second)
        ids = [s["trace_id"] for s in buffer.summaries()]
        assert ids == [second.trace_id, first.trace_id]
        assert len(buffer.summaries(limit=1)) == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)
