"""Span trees from both producers, for tests of the span consumers.

Every consumer of spans (Chrome export, folded stacks, critical path)
takes :class:`~repro.obs.recorder.SpanRecord` objects or their event
dicts.  :func:`span_sources` returns one tree from each producer: the
recorder (including a merged worker snapshot on its own track) and a
request trace with recorder spans adopted under its execute span.
"""

from repro.obs.recorder import Recorder
from repro.obs.reqtrace import RequestTrace


class _StepClock:
    """Each read advances by 0.25 s, so every span has nonzero time."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.25
        return self.now


def recorded_spans():
    worker = Recorder(enabled=True, clock=_StepClock())
    with worker.span("unit", seed=3):
        with worker.span("solve"):
            pass
    recorder = Recorder(enabled=True, clock=_StepClock())
    with recorder.span("outer", phase="build"):
        with recorder.span("inner"):
            pass
        recorder.merge_snapshot(worker.snapshot(), track="unit/1")
    return recorder.spans


def request_trace_spans():
    trace = RequestTrace(endpoint="POST /v1/maxis", method="POST", path="/v1/maxis")
    with trace.span("store.lookup") as lookup:
        lookup.params["outcome"] = "miss"
    with trace.span("execute.maxis_solve", kind="maxis_solve") as execute:
        trace.adopt(recorded_spans(), parent=execute.index)
    trace.finish(status=200, disposition="computed")
    return trace.spans


def span_sources():
    """``[(label, records)]``, one tree per span producer."""
    return [("recorder", recorded_spans()), ("request_trace", request_trace_spans())]
