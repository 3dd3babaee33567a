"""repro.obs — the zero-dependency instrumentation subsystem.

Hierarchical spans, named counters/gauges, pluggable sinks, and run
manifests for every layer of the reproduction: the CONGEST simulator
counts rounds/messages/bits, the MaxIS solvers count expanded nodes,
the field layer counts multiplications, and the experiment pipelines
wrap each phase (build -> sample -> solve -> check -> cut) in a span.

One process-wide :class:`~repro.obs.recorder.Recorder` is shared by all
instrumented code and is **disabled by default**: hot paths pay a single
attribute check when observability is off.  Turn it on around a region
of interest::

    from repro import obs

    with obs.recording(jsonl_path="events.jsonl") as recorder:
        run_reproduction_suite(max_t=2, num_samples=1)
    print(recorder.render_span_tree())
    print(recorder.render_summary())

or from the CLI with ``python -m repro report --profile``; replay a
JSONL event file later with ``python -m repro stats events.jsonl``.
Naming conventions and the event schema live in
``docs/OBSERVABILITY.md``.

The *live* telemetry plane (:mod:`repro.obs.live` +
:mod:`repro.obs.httpexp`) layers streaming progress, worker
heartbeats, a stall watchdog, and a scrapeable Prometheus ``/metrics``
endpoint on top of the recorder — see the "Live monitoring" section
of ``docs/OBSERVABILITY.md`` and the ``--live`` / ``--metrics-port``
CLI flags.
"""

from __future__ import annotations

import contextlib
import pathlib
from typing import Iterator, Optional, Union

from .deepprof import (
    DEEPPROF_SCHEMA_VERSION,
    DEFAULT_HZ,
    DeepProfiler,
    _clear_ambient_profiler,
    critical_path,
    folded_lines,
    get_profiler,
    render_critical_path,
    span_folded,
    structural_span_keys,
    using_profiler,
    write_artifacts,
)
from .export import (
    chrome_trace,
    trace_events,
    trace_from_events,
    trace_from_recorder,
    write_chrome_trace,
)
from .flame import flamegraph_svg, folded_from_spans, parse_folded
from .httpexp import (
    MetricsSuite,
    render_prometheus,
    sanitize_metric_name,
)
from .live import (
    LIVE_SCHEMA_VERSION,
    LiveMonitor,
    _clear_ambient_monitor,
    get_monitor,
    using_monitor,
)
from .manifest import (
    build_manifest,
    ensure_json_native,
    load_manifest,
    run_provenance,
    write_manifest,
)
from .metrics import Histogram, summarize
from .recorder import (
    NULL_SPAN,
    Recorder,
    SCHEMA_VERSION,
    SpanRecord,
    register_hard_reset_hook,
)
from .reqtrace import (
    TRACE_SCHEMA_VERSION,
    RequestTrace,
    TraceBuffer,
    TraceContext,
    current_trace,
    format_traceparent,
    mint_span_id,
    mint_trace_id,
    parse_traceparent,
    using_trace,
)
from .sinks import InMemorySink, JsonlSink, Sink, counter_events
from .stats import load_events, load_events_tolerant, render_stats, render_stats_file

#: The process-wide recorder every instrumented module binds at import.
#: It is never replaced (so module-level references stay live); enable
#: and disable it instead.
_RECORDER = Recorder()

# A forked pool worker inherits the parent's ambient live monitor; its
# jsonl handle and threads belong to the parent, so a worker's
# hard_reset must drop the reference along with the recorder state.
register_hard_reset_hook(_clear_ambient_monitor)

# Same story for the ambient deep profiler: its sampling thread did
# not survive the fork, and workers run their own per-unit profilers
# armed through the pool initializer instead.
register_hard_reset_hook(_clear_ambient_profiler)


def get_recorder() -> Recorder:
    """Return the process-wide recorder."""
    return _RECORDER


def enable() -> Recorder:
    """Turn the process-wide recorder on; returns it for chaining."""
    _RECORDER.enabled = True
    return _RECORDER


def disable() -> Recorder:
    """Turn the process-wide recorder off; recorded data is kept."""
    _RECORDER.enabled = False
    return _RECORDER


def is_enabled() -> bool:
    """Whether the process-wide recorder is currently recording."""
    return _RECORDER.enabled


@contextlib.contextmanager
def recording(
    jsonl_path: Optional[Union[str, pathlib.Path]] = None,
    reset: bool = True,
) -> Iterator[Recorder]:
    """Enable the process-wide recorder for the duration of a block.

    Resets previously recorded data first (pass ``reset=False`` to
    accumulate), optionally streams events to ``jsonl_path``, and on
    exit restores the previous enabled state and flushes counter totals
    to the sinks.  The recorded data stays available on the yielded
    recorder after the block for rendering.
    """
    recorder = _RECORDER
    previous = recorder.enabled
    if reset:
        recorder.reset()
    sink = None
    if jsonl_path is not None:
        sink = JsonlSink(jsonl_path)
        recorder.add_sink(sink)
    recorder.enabled = True
    try:
        yield recorder
    finally:
        recorder.enabled = previous
        recorder.flush()
        if sink is not None:
            recorder.remove_sink(sink)
            sink.close()


__all__ = [
    "DEEPPROF_SCHEMA_VERSION",
    "DEFAULT_HZ",
    "DeepProfiler",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "LIVE_SCHEMA_VERSION",
    "LiveMonitor",
    "MetricsSuite",
    "NULL_SPAN",
    "Recorder",
    "RequestTrace",
    "SCHEMA_VERSION",
    "Sink",
    "SpanRecord",
    "TRACE_SCHEMA_VERSION",
    "TraceBuffer",
    "TraceContext",
    "build_manifest",
    "chrome_trace",
    "counter_events",
    "critical_path",
    "current_trace",
    "disable",
    "enable",
    "ensure_json_native",
    "flamegraph_svg",
    "folded_from_spans",
    "folded_lines",
    "format_traceparent",
    "get_monitor",
    "get_profiler",
    "get_recorder",
    "is_enabled",
    "load_events",
    "load_events_tolerant",
    "load_manifest",
    "mint_span_id",
    "mint_trace_id",
    "parse_folded",
    "parse_traceparent",
    "recording",
    "register_hard_reset_hook",
    "render_critical_path",
    "render_prometheus",
    "render_stats",
    "render_stats_file",
    "run_provenance",
    "sanitize_metric_name",
    "span_folded",
    "structural_span_keys",
    "summarize",
    "trace_events",
    "trace_from_events",
    "trace_from_recorder",
    "using_monitor",
    "using_trace",
    "using_profiler",
    "write_artifacts",
    "write_chrome_trace",
    "write_manifest",
]
