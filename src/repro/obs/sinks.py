"""Event sinks for the observability recorder.

A sink receives every completed span as it closes (``on_span``) and the
counter/gauge totals at flush time (``on_flush``).  Two implementations
ship with the subsystem: an in-memory event list (tests, programmatic
consumers) and a JSONL file writer whose output ``python -m repro
stats`` replays into summary tables.  :class:`JsonlAppender` is the
append-only, thread-safe JSONL writer behind the live event stream and
the serve access log.

JSONL event schema (one JSON object per line; see
``docs/OBSERVABILITY.md``):

* ``{"type": "meta", "schema_version": 3}`` — always the first line;
* ``{"type": "span", "index", "parent", "depth", "name", "params",
  "start_s", "duration_s", "track"}`` — one per completed span
  (``track`` is ``null`` for in-process spans, a work-unit id for
  spans grafted from a parallel worker snapshot);
* ``{"type": "counter", "name", "value"}`` and
  ``{"type": "counter", "name", "key", "value"}`` (keyed) — at flush;
* ``{"type": "gauge", "name", "value"}`` — at flush;
* ``{"type": "hist", "name", "count", "sum", "min", "max", "mean",
  "p50", "p90", "p99"}`` — one per histogram at flush;
* ``{"type": "timer", ...}`` — same shape, values in seconds.
"""

from __future__ import annotations

import json
import pathlib
import threading
from typing import Any, Dict, List, Union

from .recorder import Recorder, SCHEMA_VERSION, SpanRecord


def counter_events(recorder: Recorder) -> List[Dict[str, Any]]:
    """The recorder's counter/gauge totals as event dicts."""
    events: List[Dict[str, Any]] = []
    for name, value in sorted(recorder.counters.items()):
        events.append({"type": "counter", "name": name, "value": value})
    for name, bucket in sorted(recorder.keyed_counters.items()):
        for key, value in sorted(bucket.items()):
            events.append(
                {"type": "counter", "name": name, "key": key, "value": value}
            )
    for name, value in sorted(recorder.gauges.items()):
        events.append({"type": "gauge", "name": name, "value": value})
    for name, histogram in sorted(recorder.histograms.items()):
        events.append({"type": "hist", "name": name, **histogram.summary()})
    for name, histogram in sorted(recorder.timers.items()):
        events.append({"type": "timer", "name": name, **histogram.summary()})
    return events


class Sink:
    """Sink interface; both hooks default to doing nothing."""

    def on_span(self, record: SpanRecord) -> None:
        """Called once per completed span."""

    def on_flush(self, recorder: Recorder) -> None:
        """Called with the recorder when totals are flushed."""


class InMemorySink(Sink):
    """Accumulates event dicts in ``self.events``."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def on_span(self, record: SpanRecord) -> None:
        self.events.append(record.to_dict())

    def on_flush(self, recorder: Recorder) -> None:
        self.events.extend(counter_events(recorder))


class JsonlSink(Sink):
    """Streams events to a JSONL file, one JSON object per line."""

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        if self.path.parent != pathlib.Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")
        self._write({"type": "meta", "schema_version": SCHEMA_VERSION})

    def _write(self, event: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(event, sort_keys=True, default=str) + "\n")

    def on_span(self, record: SpanRecord) -> None:
        self._write(record.to_dict())

    def on_flush(self, recorder: Recorder) -> None:
        for event in counter_events(recorder):
            self._write(event)
        self._handle.flush()

    def close(self) -> None:
        """Flush buffers and close the file handle."""
        if not self._handle.closed:
            self._handle.close()


class JsonlAppender:
    """Append-only JSONL writer: one locked, flushed line per document.

    Unlike :class:`JsonlSink` this opens in append mode (an interrupted
    run's lines survive a retry into the same file) and serializes
    writes under a lock, so several threads can share one file.  Every
    line is flushed as it is written: a log that loses its tail on a
    crash is useless exactly when it matters.  Writes after
    :meth:`close` are dropped.  The live event stream (``--live-out``)
    and the serve access log (``--access-log``) both write through it.
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        if self.path.parent != pathlib.Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()

    def write(self, document: Dict[str, Any]) -> None:
        line = json.dumps(document, sort_keys=True, default=str)
        with self._lock:
            if not self._handle.closed:
                self._handle.write(line + "\n")
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "JsonlAppender":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False
