"""Event sinks and the one JSONL writer behind every observability stream.

A sink receives every completed span as it closes (``on_span``) and the
counter/gauge totals at flush time (``on_flush``): an in-memory event
list (tests, programmatic consumers) or :class:`JsonlSink`, an events
file that ``python -m repro stats`` replays into summary tables.

:class:`JsonlAppender` writes all three JSONL streams — the events file
(``--profile-json``), ``live.jsonl`` (``--live-out``) and the serve
access log (``--access-log``) — and opens every session with the one
envelope header :func:`meta_line` builds (``schema_version`` 4, see
``docs/OBSERVABILITY.md``):
``{"type": "meta", "schema_version", "stream": "events"|"live"|"access",
"command", "unix_s", "provenance"}``.  The events stream's records:

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

The live records are listed in :mod:`repro.obs.live`, the access
records in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from typing import Any, Dict, List, Optional, Union

from .manifest import run_provenance
from .recorder import Recorder, SCHEMA_VERSION, SpanRecord


def meta_line(stream: str, command: Optional[str] = None) -> Dict[str, Any]:
    """The envelope header that opens every JSONL session."""
    return {
        "type": "meta",
        "schema_version": SCHEMA_VERSION,
        "stream": stream,
        "command": command,
        "unix_s": round(time.time(), 3),
        "provenance": run_provenance(),
    }


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


class JsonlAppender:
    """The JSONL writer: a :func:`meta_line` header, then one locked,
    flushed line per document.

    The lock lets several threads share one file; flushing every line
    keeps the tail of a crashed run.  Writes after :meth:`close` are
    dropped.  ``append`` keeps earlier sessions (``live.jsonl``, the
    access log).  Events files truncate: span ``index``/``parent`` ids
    restart with each recording, so two sessions in one file would
    corrupt ``repro stats --trace-out``.
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        stream: str,
        command: Optional[str] = None,
        append: bool = True,
    ) -> None:
        self.path = pathlib.Path(path)
        if self.path.parent != pathlib.Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a" if append else "w", encoding="utf-8")
        self._lock = threading.Lock()
        self.write(meta_line(stream, command))

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


class JsonlSink(Sink):
    """Streams recorder events to a truncated ``events`` JSONL file."""

    def __init__(
        self, path: Union[str, pathlib.Path], command: Optional[str] = None
    ) -> None:
        self._writer = JsonlAppender(path, "events", command, append=False)

    def on_span(self, record: SpanRecord) -> None:
        self._writer.write(record.to_dict())

    def on_flush(self, recorder: Recorder) -> None:
        for event in counter_events(recorder):
            self._writer.write(event)

    def close(self) -> None:
        """Close the file; later events are dropped."""
        self._writer.close()
