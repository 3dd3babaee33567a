"""Per-request trace contexts, span trees, and tail-based retention.

The serve subsystem's aggregate counters (``serve.requests``,
``serve.request_ms``) answer "how is the service doing" but not "what
happened to *this* request".  This module is the per-request half of
the observability plane: every HTTP request gets a **trace** — a W3C
``traceparent``-compatible context (accepted from the client when the
header parses, freshly minted otherwise) plus a thread-safe span tree
recording where the request's wall time went (dispatch queueing, store
lookups, the solver itself) — and completed traces are retained in a
bounded ring buffer with *tail-based sampling* that always keeps the
interesting ones (slow or errored) even under traffic that would
otherwise evict them.

Three cooperating pieces:

:class:`TraceContext` / :func:`parse_traceparent`
    Strict W3C trace-context parsing.  Anything malformed — wrong
    version, truncated ids, all-zero ids, bad hex — yields ``None``
    and the caller mints a fresh context; a bad header must never be
    able to fail a request.

:class:`RequestTrace`
    One request's span tree, held as plain
    :class:`~repro.obs.recorder.SpanRecord` objects: ``index`` is the
    span's position in the trace, ``parent`` its parent's index, and
    the root ``request`` span is index 0.  Spans carry explicit parents
    (no ambient stack — spans are recorded from the event loop *and*
    the dispatcher thread) and the same ``perf_counter`` clock the
    :class:`~repro.obs.recorder.Recorder` uses, so the recorder spans a
    computation closes are rebased into the trace (:meth:`RequestTrace.
    adopt`) with aligned timestamps.  Only the root carries a W3C span
    id (``root_span_id``), which the ``traceparent`` echo, the access
    log, and ``links`` (a coalesced follower links to its leader's
    root) use.  Because the spans are recorder records,
    ``GET /v1/traces/<id>?format=chrome`` is just
    :func:`repro.obs.export.chrome_trace` over ``trace.spans``.

:class:`TraceBuffer`
    The retention tier: two bounded deques, one for routine traces and
    one for *interesting* traces (status >= 500 or duration past the
    slow threshold).  Routine traffic can only evict routine traces, so
    the slow and errored tail survives any amount of healthy traffic —
    the property tail-based samplers exist for.

The ambient context travels by :mod:`contextvars`: the serve dispatcher
captures :func:`contextvars.copy_context` at submission and runs the
work inside it, so :func:`current_trace` works on the dispatcher thread
without any parameter threading.

Nothing here imports the rest of :mod:`repro` beyond the recorder —
like the recorder, this module sits below every other layer.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
import time
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Sequence

from .recorder import SpanRecord

#: Version stamp on trace documents served by ``GET /v1/traces[/<id>]``.
#: v2: each entry of ``spans`` is a recorder span event
#: (:meth:`~repro.obs.recorder.SpanRecord.to_dict`: ``index``,
#: ``parent`` index, ``depth``, ``params``) instead of a
#: ``span_id``/``parent_id``/``attrs`` object.
TRACE_SCHEMA_VERSION = 2

#: The one ``traceparent`` version this parser accepts (the W3C level
#: the service emits).  Unknown versions fall back to a fresh mint.
TRACEPARENT_VERSION = "00"

#: Default retention: how many completed traces each tier of the ring
#: buffer holds (routine and interesting tiers are sized equally).
DEFAULT_TRACE_CAPACITY = 256

#: Default tail-sampling latency threshold: a completed request at or
#: above this duration is *interesting* and protected from routine
#: eviction.
DEFAULT_SLOW_MS = 500.0

_HEX = set("0123456789abcdef")


def _is_hex(value: str, length: int) -> bool:
    return len(value) == length and all(ch in _HEX for ch in value)


def mint_trace_id() -> str:
    """A fresh random 16-byte trace id as 32 lowercase hex chars."""
    return os.urandom(16).hex()


def mint_span_id() -> str:
    """A fresh random 8-byte span id as 16 lowercase hex chars."""
    return os.urandom(8).hex()


class TraceContext:
    """One W3C-style trace context: trace id, span id, sampled flag."""

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str, sampled: bool = True) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    def __repr__(self) -> str:
        return f"TraceContext({format_traceparent(self.trace_id, self.span_id, self.sampled)!r})"


def parse_traceparent(value: Optional[str]) -> Optional[TraceContext]:
    """Parse a ``traceparent`` header; ``None`` for anything malformed.

    Strict by design: exactly four ``-``-separated fields, version
    ``00``, 32 lowercase-hex trace id and 16 lowercase-hex span id
    (neither all zeros), 2-hex flags.  Truncated values, wrong
    versions, uppercase hex, and extra fields all return ``None`` —
    the caller mints a fresh context instead, so a hostile or buggy
    header can degrade precision but never a request.
    """
    if not value or not isinstance(value, str):
        return None
    parts = value.strip().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, flags = parts
    if version != TRACEPARENT_VERSION:
        return None
    if not _is_hex(trace_id, 32) or trace_id == "0" * 32:
        return None
    if not _is_hex(span_id, 16) or span_id == "0" * 16:
        return None
    if not _is_hex(flags, 2):
        return None
    return TraceContext(trace_id, span_id, sampled=bool(int(flags, 16) & 0x01))


def format_traceparent(trace_id: str, span_id: str, sampled: bool = True) -> str:
    """Render a context as a ``traceparent`` header value."""
    flags = "01" if sampled else "00"
    return f"{TRACEPARENT_VERSION}-{trace_id}-{span_id}-{flags}"


class _SpanCloser:
    """Closes one explicit-parent trace span on exit.

    Entering yields the span's :class:`SpanRecord`, so callers can read
    its ``index`` (the parent of later spans) and add ``params``.
    """

    __slots__ = ("_record",)

    def __init__(self, record: SpanRecord) -> None:
        self._record = record

    def __enter__(self) -> SpanRecord:
        return self._record

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self._record.duration_s = time.perf_counter() - self._record.start_s
        return False


class RequestTrace:
    """One request's span tree, links, and final disposition.

    ``spans`` is a list of :class:`SpanRecord` whose ``index`` is the
    list position; the root ``request`` span is index 0 and every
    other span names its parent's index.  Spans are appended under a
    lock because the event loop and the dispatcher thread both record
    into the same trace.  The root span is opened at construction and
    closed by :meth:`finish`, which also stamps the request's outcome
    (status, disposition, error) so the retention buffer can classify
    the trace.  Only the root has a W3C span id (``root_span_id``).
    """

    def __init__(
        self,
        trace_id: Optional[str] = None,
        endpoint: str = "",
        method: str = "",
        path: str = "",
        remote_context: Optional[TraceContext] = None,
        received_s: Optional[float] = None,
    ) -> None:
        self.trace_id = trace_id or mint_trace_id()
        self.root_span_id = mint_span_id()
        self.endpoint = endpoint
        self.method = method
        self.path = path
        self.remote_parent_id = remote_context.span_id if remote_context else None
        self.started_unix_s = time.time()
        self.status: Optional[int] = None
        self.disposition: Optional[str] = None
        self.error: Optional[str] = None
        self.links: List[Dict[str, str]] = []
        self._lock = threading.Lock()
        root_params: Dict[str, Any] = {"method": method, "path": path}
        if self.remote_parent_id is not None:
            root_params["remote_parent_span_id"] = self.remote_parent_id
        self._root = SpanRecord(
            index=0,
            parent=None,
            depth=0,
            name="request",
            params=root_params,
            start_s=received_s if received_s is not None else time.perf_counter(),
        )
        self.spans: List[SpanRecord] = [self._root]
        self._finished = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    @property
    def duration_ms(self) -> float:
        return self._root.duration_s * 1000.0

    def _append(
        self,
        name: str,
        parent: int,
        start_s: float,
        duration_s: float,
        params: Dict[str, Any],
    ) -> SpanRecord:
        with self._lock:
            record = SpanRecord(
                index=len(self.spans),
                parent=parent,
                depth=self.spans[parent].depth + 1,
                name=name,
                params=params,
                start_s=start_s,
                duration_s=duration_s,
            )
            self.spans.append(record)
        return record

    def span(self, name: str, parent: int = 0, **params: Any) -> _SpanCloser:
        """Open a child of span ``parent`` (the root by default).

        Close it with ``with trace.span(...) as record:``.
        """
        return _SpanCloser(
            self._append(name, parent, time.perf_counter(), 0.0, params)
        )

    def add_span(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        parent: int = 0,
        params: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Record an already-measured span; returns its index."""
        record = self._append(name, parent, start_s, duration_s, dict(params or {}))
        return record.index

    def adopt(self, records: Sequence[SpanRecord], parent: int) -> int:
        """Append a run of closed recorder spans under span ``parent``.

        ``records`` is a contiguous slice of a recorder's span list, so
        each record's ``index`` is its recorder position.  They are
        copied with indices rebased onto this trace; a parent outside
        the slice becomes ``parent``.  Returns the number adopted.
        """
        if not records:
            return 0
        first = records[0].index
        with self._lock:
            offset = len(self.spans) - first
            for record in records:
                inside = record.parent is not None and record.parent >= first
                new_parent = record.parent + offset if inside else parent
                self.spans.append(
                    SpanRecord(
                        index=record.index + offset,
                        parent=new_parent,
                        depth=self.spans[new_parent].depth + 1,
                        name=record.name,
                        params=record.params,
                        start_s=record.start_s,
                        duration_s=record.duration_s,
                        track=record.track,
                    )
                )
        return len(records)

    def link(self, trace_id: str, span_id: str, relation: str) -> None:
        """Connect this trace to a span in another trace."""
        with self._lock:
            self.links.append(
                {"trace_id": trace_id, "span_id": span_id, "relation": relation}
            )

    def finish(
        self,
        status: int,
        disposition: Optional[str] = None,
        error: Optional[str] = None,
    ) -> None:
        """Close the root span and stamp the request's outcome."""
        with self._lock:
            if self._finished:
                return
            self._finished = True
            self._root.duration_s = time.perf_counter() - self._root.start_s
            self.status = status
            self.disposition = disposition
            self.error = error
            self._root.params["status"] = status
            if disposition is not None:
                self._root.params["disposition"] = disposition
            if error is not None:
                self._root.params["error"] = error

    # ------------------------------------------------------------------
    # Classification and views
    # ------------------------------------------------------------------

    @property
    def is_error(self) -> bool:
        return self.error is not None or (
            self.status is not None and self.status >= 500
        )

    def is_slow(self, slow_ms: float) -> bool:
        return self.duration_ms >= slow_ms

    def span_total_ms(self, name: str) -> Optional[float]:
        """Total milliseconds across spans named ``name`` (or prefix ``name.``)."""
        with self._lock:
            matched = [
                span.duration_s
                for span in self.spans
                if span.name == name or span.name.startswith(name + ".")
            ]
        if not matched:
            return None
        return sum(matched) * 1000.0

    def summary(self) -> Dict[str, Any]:
        """The one-line view ``GET /v1/traces`` lists."""
        with self._lock:
            span_count = len(self.spans)
            links = [dict(link) for link in self.links]
        return {
            "trace_id": self.trace_id,
            "endpoint": self.endpoint,
            "status": self.status,
            "disposition": self.disposition,
            "duration_ms": round(self.duration_ms, 3),
            "started_unix_s": round(self.started_unix_s, 3),
            "spans": span_count,
            "error": self.error,
            "links": links,
        }

    def to_document(self) -> Dict[str, Any]:
        """The full ``GET /v1/traces/<id>`` span-tree document."""
        with self._lock:
            spans = [span.to_dict() for span in self.spans]
            links = [dict(link) for link in self.links]
        return {
            "trace_schema_version": TRACE_SCHEMA_VERSION,
            "trace_id": self.trace_id,
            "endpoint": self.endpoint,
            "method": self.method,
            "path": self.path,
            "status": self.status,
            "disposition": self.disposition,
            "error": self.error,
            "duration_ms": round(self.duration_ms, 3),
            "started_unix_s": round(self.started_unix_s, 3),
            "remote_parent_span_id": self.remote_parent_id,
            "root_span_id": self.root_span_id,
            "links": links,
            "spans": spans,
        }


# ----------------------------------------------------------------------
# Ambient context
# ----------------------------------------------------------------------

_CURRENT: "contextvars.ContextVar[Optional[RequestTrace]]" = contextvars.ContextVar(
    "repro_request_trace", default=None
)


def current_trace() -> Optional[RequestTrace]:
    """The request trace bound to the current context, if any."""
    return _CURRENT.get()


@contextlib.contextmanager
def using_trace(trace: Optional[RequestTrace]) -> Iterator[Optional[RequestTrace]]:
    """Bind ``trace`` as the ambient request trace for a block.

    The binding rides :mod:`contextvars`, so it follows the request
    through ``await`` points and — because the dispatcher runs each
    submission inside :func:`contextvars.copy_context` captured at
    submit time — onto the dispatcher thread.
    """
    token = _CURRENT.set(trace)
    try:
        yield trace
    finally:
        _CURRENT.reset(token)


# ----------------------------------------------------------------------
# Retention
# ----------------------------------------------------------------------


class TraceBuffer:
    """Bounded retention of completed traces with tail-based sampling.

    Two independently-bounded deques: *routine* traces (fast, 2xx-4xx)
    and *interesting* traces (errored, or at/over the slow threshold).
    Each tier evicts its own oldest entries, so no volume of healthy
    traffic can push a slow or errored trace out before ``capacity``
    newer interesting traces arrive — the tail-based guarantee.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        slow_ms: float = DEFAULT_SLOW_MS,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.slow_ms = slow_ms
        self._lock = threading.Lock()
        self._routine: "deque[RequestTrace]" = deque(maxlen=capacity)
        self._interesting: "deque[RequestTrace]" = deque(maxlen=capacity)
        self._admitted = 0
        self._evicted = 0

    def admit(self, trace: RequestTrace) -> None:
        """Retain one finished trace in the appropriate tier."""
        interesting = trace.is_error or trace.is_slow(self.slow_ms)
        with self._lock:
            tier = self._interesting if interesting else self._routine
            if len(tier) == tier.maxlen:
                self._evicted += 1
            tier.append(trace)
            self._admitted += 1

    def get(self, trace_id: str) -> Optional[RequestTrace]:
        """Look one retained trace up by id (either tier)."""
        with self._lock:
            for tier in (self._interesting, self._routine):
                for trace in tier:
                    if trace.trace_id == trace_id:
                        return trace
        return None

    def summaries(self, limit: int = 50) -> List[Dict[str, Any]]:
        """Newest-first summaries across both tiers (up to ``limit``)."""
        with self._lock:
            merged = list(self._routine) + list(self._interesting)
        merged.sort(key=lambda t: t.started_unix_s, reverse=True)
        return [trace.summary() for trace in merged[: max(0, limit)]]

    def stats(self) -> Dict[str, Any]:
        """Occupancy and churn counters for ``/v1/traces`` and metrics."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "slow_ms": self.slow_ms,
                "routine": len(self._routine),
                "interesting": len(self._interesting),
                "admitted": self._admitted,
                "evicted": self._evicted,
            }
