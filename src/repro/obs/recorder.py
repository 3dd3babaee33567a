"""The observability recorder: spans, counters, gauges, histograms, timers.

Every measured quantity in the reproduction flows through a
:class:`Recorder`: wall-time **spans** (``with recorder.span("solve")``)
that nest into a tree, monotonically increasing **counters** (messages
sent, bits delivered, branch-and-bound nodes expanded, field
multiplications), point-in-time **gauges**, **keyed counters**
(per-edge traffic matrices), **histograms** (value distributions with
streaming quantiles — bits per round, edge utilization), and **timers**
(histograms of seconds, ``with recorder.time("encode")``).  Completed
spans and final totals are forwarded to pluggable sinks
(:mod:`repro.obs.sinks`).

The recorder is *disabled by default* and every public mutator checks
``self.enabled`` first, so an instrumented hot path pays exactly one
attribute read when observability is off — ``span`` even returns a
shared no-op context manager to avoid allocating.

This module must stay import-free of the rest of :mod:`repro` at load
time (the field and simulator layers import it), so table rendering is
imported lazily inside the render methods.
"""

from __future__ import annotations

import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from .metrics import DEFAULT_RESERVOIR_SIZE, Histogram, render_summary_rows

#: Version of the JSONL envelope shared by every stream (events,
#: ``live.jsonl``, ``access.jsonl``) and embedded in run manifests.
#: Bump when a record shape changes.
#: v2: histogram/timer events, manifest provenance + metric sections.
#: v3: span events carry a ``track`` label (worker-track metadata for
#: Chrome-trace export; ``null`` for spans recorded in-process).
#: v4: one ``meta`` header for all three streams (``stream``,
#: ``command``, ``unix_s``, ``provenance``); the live and access
#: streams lose their own header types and version numbers.
SCHEMA_VERSION = 4

#: Callbacks run by every :meth:`Recorder.hard_reset`, in registration
#: order.  See :func:`register_hard_reset_hook`.
_HARD_RESET_HOOKS: List[Callable[[], None]] = []


def register_hard_reset_hook(hook: Callable[[], None]) -> None:
    """Register a callback invoked by every :meth:`Recorder.hard_reset`.

    Subsystems that hold process-wide in-memory state a forked worker
    must not inherit (e.g. the result store's memory backend) register
    a clearing callback here, so the recorder stays import-free of
    them.  Registering the same callable twice is a no-op.
    """
    if hook not in _HARD_RESET_HOOKS:
        _HARD_RESET_HOOKS.append(hook)


class SpanRecord:
    """One span: name, parameters, timing, and position in the tree.

    ``index`` is the span's position in its list (a recorder's
    ``spans`` or a request trace's) and ``parent`` the index of its
    parent, ``None`` for a root.  ``track`` labels the execution lane
    the span was recorded on — ``None`` for in-process spans, a stable
    label (the work-unit id) for spans grafted from a worker snapshot.
    Trace export renders each track as its own Perfetto/Chrome-trace
    process row.
    """

    __slots__ = (
        "index",
        "parent",
        "depth",
        "name",
        "params",
        "start_s",
        "duration_s",
        "track",
    )

    def __init__(
        self,
        index: int,
        parent: Optional[int],
        depth: int,
        name: str,
        params: Dict[str, Any],
        start_s: float,
        duration_s: float = 0.0,
        track: Optional[str] = None,
    ) -> None:
        self.index = index
        self.parent = parent
        self.depth = depth
        self.name = name
        self.params = params
        self.start_s = start_s
        self.duration_s = duration_s
        self.track = track

    def to_dict(self) -> Dict[str, Any]:
        """The span as a JSONL-ready event dict."""
        return {
            "type": "span",
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "name": self.name,
            "params": self.params,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "track": self.track,
        }

    @classmethod
    def from_dict(cls, event: Mapping[str, Any]) -> "SpanRecord":
        """The inverse of :meth:`to_dict` (missing optional keys default).

        The one conversion from span event dicts — replayed JSONL,
        worker snapshots, served trace documents — back to records.
        """
        return cls(
            index=int(event["index"]),
            parent=event.get("parent"),
            depth=int(event.get("depth", 0)),
            name=str(event.get("name", "?")),
            params=dict(event.get("params") or {}),
            start_s=float(event.get("start_s", 0.0)),
            duration_s=float(event.get("duration_s", 0.0)),
            track=event.get("track"),
        )

    def __repr__(self) -> str:
        return (
            f"SpanRecord({self.name!r}, depth={self.depth}, "
            f"duration_s={self.duration_s:.6f})"
        )


def span_records(
    spans: Iterable[Union[SpanRecord, Mapping[str, Any]]]
) -> List[SpanRecord]:
    """``spans`` as records: records pass through, dicts use ``from_dict``."""
    return [
        span if isinstance(span, SpanRecord) else SpanRecord.from_dict(span)
        for span in spans
    ]


class _NullSpan:
    """Shared no-op context manager returned while recording is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager that closes its :class:`SpanRecord` on exit."""

    __slots__ = ("_recorder", "_record")

    def __init__(self, recorder: "Recorder", record: SpanRecord) -> None:
        self._recorder = recorder
        self._record = record

    def __enter__(self) -> SpanRecord:
        return self._record

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self._recorder._close_span(self._record)
        return False


class _LiveTimer:
    """Context manager that records its elapsed seconds in a timer."""

    __slots__ = ("_recorder", "_name", "_start_s")

    def __init__(self, recorder: "Recorder", name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._start_s = 0.0

    def __enter__(self) -> "_LiveTimer":
        self._start_s = self._recorder._clock()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        elapsed = self._recorder._clock() - self._start_s
        self._recorder._observe_timer(self._name, elapsed)
        return False


class Recorder:
    """Collects spans, counters, gauges, histograms; forwards to sinks.

    A recorder holds everything in memory (the in-memory registry of
    the subsystem); sinks receive each completed span immediately and
    the counter/gauge totals at :meth:`flush`.  All mutators are no-ops
    while ``enabled`` is ``False``.
    """

    def __init__(
        self,
        enabled: bool = False,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.enabled = enabled
        self._clock = clock
        self._sinks: List[Any] = []
        self.spans: List[SpanRecord] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.keyed_counters: Dict[str, Dict[str, float]] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.timers: Dict[str, Histogram] = {}
        self._stack: List[SpanRecord] = []

    # ------------------------------------------------------------------
    # Lifecycle and sinks
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Drop all recorded data (sinks are kept).

        Must not be called while spans are open.
        """
        if self._stack:
            raise RuntimeError(
                f"cannot reset with {len(self._stack)} span(s) still open"
            )
        self.spans = []
        self.counters = {}
        self.gauges = {}
        self.keyed_counters = {}
        self.histograms = {}
        self.timers = {}

    def clear_closed(self) -> None:
        """Drop completed data; safe to call while spans are open.

        Unlike :meth:`reset`, this never raises: counters, gauges,
        keyed counters, histograms, timers, and *closed* spans are
        dropped, while still-open spans keep recording and become the
        root path of a fresh span tree.  Used by callers that snapshot
        state between phases (``benchmarks._util.publish``) so one
        phase's data never bleeds into the next.
        """
        self.counters = {}
        self.gauges = {}
        self.keyed_counters = {}
        self.histograms = {}
        self.timers = {}
        # The open stack is a root-to-leaf path, so reindexing it as
        # spans 0..d-1 preserves every parent/depth invariant.
        for new_index, record in enumerate(self._stack):
            record.index = new_index
            record.parent = new_index - 1 if new_index else None
            record.depth = new_index
        self.spans = list(self._stack)

    def hard_reset(self, keep_sinks: bool = False) -> None:
        """Forcibly return to a pristine, disabled state.

        Unlike :meth:`reset` this never raises: still-open spans are
        abandoned and, unless ``keep_sinks``, attached sinks are dropped
        without being closed.  Worker processes call this first thing —
        under a forking start method they inherit the parent's recorder
        mid-recording (open command span, live JSONL sink on a shared
        file descriptor), and must not write to either.  Registered
        :func:`register_hard_reset_hook` callbacks run last, clearing
        the same class of inherited state in other subsystems.
        """
        self._stack = []
        if not keep_sinks:
            self._sinks = []
        self.enabled = False
        self.reset()
        for hook in list(_HARD_RESET_HOOKS):
            hook()

    # ------------------------------------------------------------------
    # Cross-process snapshot and merge
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The recorder's closed state as one JSON-native dict.

        Everything a worker process recorded — closed spans, counter and
        gauge totals, keyed counters, histogram/timer states — in the
        shape :meth:`merge_snapshot` consumes on the parent side.  Open
        spans are not included; snapshot after recording finishes.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "spans": [record.to_dict() for record in self.spans],
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "keyed_counters": {
                name: dict(bucket) for name, bucket in self.keyed_counters.items()
            },
            "histograms": {
                name: hist.to_state() for name, hist in self.histograms.items()
            },
            "timers": {name: hist.to_state() for name, hist in self.timers.items()},
        }

    def merge_snapshot(
        self, snapshot: Dict[str, Any], track: Optional[str] = None
    ) -> None:
        """Fold a worker recorder's :meth:`snapshot` into this recorder.

        Counters and keyed counters add; gauges take the snapshot's
        value (last merge wins — merge in work-unit order for
        determinism); histograms and timers merge via
        :meth:`Histogram.merge_state`; spans are grafted under the
        currently open span (or as roots) with their indices rebased,
        and forwarded to the attached sinks like locally closed spans.

        ``track`` labels the grafted spans' execution lane (the work
        unit id, stable across worker scheduling); spans that already
        carry a track keep it.
        """
        base = len(self.spans)
        graft_parent = self._stack[-1].index if self._stack else None
        graft_depth = self._stack[-1].depth + 1 if self._stack else 0
        for event in snapshot.get("spans", ()):
            record = SpanRecord.from_dict(event)
            record.index += base
            record.parent = (
                graft_parent if record.parent is None else base + record.parent
            )
            record.depth += graft_depth
            record.track = record.track or track
            self.spans.append(record)
            for sink in self._sinks:
                sink.on_span(record)
        for name, value in snapshot.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.gauges.update(snapshot.get("gauges", {}))
        for name, bucket in snapshot.get("keyed_counters", {}).items():
            mine = self.keyed_counters.setdefault(name, {})
            for key, value in bucket.items():
                mine[key] = mine.get(key, 0) + value
        for target, states in (
            (self.histograms, snapshot.get("histograms", {})),
            (self.timers, snapshot.get("timers", {})),
        ):
            for name, state in states.items():
                histogram = target.get(name)
                if histogram is None:
                    histogram = target[name] = Histogram(
                        reservoir_size=int(
                            state.get("reservoir_size", DEFAULT_RESERVOIR_SIZE)
                        )
                    )
                histogram.merge_state(state)

    def add_sink(self, sink: Any) -> None:
        """Attach a sink; it receives every span closed from now on."""
        self._sinks.append(sink)

    def remove_sink(self, sink: Any) -> None:
        """Detach a previously attached sink."""
        self._sinks.remove(sink)

    def flush(self) -> None:
        """Push counter/gauge totals to every sink."""
        for sink in self._sinks:
            sink.on_flush(self)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def span(self, name: str, **params: Any):
        """Open a span; use as ``with recorder.span("phase", key=...)``.

        Returns a shared no-op context manager when disabled.  Spans
        must be closed in LIFO order, which the ``with`` statement
        guarantees; calling ``span`` without ``with`` corrupts the tree.
        """
        if not self.enabled:
            return NULL_SPAN
        record = SpanRecord(
            index=len(self.spans),
            parent=self._stack[-1].index if self._stack else None,
            depth=len(self._stack),
            name=name,
            params=params,
            start_s=self._clock(),
        )
        self.spans.append(record)
        self._stack.append(record)
        return _LiveSpan(self, record)

    def _close_span(self, record: SpanRecord) -> None:
        record.duration_s = self._clock() - record.start_s
        self._stack.pop()
        for sink in self._sinks:
            sink.on_span(record)

    # ------------------------------------------------------------------
    # Counters and gauges
    # ------------------------------------------------------------------

    def incr(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named counter."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + value

    def incr_keyed(self, name: str, key: str, value: float = 1) -> None:
        """Add ``value`` to ``key`` within the named keyed counter.

        Keyed counters hold per-entity breakdowns, e.g. the per-edge
        traffic matrix ``congest.edge_bits["u->v"]``.
        """
        if not self.enabled:
            return
        bucket = self.keyed_counters.setdefault(name, {})
        bucket[key] = bucket.get(key, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to ``value`` (last write wins)."""
        if not self.enabled:
            return
        self.gauges[name] = value

    # ------------------------------------------------------------------
    # Histograms and timers
    # ------------------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` in the named histogram."""
        if not self.enabled:
            return
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def time(self, name: str):
        """Time a region into the named timer: ``with recorder.time("x")``.

        A timer is a histogram of seconds kept in its own namespace so
        renderers can show milliseconds.  Returns the shared no-op
        context manager when disabled — no allocation, no clock read.
        """
        if not self.enabled:
            return NULL_SPAN
        return _LiveTimer(self, name)

    def _observe_timer(self, name: str, seconds: float) -> None:
        histogram = self.timers.get(name)
        if histogram is None:
            histogram = self.timers[name] = Histogram()
        histogram.observe(seconds)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    def histogram_summaries(self) -> Dict[str, Dict[str, float]]:
        """``name -> summary dict`` for every histogram."""
        return {name: hist.summary() for name, hist in self.histograms.items()}

    def timer_summaries(self) -> Dict[str, Dict[str, float]]:
        """``name -> summary dict`` (seconds) for every timer."""
        return {name: hist.summary() for name, hist in self.timers.items()}

    def span_aggregates(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (count, total seconds)`` in first-seen order."""
        aggregates: Dict[str, Tuple[int, float]] = {}
        for record in self.spans:
            count, total = aggregates.get(record.name, (0, 0.0))
            aggregates[record.name] = (count + 1, total + record.duration_s)
        return aggregates

    def span_children(self) -> Dict[Optional[int], List[SpanRecord]]:
        """``parent index (None for roots) -> children`` in record order.

        The adjacency view of the span tree — shared by the tree
        renderer and the trace exporter, so both walk the same shape.
        """
        children: Dict[Optional[int], List[SpanRecord]] = {}
        for record in self.spans:
            children.setdefault(record.parent, []).append(record)
        return children

    def root_spans(self) -> List[SpanRecord]:
        """The top-level spans (no parent), in record order."""
        return [record for record in self.spans if record.parent is None]

    def span_tracks(self) -> List[Optional[str]]:
        """Distinct span track labels in first-appearance order.

        ``None`` (the in-process lane) is included when any span uses
        it.  Trace export assigns one process row per entry, in this
        order, so track ids are stable across reruns.
        """
        seen: List[Optional[str]] = []
        for record in self.spans:
            if record.track not in seen:
                seen.append(record.track)
        return seen

    def render_span_tree(self) -> str:
        """Render the span hierarchy, merging same-named siblings."""
        children = self.span_children()
        lines: List[str] = []

        def walk(group: List[SpanRecord], depth: int) -> None:
            by_name: Dict[str, List[SpanRecord]] = {}
            for record in group:
                by_name.setdefault(record.name, []).append(record)
            for name, records in by_name.items():
                total_ms = sum(r.duration_s for r in records) * 1000.0
                suffix = f" x{len(records)}" if len(records) > 1 else ""
                params = ""
                if len(records) == 1 and records[0].params:
                    params = " [" + ", ".join(
                        f"{k}={v}" for k, v in sorted(records[0].params.items())
                    ) + "]"
                lines.append(f"{'  ' * depth}{name}{suffix}{params}  {total_ms:.1f}ms")
                merged: List[SpanRecord] = []
                for record in records:
                    merged.extend(children.get(record.index, []))
                if merged:
                    walk(merged, depth + 1)

        walk(children.get(None, []), 0)
        return "\n".join(lines) if lines else "(no spans recorded)"

    def render_summary(self, max_keyed_rows: int = 12) -> str:
        """Aggregate tables: spans by name, counters, gauges, keyed tops."""
        # Imported lazily: repro.analysis pulls in the gadget/code layers,
        # which themselves import this module.
        from ..analysis.tables import render_table

        parts: List[str] = []
        aggregates = self.span_aggregates()
        if aggregates:
            rows = [
                [name, count, round(total * 1000.0, 3), round(total * 1000.0 / count, 3)]
                for name, (count, total) in aggregates.items()
            ]
            parts.append(
                render_table(
                    ["span", "count", "total ms", "mean ms"], rows, title="Spans"
                )
            )
        if self.counters:
            rows = [[name, value] for name, value in sorted(self.counters.items())]
            parts.append(render_table(["counter", "total"], rows, title="Counters"))
        if self.gauges:
            rows = [[name, value] for name, value in sorted(self.gauges.items())]
            parts.append(render_table(["gauge", "value"], rows, title="Gauges"))
        metric_headers = ["name", "count", "min", "mean", "p50", "p90", "p99", "max"]
        if self.timers:
            rows = render_summary_rows(self.timer_summaries(), scale=1000.0, digits=3)
            parts.append(render_table(metric_headers, rows, title="Timers (ms)"))
        if self.histograms:
            rows = render_summary_rows(self.histogram_summaries())
            parts.append(render_table(metric_headers, rows, title="Histograms"))
        for name, bucket in sorted(self.keyed_counters.items()):
            top = sorted(bucket.items(), key=lambda item: (-item[1], item[0]))
            rows = [[key, value] for key, value in top[:max_keyed_rows]]
            title = f"Top {name} ({len(bucket)} keys)"
            parts.append(render_table(["key", "total"], rows, title=title))
        if not parts:
            return "(nothing recorded)"
        return "\n\n".join(parts)


def critical_path(
    spans: Iterable[Union[SpanRecord, Mapping[str, Any]]],
) -> List[Dict[str, Any]]:
    """The longest-child chain from the longest root, with self-time.

    Each row reports the span's total duration, its self-time
    (duration minus the sum of its children — where the time actually
    went at that level), its share of the root, and how many children
    it had.  Ties break toward record order, so the result is
    deterministic for identical inputs.
    """
    children: Dict[Optional[int], List[SpanRecord]] = {}
    for record in span_records(spans):
        children.setdefault(record.parent, []).append(record)
    roots = children.get(None, [])
    if not roots:
        return []
    node: Optional[SpanRecord] = max(roots, key=lambda s: s.duration_s)
    total = node.duration_s
    rows: List[Dict[str, Any]] = []
    while node is not None:
        kids = children.get(node.index, [])
        child_total = sum(kid.duration_s for kid in kids)
        rows.append(
            {
                "name": node.name,
                "depth": node.depth,
                "duration_s": round(node.duration_s, 6),
                "self_s": round(max(0.0, node.duration_s - child_total), 6),
                "share": round(node.duration_s / total, 4) if total else 0.0,
                "children": len(kids),
            }
        )
        node = max(kids, key=lambda s: s.duration_s) if kids else None
    return rows


def render_critical_path(
    spans: Iterable[Union[SpanRecord, Mapping[str, Any]]],
) -> str:
    """The "where did the time go" table over :func:`critical_path`."""
    from ..analysis.tables import render_table

    rows = critical_path(spans)
    if not rows:
        return "(no spans recorded)"
    body = [
        [
            "  " * row["depth"] + row["name"],
            f"{row['duration_s'] * 1e3:.1f}",
            f"{row['self_s'] * 1e3:.1f}",
            f"{row['share'] * 100:.1f}%",
            str(row["children"]),
        ]
        for row in rows
    ]
    return render_table(
        ["span", "total ms", "self ms", "of root", "children"], body
    )
