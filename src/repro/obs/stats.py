"""Replay a JSONL observability file into summary tables.

This backs ``python -m repro stats <file.jsonl>`` for all three JSONL
streams — ``--profile-json`` events, ``--live-out`` ``live.jsonl`` and
the ``repro serve --access-log`` file — which share one envelope (see
:mod:`repro.obs.sinks`).  One loop splits a file into sessions, one per
``meta`` line; records before the first ``meta`` (files written before
``schema_version`` 4) form one session without a header.  Each session
prints one header line, ``schema_version: N  stream: S  command: C``,
then the tables its records produce, chosen by record type: spans,
counters, gauges, timers, histograms and keyed counters; live progress,
slowest units and stalls; per-endpoint access latency, dispositions and
slowest requests.

Files on disk are often imperfect — a run killed mid-write leaves a
truncated last line — so the CLI path loads *tolerantly*: malformed
lines are skipped and surfaced as a warning count rather than aborting
the replay.  Programmatic callers that want hard errors use
:func:`load_events` (strict by default).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Tuple, Union

from .metrics import render_summary_rows


def _parse_lines(
    path: Union[str, pathlib.Path], strict: bool
) -> Tuple[List[Dict[str, Any]], int]:
    events: List[Dict[str, Any]] = []
    malformed = 0
    for line_number, line in enumerate(
        pathlib.Path(path).read_text().splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as error:
            if strict:
                raise ValueError(f"{path}:{line_number}: not JSON: {error}") from error
            malformed += 1
            continue
        if not isinstance(event, dict) or "type" not in event:
            if strict:
                raise ValueError(f"{path}:{line_number}: not an event object")
            malformed += 1
            continue
        events.append(event)
    return events, malformed


def load_events(path: Union[str, pathlib.Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL event file; malformed lines raise ``ValueError``."""
    return _parse_lines(path, strict=True)[0]


def load_events_tolerant(
    path: Union[str, pathlib.Path],
) -> Tuple[List[Dict[str, Any]], int]:
    """Parse a JSONL event file, skipping malformed lines.

    Returns ``(events, malformed_line_count)``; an empty or truncated
    file yields whatever parsed instead of raising.
    """
    return _parse_lines(path, strict=False)


def span_events(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The ``span`` records among ``events``, in file order."""
    return [event for event in events if event["type"] == "span"]


def split_sessions(events: List[Dict[str, Any]]) -> List[List[Dict[str, Any]]]:
    """Split ``events`` into sessions, one per ``meta`` line.

    Records before the first ``meta`` line form one session of their
    own, without a header.
    """
    sessions: List[List[Dict[str, Any]]] = []
    for event in events:
        if event["type"] == "meta" or not sessions:
            sessions.append([])
        sessions[-1].append(event)
    return sessions


def render_stats(events: List[Dict[str, Any]], malformed: int = 0) -> str:
    """Render loaded events as a header and tables per session.

    ``malformed`` is the count of skipped lines reported by
    :func:`load_events_tolerant`; it is surfaced as a warning line.
    """
    from ..analysis.tables import render_table  # lazy: avoids an import cycle

    parts: List[str] = []
    if malformed:
        parts.append(f"warning: skipped {malformed} malformed line(s)")
    for session in split_sessions(events):
        meta = session[0] if session[0]["type"] == "meta" else {}
        command = meta.get("command") or "-"
        parts.append(
            f"schema_version: {meta.get('schema_version', 'unknown')}  "
            f"stream: {meta.get('stream', 'unknown')}  command: {command}"
        )
        parts.extend(_render_recorder_tables(session, render_table))
        parts.extend(_render_live_tables(session, command, render_table))
        parts.extend(_render_access_tables(session, command, render_table))
    return "\n\n".join(parts)


def _render_recorder_tables(
    events: List[Dict[str, Any]], render_table: Any
) -> List[str]:
    """Span, counter, gauge, timer, histogram and keyed-counter tables."""
    spans = span_events(events)
    counters = [e for e in events if e["type"] == "counter" and "key" not in e]
    keyed = [e for e in events if e["type"] == "counter" and "key" in e]
    gauges = [e for e in events if e["type"] == "gauge"]
    timers = [e for e in events if e["type"] == "timer"]
    histograms = [e for e in events if e["type"] == "hist"]

    parts: List[str] = []
    if spans:
        aggregates: Dict[str, List[float]] = {}
        for event in spans:
            entry = aggregates.setdefault(event["name"], [0, 0.0])
            entry[0] += 1
            entry[1] += float(event.get("duration_s", 0.0))
        rows = [
            [name, int(count), round(total * 1000.0, 3), round(total * 1000.0 / count, 3)]
            for name, (count, total) in aggregates.items()
        ]
        parts.append(
            render_table(["span", "count", "total ms", "mean ms"], rows, title="Spans")
        )
    if counters:
        rows = [[e["name"], e["value"]] for e in sorted(counters, key=lambda e: e["name"])]
        parts.append(render_table(["counter", "total"], rows, title="Counters"))
    if gauges:
        rows = [[e["name"], e["value"]] for e in sorted(gauges, key=lambda e: e["name"])]
        parts.append(render_table(["gauge", "value"], rows, title="Gauges"))
    metric_headers = ["name", "count", "min", "mean", "p50", "p90", "p99", "max"]
    if timers:
        summaries = {e["name"]: e for e in timers}
        rows = render_summary_rows(summaries, scale=1000.0, digits=3)
        parts.append(render_table(metric_headers, rows, title="Timers (ms)"))
    if histograms:
        summaries = {e["name"]: e for e in histograms}
        rows = render_summary_rows(summaries)
        parts.append(render_table(metric_headers, rows, title="Histograms"))
    if keyed:
        keyed.sort(key=lambda e: (e["name"], -e["value"], e["key"]))
        rows = [[e["name"], e["key"], e["value"]] for e in keyed[:20]]
        parts.append(
            render_table(
                ["counter", "key", "total"],
                rows,
                title=f"Keyed counters (top {min(len(keyed), 20)} of {len(keyed)})",
            )
        )
    return parts


#: Progress fields shown when replaying a live.jsonl stream, in order.
_LIVE_PROGRESS_FIELDS = (
    "units_total",
    "units_done",
    "units_in_flight",
    "units_cached",
    "units_requeued",
    "unit_ema_s",
    "unit_peak_s",
    "workers_alive",
    "stalled_units",
)


def _render_live_tables(
    events: List[Dict[str, Any]], command: str, render_table: Any
) -> List[str]:
    """Progress, slowest-units and stall tables for live records.

    Each table is titled with the session's ``command``, so the
    sessions an appending ``--live-out`` leaves in one file stay apart.
    """
    summary = next(
        (e for e in reversed(events) if e["type"] in ("live_summary", "progress")),
        None,
    )
    parts: List[str] = []
    if summary is not None:
        rows = [
            [field, summary.get(field)]
            for field in _LIVE_PROGRESS_FIELDS
            if field in summary
        ]
        parts.append(
            render_table(
                ["progress", "value"],
                rows,
                title=f"Live progress ({command})",
            )
        )
    finished = [
        e
        for e in events
        if e["type"] == "unit"
        and e.get("status") in ("done", "requeued")
        and e.get("duration_s") is not None
    ]
    if finished:
        finished.sort(key=lambda e: -float(e["duration_s"]))
        rows = [
            [
                e["uid"],
                e["status"],
                e.get("worker"),
                round(float(e["duration_s"]) * 1000.0, 3),
            ]
            for e in finished[:20]
        ]
        parts.append(
            render_table(
                ["unit", "status", "worker", "ms"],
                rows,
                title=(
                    f"Slowest units ({command}, top {min(len(finished), 20)} "
                    f"of {len(finished)})"
                ),
            )
        )
    stalls = [e for e in events if e["type"] == "stall"]
    if stalls:
        rows = [
            [
                e["uid"],
                e.get("worker"),
                e.get("waited_s"),
                e.get("deadline_s"),
                e.get("requeued"),
            ]
            for e in stalls
        ]
        parts.append(
            render_table(
                ["stalled unit", "worker", "waited s", "deadline s", "requeued"],
                rows,
                title=f"Stall reports ({command})",
            )
        )
    return parts


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def _render_access_tables(
    events: List[Dict[str, Any]], command: str, render_table: Any
) -> List[str]:
    """Tables for serve access records, if any.

    Replays a ``--access-log`` file offline: per-endpoint request
    counts and latency quantiles, status and disposition breakdowns,
    and the slowest individual requests with their trace ids (the ids
    key into ``GET /v1/traces/<id>`` while the service is still up).
    """
    accesses = [e for e in events if e["type"] == "access"]
    if not accesses:
        return []
    parts: List[str] = []
    by_endpoint: Dict[str, List[Dict[str, Any]]] = {}
    for event in accesses:
        by_endpoint.setdefault(event.get("endpoint", "?"), []).append(event)
    rows = []
    for endpoint in sorted(by_endpoint):
        group = by_endpoint[endpoint]
        durations = sorted(float(e.get("duration_ms", 0.0)) for e in group)
        errors = sum(1 for e in group if int(e.get("status", 0)) >= 500)
        rows.append(
            [
                endpoint,
                len(group),
                errors,
                round(_percentile(durations, 0.5), 3),
                round(_percentile(durations, 0.99), 3),
                round(durations[-1], 3),
            ]
        )
    parts.append(
        render_table(
            ["endpoint", "requests", "5xx", "p50 ms", "p99 ms", "max ms"],
            rows,
            title=f"Access log ({command}, {len(accesses)} requests)",
        )
    )
    breakdown: Dict[Tuple[Any, Any], int] = {}
    for event in accesses:
        key = (event.get("status"), event.get("disposition"))
        breakdown[key] = breakdown.get(key, 0) + 1
    rows = [
        [status, disposition, count]
        for (status, disposition), count in sorted(
            breakdown.items(), key=lambda item: (-item[1], str(item[0]))
        )
    ]
    parts.append(
        render_table(
            ["status", "disposition", "count"],
            rows,
            title="Dispositions",
        )
    )
    slowest = sorted(
        accesses, key=lambda e: -float(e.get("duration_ms", 0.0))
    )[:10]
    rows = [
        [
            e.get("trace_id"),
            e.get("endpoint"),
            e.get("status"),
            e.get("queue_wait_ms"),
            round(float(e.get("duration_ms", 0.0)), 3),
        ]
        for e in slowest
    ]
    parts.append(
        render_table(
            ["trace_id", "endpoint", "status", "queue wait ms", "total ms"],
            rows,
            title=f"Slowest requests (top {len(slowest)} of {len(accesses)})",
        )
    )
    return parts


def render_stats_file(path: Union[str, pathlib.Path]) -> str:
    """Load ``path`` tolerantly and render its summary tables."""
    events, malformed = load_events_tolerant(path)
    return render_stats(events, malformed=malformed)
