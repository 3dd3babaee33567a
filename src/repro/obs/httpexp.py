"""The HTTP exporter: a scrapeable ``/metrics`` + ``/progress`` plane.

:class:`MetricsSuite` renders the process-wide recorder and the active
:class:`~repro.obs.live.LiveMonitor` on demand as three endpoints,
hosted by ``repro.serve``'s HTTP layer (``--metrics-port`` and
``repro serve`` alike):

``/metrics``
    Prometheus text exposition (format version 0.0.4) rendered from
    live recorder state: counters as ``<name>_total``, gauges as-is,
    histograms and timers as summaries with p50/p90/p99 quantile
    series (timers gain a ``_seconds`` suffix), keyed counters as one
    labeled series per key (capped, largest first), and the monitor's
    progress gauges (``parallel_units_done`` et al.).  Metric names
    are the recorder's dotted names with every non-``[a-zA-Z0-9_:]``
    character mapped to ``_`` — ``congest.round_bits`` scrapes as
    ``congest_round_bits``.  The full mapping is documented in
    ``docs/OBSERVABILITY.md``.

``/progress``
    The monitor's :meth:`~repro.obs.live.LiveMonitor.snapshot` as
    JSON (the same shape as ``live.jsonl`` progress events, under
    the envelope's ``schema_version``), plus the stall reports.

``/health``
    ``{"status": "ok", "uptime_s": ...}`` — a liveness probe.

Rendering is pull-based: every scrape reads the current recorder and
monitor state under their own locks, so the exporter adds zero cost
to the compute path between scrapes.
"""

from __future__ import annotations

import json
import math
import re
import time
from typing import Any, Dict, List, Optional, Tuple

from .recorder import SCHEMA_VERSION

#: Keyed-counter series cap per metric: the per-edge traffic matrix
#: can hold thousands of keys; scrape the heaviest hitters.
MAX_KEYED_SERIES = 50

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

#: Quantiles exposed for every histogram/timer summary series.
_QUANTILES = (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99"))


def sanitize_metric_name(name: str) -> str:
    """Map a dotted recorder name to a valid Prometheus metric name."""
    sanitized = _NAME_SANITIZE.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _summary_lines(
    name: str, summary: Dict[str, float], lines: List[str]
) -> None:
    lines.append(f"# TYPE {name} summary")
    for quantile, key in _QUANTILES:
        lines.append(
            f'{name}{{quantile="{quantile}"}} '
            f"{_format_value(summary.get(key, 0.0))}"
        )
    lines.append(f"{name}_sum {_format_value(summary.get('sum', 0.0))}")
    lines.append(f"{name}_count {_format_value(summary.get('count', 0))}")


def render_prometheus(
    recorder: Optional[Any] = None, monitor: Optional[Any] = None
) -> str:
    """The recorder + monitor state as Prometheus text exposition.

    A pure function of the passed state (the process-wide recorder
    and ambient monitor are used when omitted), so it is unit-testable
    without a socket and scrape-to-scrape diffs reflect only metric
    movement.
    """
    if recorder is None:
        from . import get_recorder

        recorder = get_recorder()
    if monitor is None:
        from .live import get_monitor

        monitor = get_monitor()
    lines: List[str] = []
    from .manifest import run_provenance

    provenance = run_provenance()
    lines.append("# TYPE repro_build_info gauge")
    lines.append(
        "repro_build_info{"
        f'git_sha="{_escape_label_value(provenance["git_sha"])}",'
        f'python_version="{_escape_label_value(provenance["python_version"])}"'
        "} 1"
    )
    for name, value in sorted(recorder.counters.items()):
        metric = sanitize_metric_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")
    for name, value in sorted(recorder.gauges.items()):
        metric = sanitize_metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")
    for name, bucket in sorted(recorder.keyed_counters.items()):
        metric = sanitize_metric_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        top = sorted(bucket.items(), key=lambda item: (-item[1], item[0]))
        for key, value in top[:MAX_KEYED_SERIES]:
            lines.append(
                f'{metric}{{key="{_escape_label_value(str(key))}"}} '
                f"{_format_value(value)}"
            )
        dropped = top[MAX_KEYED_SERIES:]
        if dropped:
            # The cap is lossy: surface the tail as one marker series
            # (count of dropped keys) so a scrape can tell "50 keys
            # exist" from "50 shown of many".
            lines.append(
                f'{metric}{{key="_truncated"}} {_format_value(len(dropped))}'
            )
    for name, summary in sorted(recorder.histogram_summaries().items()):
        _summary_lines(sanitize_metric_name(name), summary, lines)
    for name, summary in sorted(recorder.timer_summaries().items()):
        _summary_lines(sanitize_metric_name(name) + "_seconds", summary, lines)
    if monitor is not None:
        for name, value in sorted(monitor.progress_gauges().items()):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(value)}")
    return "\n".join(lines) + "\n"


class MetricsSuite:
    """The metrics plane as a transport-agnostic route table.

    Renders ``/metrics``, ``/progress``, and ``/health`` bodies from
    the recorder/monitor state without owning a socket.  One HTTP
    front-end hosts it: ``--metrics-port`` serves it alone through
    :func:`repro.serve.http.suite_handler`, and ``repro serve`` mounts
    the *same* suite beside its routes — one ``/metrics`` per process.
    """

    PATHS = ["/metrics", "/progress", "/health"]

    def __init__(
        self,
        recorder: Optional[Any] = None,
        monitor: Optional[Any] = None,
    ) -> None:
        self.recorder = recorder
        self.monitor = monitor
        self._started_s = time.monotonic()
        self._metrics_sources: List[Any] = []

    def add_metrics_source(self, source: Any) -> None:
        """Register a callable returning extra Prometheus lines.

        Each source is invoked per ``/metrics`` scrape and must return
        a list of exposition lines (``# TYPE`` + samples).  This is how
        subsystems with their own state — the serve SLO registry — add
        series without the renderer importing them.
        """
        self._metrics_sources.append(source)

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started_s

    def progress_document(self) -> Dict[str, Any]:
        """The ``/progress`` JSON body (monitor snapshot + stalls)."""
        document: Dict[str, Any] = {"schema_version": SCHEMA_VERSION}
        if self.monitor is None:
            from .live import get_monitor

            monitor = get_monitor()
        else:
            monitor = self.monitor
        if monitor is None:
            document["active"] = False
            return document
        document["active"] = True
        document.update(monitor.snapshot())
        document["stalls"] = [dict(report) for report in monitor.stall_reports]
        return document

    def health_document(self) -> Dict[str, Any]:
        """The ``/health`` JSON body — liveness plus build provenance.

        ``provenance`` carries the same ``git_sha``/``python_version``
        that run manifests record and ``repro_build_info`` exposes on
        ``/metrics``, so "which build answered this probe" has one
        answer across all three surfaces (the parity test pins this).
        """
        from .manifest import run_provenance

        return {
            "status": "ok",
            "uptime_s": round(self.uptime_s, 3),
            "provenance": run_provenance(),
        }

    def handle(self, path: str) -> Optional[Tuple[int, str, bytes]]:
        """Resolve a GET path to ``(status, content_type, body)``.

        Returns ``None`` for paths outside the suite so the mounting
        server can route them elsewhere (or 404 in its own style).
        """
        path = path.split("?", 1)[0]
        if path == "/metrics":
            text = render_prometheus(
                recorder=self.recorder, monitor=self.monitor
            )
            extra: List[str] = []
            for source in self._metrics_sources:
                extra.extend(source())
            if extra:
                text += "\n".join(extra) + "\n"
            body = text.encode("utf-8")
            return 200, "text/plain; version=0.0.4; charset=utf-8", body
        if path == "/progress":
            body = json.dumps(self.progress_document(), sort_keys=True).encode(
                "utf-8"
            )
            return 200, "application/json", body
        if path in ("/health", "/healthz"):
            body = json.dumps(self.health_document(), sort_keys=True).encode(
                "utf-8"
            )
            return 200, "application/json", body
        return None
