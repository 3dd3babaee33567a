"""Structured JSONL access logging for ``repro serve``.

One line per completed request, carrying exactly the fields needed to
tie an access back to everything else the observability plane knows
about it: the ``trace_id`` keys into ``GET /v1/traces/<id>`` (and the
retained ring buffer), the ``disposition`` matches the response body's,
and the timing split (queue wait vs. handler time vs. total) matches
the request's span tree.

The log is a :class:`repro.obs.sinks.JsonlAppender`, the same writer
behind ``--live-out``: append mode, missing parent directories
created, one flushed line per request.  It starts with one
``access_meta`` header line identifying the schema and process.
``repro stats`` replays the file offline (see
:func:`repro.obs.stats.render_stats`).

Schema (``access_schema_version`` 1), documented in
``docs/OBSERVABILITY.md`` next to the live.jsonl schema:

``{"type": "access_meta", "access_schema_version": 1, "command",
"unix_s", "provenance"}``
    First line: schema version plus the same build provenance the run
    manifests record.

``{"type": "access", "unix_s", "trace_id", "span_id", "method",
"path", "endpoint", "status", "disposition", "queue_wait_ms",
"handler_ms", "duration_ms", "error"}``
    One per request.  ``endpoint`` is the normalized route template
    (``GET /v1/jobs/<id>``); ``queue_wait_ms`` is ``null`` for
    requests that never touched the dispatcher; ``disposition`` is
    ``computed`` | ``cache_hit`` | ``coalesced`` | ``null``.
"""

from __future__ import annotations

import pathlib
import time
from typing import Any, Dict, Optional, Union

from ..obs.sinks import JsonlAppender

#: Version stamp on the meta line and every access record.
ACCESS_SCHEMA_VERSION = 1


class AccessLog(JsonlAppender):
    """An append-only JSONL access log with a schema header line."""

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        super().__init__(path)
        self.write(self._meta_line())
        self.records_written = 0

    def _meta_line(self) -> Dict[str, Any]:
        from ..obs.manifest import run_provenance

        return {
            "type": "access_meta",
            "access_schema_version": ACCESS_SCHEMA_VERSION,
            "command": "serve",
            "unix_s": round(time.time(), 3),
            "provenance": run_provenance(),
        }

    def record(
        self,
        trace_id: str,
        span_id: str,
        method: str,
        path: str,
        endpoint: str,
        status: int,
        disposition: Optional[str],
        queue_wait_ms: Optional[float],
        handler_ms: float,
        duration_ms: float,
        error: Optional[str] = None,
    ) -> None:
        """Append one completed request."""
        self.write(
            {
                "type": "access",
                "access_schema_version": ACCESS_SCHEMA_VERSION,
                "unix_s": round(time.time(), 3),
                "trace_id": trace_id,
                "span_id": span_id,
                "method": method,
                "path": path,
                "endpoint": endpoint,
                "status": status,
                "disposition": disposition,
                "queue_wait_ms": round(queue_wait_ms, 3)
                if queue_wait_ms is not None
                else None,
                "handler_ms": round(handler_ms, 3),
                "duration_ms": round(duration_ms, 3),
                "error": error,
            }
        )
        self.records_written += 1
