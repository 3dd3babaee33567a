"""repro.serve — the async verification service over the result store.

The ROADMAP's north star made concrete: ``repro serve`` puts a
stdlib-only asyncio HTTP/JSON front-end over the content-addressed
store, turning the CLI's verification commands into service endpoints:

``POST /v1/claims``
    Verify one named linear/quadratic gadget claim.
``POST /v1/gadgets``
    Build one gadget graph (returned in the graph codec's shape).
``POST /v1/maxis``
    Solve MaxIS (exact or greedy) on a submitted graph.
``POST /v1/sweeps`` + ``GET /v1/jobs/<id>``
    Submit a Theorem 1/2 sweep asynchronously and poll its job handle.
``GET /v1/traces`` + ``GET /v1/traces/<id>``
    Per-request distributed traces: every request carries a W3C-style
    ``traceparent`` context (client-supplied or minted), its span tree
    is retained with tail-based sampling (slow/errored always kept),
    and a stored trace exports as a Perfetto-loadable Chrome trace via
    ``?format=chrome``.
``GET /health`` / ``/progress`` / ``/metrics``
    The observability plane, mounted from the same
    :class:`~repro.obs.httpexp.MetricsSuite` the standalone exporter
    uses — one ``/metrics`` per process, now including per-endpoint
    SLO attainment and error-budget-burn gauges.

Three tiers answer every request (see ``docs/SERVE.md``): loop-confined
coalescing of identical in-flight requests, the shared store as the
cache tier, and the parallel engine behind a bounded dispatch queue
that sheds overload as ``429 Retry-After``.
"""

from __future__ import annotations

from .app import SERVE_SCHEMA_VERSION, Application, BadRequest, endpoint_template
from .dispatch import DEFAULT_QUEUE_LIMIT, Backpressure, Dispatcher
from .slo import (
    DEFAULT_OBJECTIVE,
    DEFAULT_TARGETS_MS,
    SLORegistry,
    parse_slo_spec,
)
from .http import (
    MAX_BODY_BYTES,
    BackgroundServer,
    ProtocolError,
    Request,
    Response,
    json_response,
    run,
    start_server,
    suite_handler,
)

__all__ = [
    "Application",
    "BackgroundServer",
    "Backpressure",
    "BadRequest",
    "DEFAULT_OBJECTIVE",
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_TARGETS_MS",
    "Dispatcher",
    "MAX_BODY_BYTES",
    "ProtocolError",
    "Request",
    "Response",
    "SERVE_SCHEMA_VERSION",
    "SLORegistry",
    "endpoint_template",
    "json_response",
    "parse_slo_spec",
    "run",
    "start_server",
    "suite_handler",
]
