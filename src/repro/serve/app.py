"""The verification service: routes, coalescing, and the job table.

Every compute endpoint speaks the store's language.  A request is
normalized to a ``(job kind, kwargs)`` pair — the same shape the
parallel engine's work units carry — and keyed by the store's
content address (``parallel.<kind>`` over canonicalized kwargs and the
per-module source fingerprint).  That one key drives all three tiers:

1. **Coalescing** (this module): identical in-flight requests share one
   asyncio future in a loop-confined map.  The first request is the
   *leader* and dispatches the computation; followers await the same
   future and are answered with ``disposition: "coalesced"`` without
   ever touching the store or the queue.
2. **The shared cache** (:mod:`repro.store`): the leader consults the
   configured backend under the request key before computing; the
   sqlite-indexed disk backend makes warm answers survive restarts and
   be shared across processes.
3. **The engine** (:mod:`repro.parallel`): misses execute on the
   dispatcher thread via the same job-kind registry sweeps use, so a
   result computed by the service is byte-identical to one computed by
   the CLI — and vice versa: a sweep's cache entries warm the service.

Sweeps are asynchronous: ``POST /v1/sweeps`` returns ``202`` with a job
handle immediately and ``GET /v1/jobs/<id>`` reports progress and, when
done, the full report list.  Identical in-flight sweep submissions
coalesce onto one job id.

Every response carries ``serve_schema_version``, the request ``key``,
and a ``disposition`` (``computed`` | ``cache_hit`` | ``coalesced``) so
clients — and the CI smoke job — can audit exactly what each request
cost.  Malformed bodies are structured 400s; a full dispatch queue is a
429 with ``Retry-After``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
import urllib.parse
from typing import Any, Dict, List, Optional, Tuple

from .. import obs
from ..obs.httpexp import MetricsSuite
from ..obs.reqtrace import (
    RequestTrace,
    TraceBuffer,
    current_trace,
    format_traceparent,
    parse_traceparent,
    using_trace,
)
from .accesslog import AccessLog
from .dispatch import Backpressure, Dispatcher
from .http import Request, Response, json_response
from .slo import SLORegistry

_obs = obs.get_recorder()

#: Version stamp on every JSON response body.
SERVE_SCHEMA_VERSION = 1

#: Claim-check sample count when the request omits ``num_samples``.
DEFAULT_NUM_SAMPLES = 3

#: Jobs kept in the table after completion (oldest evicted first).
MAX_FINISHED_JOBS = 256


class BadRequest(Exception):
    """A structurally-invalid request; maps to a structured 400."""

    def __init__(self, message: str, **detail: Any) -> None:
        super().__init__(message)
        self.message = message
        self.detail = detail

    def document(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {"error": self.message}
        if self.detail:
            document["detail"] = self.detail
        return document


def _require_json_object(request: Request) -> Dict[str, Any]:
    if not request.body:
        raise BadRequest("request body must be a JSON object")
    try:
        document = json.loads(request.body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        raise BadRequest("request body is not valid JSON", reason=str(error))
    if not isinstance(document, dict):
        raise BadRequest(
            "request body must be a JSON object",
            got=type(document).__name__,
        )
    return document


def _int_field(
    document: Dict[str, Any],
    name: str,
    default: Optional[int] = None,
    minimum: Optional[int] = None,
) -> Optional[int]:
    value = document.get(name, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"field {name!r} must be an integer", got=value)
    if minimum is not None and value < minimum:
        raise BadRequest(f"field {name!r} must be >= {minimum}", got=value)
    return value


def _choice_field(
    document: Dict[str, Any], name: str, choices: Tuple[str, ...]
) -> str:
    value = document.get(name)
    if value not in choices:
        raise BadRequest(
            f"field {name!r} must be one of {list(choices)}", got=value
        )
    return value


def _gadget_parameters(document: Dict[str, Any]) -> Any:
    from ..gadgets import GadgetParameters

    params = document.get("params")
    if not isinstance(params, dict):
        raise BadRequest(
            "field 'params' must be an object with ell/alpha/t (and optional k)"
        )
    unknown = sorted(set(params) - {"ell", "alpha", "t", "k"})
    if unknown:
        raise BadRequest("unknown parameter fields", fields=unknown)
    ell = _int_field(params, "ell", minimum=1)
    alpha = _int_field(params, "alpha", minimum=1)
    t = _int_field(params, "t", minimum=1)
    if ell is None or alpha is None or t is None:
        raise BadRequest("fields 'ell', 'alpha', 't' are required in params")
    k = _int_field(params, "k", default=None, minimum=1)
    try:
        return GadgetParameters(ell=ell, alpha=alpha, t=t, k=k)
    except (ValueError, AssertionError) as error:
        raise BadRequest("invalid gadget parameters", reason=str(error))


def _codec_document(codec_name: str, value: Any) -> Any:
    """Encode ``value`` through a store codec, then parse the bytes back.

    The response embeds the *codec's* canonical JSON — re-dumping the
    returned object with ``sort_keys=True, separators=(",", ":")``
    reproduces the stored payload byte for byte, which is exactly what
    the round-trip tests assert.
    """
    from ..store import get_codec

    return json.loads(get_codec(codec_name).encode(value).decode("utf-8"))


def endpoint_template(method: str, path: str) -> str:
    """Normalize a request to its route template for SLO/log grouping.

    Path parameters collapse (``GET /v1/jobs/job-3`` → ``GET
    /v1/jobs/<id>``) so per-endpoint series stay bounded no matter how
    many jobs or traces exist.
    """
    if path.startswith("/v1/jobs/") and path != "/v1/jobs/":
        path = "/v1/jobs/<id>"
    elif path.startswith("/v1/traces/") and path != "/v1/traces/":
        path = "/v1/traces/<id>"
    return f"{method} {path}"


class Application:
    """Routing + coalescing over one dispatcher and one metrics suite."""

    def __init__(
        self,
        dispatcher: Optional[Dispatcher] = None,
        suite: Optional[MetricsSuite] = None,
        workers: int = 1,
        traces: Optional[TraceBuffer] = None,
        slo: Optional[SLORegistry] = None,
        access_log: Optional[AccessLog] = None,
    ) -> None:
        self.dispatcher = dispatcher if dispatcher is not None else Dispatcher()
        self.suite = suite if suite is not None else MetricsSuite()
        self.workers = workers
        #: Completed request traces, tail-sampled (slow/errored kept).
        self.traces = traces if traces is not None else TraceBuffer()
        #: Per-endpoint latency objectives; its gauges ride /metrics.
        self.slo = slo if slo is not None else SLORegistry()
        self.suite.add_metrics_source(self.slo.prometheus_lines)
        #: Optional structured JSONL access log (one line per request).
        self.access_log = access_log
        #: Loop-confined coalescing map: request key -> (in-flight
        #: future, leader trace id, leader root span id); the ids are
        #: ``None`` when the leader ran untraced.
        self._inflight: Dict[
            str, Tuple["asyncio.Future[Any]", Optional[str], Optional[str]]
        ] = {}
        #: The job table for async sweeps, insertion-ordered.
        self._jobs: Dict[str, Dict[str, Any]] = {}
        #: In-flight sweep coalescing: sweep key -> job id.
        self._sweeps_inflight: Dict[str, str] = {}
        self._job_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Keying and computation
    # ------------------------------------------------------------------

    def request_key(self, kind: str, kwargs: Dict[str, Any]) -> str:
        """The store's content address for one unit — engine-compatible.

        Matches ``parallel.engine._unit_key`` exactly, so service
        traffic and CLI sweeps share cache entries for the same work.
        """
        from ..store import JOB_SPECS, combined_fingerprint, derive_key

        spec = JOB_SPECS[kind]
        return derive_key(
            f"parallel.{kind}", kwargs, combined_fingerprint(spec.modules)
        )

    def _compute_sync(
        self, kind: str, kwargs: Dict[str, Any], key: str
    ) -> Tuple[Any, str]:
        """Dispatcher-thread body: consult the store, else compute + put.

        Runs inside the submitting request's context (the dispatcher
        replays the captured context), so every phase lands as a span
        on the ambient request trace: ``store.lookup`` (with its
        hit/miss/off outcome — always emitted, so every trace tree has
        the same shape), ``execute.<kind>``, and ``store.write``.
        """
        from ..store import JOB_SPECS, MISS, get_store

        trace = current_trace()
        store = get_store()
        if store is not None:
            if trace is not None:
                with trace.span("store.lookup") as span:
                    value = store.get(key)
                    span.params["outcome"] = "hit" if value is not MISS else "miss"
            else:
                value = store.get(key)
            if value is not MISS:
                return value, "cache_hit"
        elif trace is not None:
            trace.add_span(
                "store.lookup",
                start_s=time.perf_counter(),
                duration_s=0.0,
                params={"outcome": "off"},
            )
        value = self._execute_traced(kind, kwargs, trace)
        if store is not None:
            if trace is not None:
                with trace.span("store.write"):
                    store.put(
                        key, f"parallel.{kind}", JOB_SPECS[kind].codec, value
                    )
            else:
                store.put(key, f"parallel.{kind}", JOB_SPECS[kind].codec, value)
        return value, "computed"

    def _execute_traced(
        self, kind: str, kwargs: Dict[str, Any], trace: Optional[RequestTrace]
    ) -> Any:
        """Run one unit, rebasing its recorder spans into the trace.

        Always records an ``execute.<kind>`` span.  When the process
        recorder is enabled (the ``repro serve`` CLI path), the unit
        runs inside a ``serve.<kind>`` recorder span, and the closed
        spans after it — kernelization phases, the solver itself — are
        rebased under the execute span, so ``GET /v1/traces/<id>`` shows
        where the solve's time went, not just that it happened.  Those
        spans are then trimmed from the recorder so a long-running
        service's span list stays bounded; aggregate counters and
        histograms are untouched.
        """
        from ..parallel.jobs import execute_unit

        if trace is None:
            return execute_unit(kind, kwargs)
        with trace.span(f"execute.{kind}", kind=kind) as execute:
            if not _obs.enabled:
                return execute_unit(kind, kwargs)
            base = len(_obs.spans)
            with _obs.span(f"serve.{kind}") as wrapper:
                value = execute_unit(kind, kwargs)
            if len(_obs.spans) > base and _obs.spans[base] is wrapper:
                adopted = trace.adopt(_obs.spans[base + 1 :], parent=execute.index)
                if adopted:
                    execute.params["recorder_spans"] = adopted
                if not _obs._stack:
                    del _obs.spans[base:]
            return value

    async def _coalesced_compute(
        self, kind: str, kwargs: Dict[str, Any]
    ) -> Tuple[Any, str, str]:
        """Run one unit, coalescing identical in-flight requests.

        Returns ``(value, key, disposition)``.  The leader dispatches;
        followers await the leader's future and never touch the queue,
        so a stampede of N identical requests costs one submission.
        """
        key = self.request_key(kind, kwargs)
        trace = current_trace()
        existing = self._inflight.get(key)
        if existing is not None:
            _obs.incr("serve.coalesced")
            future, leader_trace_id, leader_span_id = existing
            if trace is not None:
                with trace.span("serve.coalesced_wait", key=key) as span:
                    if leader_trace_id is not None:
                        trace.link(
                            leader_trace_id, leader_span_id, "coalesced_with"
                        )
                        span.params["leader_trace_id"] = leader_trace_id
                    value, _ = await asyncio.shield(future)
            else:
                value, _ = await asyncio.shield(future)
            return value, key, "coalesced"
        future = asyncio.get_running_loop().create_future()
        if trace is None:
            self._inflight[key] = (future, None, None)
        else:
            self._inflight[key] = (future, trace.trace_id, trace.root_span_id)
        try:
            pending = self.dispatcher.submit(
                lambda: self._compute_sync(kind, kwargs, key)
            )
            value, disposition = await asyncio.wrap_future(pending)
        except BaseException as error:
            if not future.done():
                future.set_exception(error)
                # Followers may or may not exist; an unawaited exception
                # must not warn at GC time.
                future.exception()
            raise
        else:
            if not future.done():
                future.set_result((value, disposition))
            _obs.incr(f"serve.{disposition}")  # serve.computed | serve.cache_hit
            if disposition == "computed":
                _obs.incr("serve.cache_miss")
            return value, key, disposition
        finally:
            self._inflight.pop(key, None)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    async def dispatch(self, request: Request) -> Response:
        """Route one request; every failure mode is a structured body.

        The tracing boundary.  Each request gets a :class:`RequestTrace`
        — continuing the client's ``traceparent`` when it parses,
        freshly minted otherwise (a malformed header must degrade to a
        new trace, never to a 500) — bound as the ambient trace for the
        whole handling path.  On completion the trace is finished,
        admitted to the tail-sampling buffer, scored against the
        endpoint's SLO, logged to the access log, and echoed back as a
        ``traceparent`` response header.
        """
        path = request.path.split("?", 1)[0]
        endpoint = endpoint_template(request.method, path)
        _obs.incr_keyed("serve.requests", f"{request.method} {path}")
        remote = parse_traceparent(request.headers.get("traceparent"))
        trace = RequestTrace(
            trace_id=remote.trace_id if remote is not None else None,
            endpoint=endpoint,
            method=request.method,
            path=request.path,
            remote_context=remote,
            received_s=request.received_s,
        )
        error_text: Optional[str] = None
        started_s = time.perf_counter()
        with using_trace(trace):
            try:
                response = await self._route(request.method, path, request)
            except BadRequest as error:
                _obs.incr("serve.bad_request")
                error_text = error.message
                response = json_response(400, error.document())
            except Backpressure as error:
                error_text = "backpressure"
                response = json_response(
                    429,
                    {
                        "error": "dispatch queue full",
                        "pending": error.pending,
                        "queue_limit": error.limit,
                        "retry_after_s": error.retry_after_s,
                    },
                    headers={"Retry-After": str(int(error.retry_after_s + 0.5))},
                )
            except Exception as error:  # noqa: BLE001 — boundary: socket, not traceback
                _obs.incr("serve.errors")
                error_text = repr(error)
                response = json_response(
                    500, {"error": "internal error", "exception": repr(error)}
                )
        handler_ms = (time.perf_counter() - started_s) * 1000.0
        _obs.observe("serve.request_ms", handler_ms)
        trace.finish(
            status=response.status,
            disposition=trace.disposition,
            error=error_text,
        )
        response.headers["traceparent"] = format_traceparent(
            trace.trace_id, trace.root_span_id
        )
        self.traces.admit(trace)
        breached = self.slo.observe(
            endpoint, trace.duration_ms, response.status, trace_id=trace.trace_id
        )
        if breached:
            _obs.incr_keyed("serve.slo_breaches", endpoint)
        if self.access_log is not None:
            self.access_log.record(
                trace_id=trace.trace_id,
                span_id=trace.root_span_id,
                method=request.method,
                path=request.path,
                endpoint=endpoint,
                status=response.status,
                disposition=trace.disposition,
                queue_wait_ms=trace.span_total_ms("dispatch.queue"),
                handler_ms=handler_ms,
                duration_ms=trace.duration_ms,
                error=error_text,
            )
        return response

    async def _route(
        self, method: str, path: str, request: Request
    ) -> Response:
        if path in ("/metrics", "/progress", "/health", "/healthz"):
            if method != "GET":
                return self._method_not_allowed(path, allowed="GET")
            if path in ("/health", "/healthz"):
                return json_response(200, self._health_document())
            status, content_type, body = self.suite.handle(path)
            return Response(status, content_type, body)
        if path == "/" or path == "/v1":
            if method != "GET":
                return self._method_not_allowed(path, allowed="GET")
            return json_response(200, self._index_document())
        if path == "/v1/claims":
            return await self._guard_post(method, path, self._claims, request)
        if path == "/v1/gadgets":
            return await self._guard_post(method, path, self._gadgets, request)
        if path == "/v1/maxis":
            return await self._guard_post(method, path, self._maxis, request)
        if path == "/v1/sweeps":
            return await self._guard_post(method, path, self._sweeps, request)
        if path == "/v1/jobs":
            if method != "GET":
                return self._method_not_allowed(path, allowed="GET")
            return json_response(200, self._jobs_document())
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                return self._method_not_allowed(path, allowed="GET")
            return self._job(path[len("/v1/jobs/"):])
        if path == "/v1/traces":
            if method != "GET":
                return self._method_not_allowed(path, allowed="GET")
            return json_response(200, self._traces_document())
        if path.startswith("/v1/traces/"):
            if method != "GET":
                return self._method_not_allowed(path, allowed="GET")
            return self._trace(path[len("/v1/traces/"):], request)
        _obs.incr("serve.not_found")
        return json_response(
            404, {"error": "unknown path", "paths": self._known_paths()}
        )

    async def _guard_post(
        self, method: str, path: str, handler: Any, request: Request
    ) -> Response:
        if method != "POST":
            return self._method_not_allowed(path, allowed="POST")
        return await handler(request)

    def _method_not_allowed(self, path: str, allowed: str) -> Response:
        return json_response(
            405,
            {"error": f"method not allowed on {path}", "allowed": [allowed]},
            headers={"Allow": allowed},
        )

    def _known_paths(self) -> List[str]:
        return [
            "/",
            "/health",
            "/metrics",
            "/progress",
            "/v1/claims",
            "/v1/gadgets",
            "/v1/jobs",
            "/v1/jobs/<id>",
            "/v1/maxis",
            "/v1/sweeps",
            "/v1/traces",
            "/v1/traces/<id>",
        ]

    def _index_document(self) -> Dict[str, Any]:
        return {
            "serve_schema_version": SERVE_SCHEMA_VERSION,
            "service": "repro-serve",
            "endpoints": {
                "POST /v1/claims": "verify one named gadget claim",
                "POST /v1/gadgets": "build one gadget graph",
                "POST /v1/maxis": "solve MaxIS on a submitted graph",
                "POST /v1/sweeps": "submit an async sweep job",
                "GET /v1/jobs": "list sweep jobs",
                "GET /v1/jobs/<id>": "poll one sweep job",
                "GET /v1/traces": "recent request-trace summaries",
                "GET /v1/traces/<id>": "one trace's span tree (?format=chrome)",
                "GET /health": "liveness + queue stats",
                "GET /progress": "live monitor snapshot",
                "GET /metrics": "Prometheus exposition",
            },
        }

    def _health_document(self) -> Dict[str, Any]:
        document = self.suite.health_document()
        document["serve_schema_version"] = SERVE_SCHEMA_VERSION
        document["dispatch"] = self.dispatcher.stats()
        document["inflight"] = len(self._inflight)
        document["jobs"] = {
            "total": len(self._jobs),
            "active": sum(
                1
                for job in self._jobs.values()
                if job["status"] in ("queued", "running")
            ),
        }
        from ..store import store_mode

        document["cache"] = store_mode()
        document["traces"] = self.traces.stats()
        document["slo"] = self.slo.snapshot()
        return document

    # ------------------------------------------------------------------
    # Trace endpoints
    # ------------------------------------------------------------------

    def _traces_document(self) -> Dict[str, Any]:
        from ..obs.reqtrace import TRACE_SCHEMA_VERSION

        return {
            "serve_schema_version": SERVE_SCHEMA_VERSION,
            "trace_schema_version": TRACE_SCHEMA_VERSION,
            "buffer": self.traces.stats(),
            "traces": self.traces.summaries(),
        }

    def _trace(self, trace_id: str, request: Request) -> Response:
        trace = self.traces.get(trace_id)
        if trace is None:
            return json_response(
                404,
                {
                    "error": f"unknown trace {trace_id!r}",
                    "hint": "completed traces are retained in a bounded "
                    "buffer; list recent ids at /v1/traces",
                },
            )
        query = urllib.parse.parse_qs(urllib.parse.urlsplit(request.path).query)
        if query.get("format") == ["chrome"]:
            from ..obs.export import chrome_trace, dump_trace

            trace_document = chrome_trace(
                trace.spans, trace_name=f"trace {trace.trace_id}"
            )
            return Response(
                200,
                "application/json",
                dump_trace(trace_document).encode("utf-8"),
            )
        document = trace.to_document()
        document["serve_schema_version"] = SERVE_SCHEMA_VERSION
        return json_response(200, document)

    # ------------------------------------------------------------------
    # Compute endpoints
    # ------------------------------------------------------------------

    def _respond_unit(
        self, kind: str, value: Any, key: str, disposition: str
    ) -> Response:
        from ..store import JOB_SPECS

        trace = current_trace()
        if trace is not None:
            trace.disposition = disposition
        return json_response(
            200,
            {
                "serve_schema_version": SERVE_SCHEMA_VERSION,
                "kind": kind,
                "key": key,
                "disposition": disposition,
                "codec": JOB_SPECS[kind].codec,
                "result": _codec_document(JOB_SPECS[kind].codec, value),
            },
        )

    async def _claims(self, request: Request) -> Response:
        from ..core import QUADRATIC_CLAIM_NAMES, linear_claim_names

        document = _require_json_object(request)
        family = _choice_field(document, "family", ("linear", "quadratic"))
        params = _gadget_parameters(document)
        name = document.get("name")
        if family == "linear":
            valid = list(linear_claim_names(params))
            num_samples = _int_field(
                document, "num_samples", default=DEFAULT_NUM_SAMPLES, minimum=1
            )
        else:
            valid = list(QUADRATIC_CLAIM_NAMES)
            requested = _int_field(
                document, "num_samples", default=DEFAULT_NUM_SAMPLES, minimum=1
            )
            num_samples = max(1, requested // 2) if requested else 1
        if name not in valid:
            raise BadRequest(
                f"unknown {family} claim name", got=name, valid=valid
            )
        kind = f"{family}_claim"
        kwargs = {
            "ell": params.ell,
            "alpha": params.alpha,
            "t": params.t,
            "k": params.k,
            "name": name,
            "num_samples": num_samples,
        }
        value, key, disposition = await self._coalesced_compute(kind, kwargs)
        return self._respond_unit(kind, value, key, disposition)

    async def _gadgets(self, request: Request) -> Response:
        document = _require_json_object(request)
        construction = _choice_field(
            document, "construction", ("linear", "quadratic")
        )
        params = _gadget_parameters(document)
        kind = "gadget_graph"
        kwargs = {
            "construction": construction,
            "ell": params.ell,
            "alpha": params.alpha,
            "t": params.t,
            "k": params.k,
        }
        value, key, disposition = await self._coalesced_compute(kind, kwargs)
        return self._respond_unit(kind, value, key, disposition)

    async def _maxis(self, request: Request) -> Response:
        from ..graphs.serialize import graph_from_dict

        document = _require_json_object(request)
        mode = document.get("mode", "exact")
        if mode not in ("exact", "greedy"):
            raise BadRequest(
                "field 'mode' must be one of ['exact', 'greedy']", got=mode
            )
        graph_document = document.get("graph")
        if not isinstance(graph_document, dict):
            raise BadRequest(
                "field 'graph' must be a serialized graph object "
                "(see repro.graphs.serialize.graph_to_dict)"
            )
        try:
            graph = graph_from_dict(graph_document)
        except (KeyError, TypeError, ValueError) as error:
            raise BadRequest("malformed graph payload", reason=str(error))
        kind = "maxis_solve"
        kwargs = {"graph": graph, "mode": mode}
        value, key, disposition = await self._coalesced_compute(kind, kwargs)
        return self._respond_unit(kind, value, key, disposition)

    # ------------------------------------------------------------------
    # Async sweep jobs
    # ------------------------------------------------------------------

    async def _sweeps(self, request: Request) -> Response:
        from ..parallel.engine import theorem1_units, theorem2_units
        from ..store import SWEEP_MODULES, combined_fingerprint, derive_key

        document = _require_json_object(request)
        sweep = _choice_field(document, "sweep", ("theorem1", "theorem2"))
        max_t = _int_field(document, "max_t", default=3, minimum=2)
        seed = _int_field(document, "seed", default=0, minimum=0)
        if sweep == "theorem1":
            num_samples = _int_field(
                document, "num_samples", default=2, minimum=1
            )
            units = theorem1_units(max_t, num_samples=num_samples, seed=seed)
        else:
            num_samples = _int_field(
                document, "num_samples", default=1, minimum=1
            )
            units = theorem2_units(max_t, num_samples=num_samples, seed=seed)
        if not units:
            raise BadRequest(
                "sweep grid is empty at these parameters", sweep=sweep, max_t=max_t
            )
        sweep_params = {
            "sweep": sweep,
            "max_t": max_t,
            "num_samples": num_samples,
            "seed": seed,
        }
        sweep_key = derive_key(
            "serve.sweep", sweep_params, combined_fingerprint(SWEEP_MODULES)
        )
        existing_id = self._sweeps_inflight.get(sweep_key)
        trace = current_trace()
        if existing_id is not None:
            _obs.incr("serve.coalesced")
            if trace is not None:
                trace.disposition = "coalesced"
            job = self._jobs[existing_id]
            return json_response(
                202, self._job_document(job, disposition="coalesced")
            )
        job_id = f"job-{next(self._job_ids)}"
        job: Dict[str, Any] = {
            "job_id": job_id,
            "sweep": sweep_params,
            "key": sweep_key,
            "status": "queued",
            "units": len(units),
            "submitted_unix_s": round(time.time(), 3),
            "started_unix_s": None,
            "finished_unix_s": None,
            "result": None,
            "error": None,
        }
        self._jobs[job_id] = job
        self._evict_finished_jobs()
        self._sweeps_inflight[sweep_key] = job_id
        loop = asyncio.get_running_loop()

        def run_sweep() -> List[Any]:
            from ..parallel.engine import run_units

            job["status"] = "running"
            job["started_unix_s"] = round(time.time(), 3)
            return run_units(units, workers=self.workers)

        try:
            pending = self.dispatcher.submit(run_sweep)
        except Backpressure:
            self._jobs.pop(job_id, None)
            self._sweeps_inflight.pop(sweep_key, None)
            raise
        kinds = [unit.kind for unit in units]
        pending.add_done_callback(
            lambda future: loop.call_soon_threadsafe(
                self._finish_job, job_id, sweep_key, kinds, future
            )
        )
        _obs.incr("serve.sweeps_submitted")
        if trace is not None:
            trace.disposition = "submitted"
        return json_response(202, self._job_document(job, disposition="submitted"))

    def _finish_job(
        self, job_id: str, sweep_key: str, kinds: List[str], future: Any
    ) -> None:
        self._sweeps_inflight.pop(sweep_key, None)
        job = self._jobs.get(job_id)
        if job is None:
            return
        job["finished_unix_s"] = round(time.time(), 3)
        error = future.exception()
        if error is not None:
            job["status"] = "failed"
            job["error"] = repr(error)
            _obs.incr("serve.sweeps_failed")
            return
        from ..store import JOB_SPECS

        results = future.result()
        job["result"] = [
            _codec_document(JOB_SPECS[kind].codec, value)
            for kind, value in zip(kinds, results)
        ]
        job["status"] = "done"
        _obs.incr("serve.sweeps_done")

    def _evict_finished_jobs(self) -> None:
        finished = [
            job_id
            for job_id, job in self._jobs.items()
            if job["status"] in ("done", "failed")
        ]
        for job_id in finished[: max(0, len(finished) - MAX_FINISHED_JOBS)]:
            del self._jobs[job_id]

    def _job_document(
        self, job: Dict[str, Any], disposition: Optional[str] = None
    ) -> Dict[str, Any]:
        document = {
            "serve_schema_version": SERVE_SCHEMA_VERSION,
            "job_id": job["job_id"],
            "href": f"/v1/jobs/{job['job_id']}",
            "status": job["status"],
            "units": job["units"],
            "key": job["key"],
            "sweep": job["sweep"],
            "submitted_unix_s": job["submitted_unix_s"],
            "started_unix_s": job["started_unix_s"],
            "finished_unix_s": job["finished_unix_s"],
        }
        if disposition is not None:
            document["disposition"] = disposition
        if job["status"] == "done":
            document["result"] = job["result"]
        if job["status"] == "failed":
            document["error"] = job["error"]
        return document

    def _jobs_document(self) -> Dict[str, Any]:
        jobs = [
            {
                "job_id": job["job_id"],
                "href": f"/v1/jobs/{job['job_id']}",
                "status": job["status"],
                "units": job["units"],
            }
            for job in self._jobs.values()
        ]
        return {
            "serve_schema_version": SERVE_SCHEMA_VERSION,
            "jobs": jobs,
        }

    def _job(self, job_id: str) -> Response:
        job = self._jobs.get(job_id)
        if job is None:
            return json_response(
                404,
                {
                    "error": f"unknown job {job_id!r}",
                    "jobs": sorted(self._jobs),
                },
            )
        return json_response(200, self._job_document(job))

    def close(self) -> None:
        """Release the dispatcher (the HTTP layer owns the sockets)."""
        self.dispatcher.close()
        if self.access_log is not None:
            self.access_log.close()
