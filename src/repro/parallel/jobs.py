"""Picklable work-unit functions executed inside worker processes.

Every heavy, independently-verifiable computation in the reproduction
is exposed here as a *job kind*: a module-level function (so it pickles
under every multiprocessing start method) taking only picklable keyword
arguments and returning a picklable result.  The engine ships
``(unit id, kind, kwargs)`` payloads to workers; :func:`execute_chunk`
is the single entry point a worker runs.

Job kinds
---------
``theorem1_point``   one (t) point of the Theorem 1 linear sweep
``theorem2_point``   one (ell, t) point of the Theorem 2 quadratic sweep
``linear_claim``     one named linear-construction claim verification
``quadratic_claim``  one named quadratic-construction claim verification
``maxis_weight``     exact MaxIS weight of one (gadget) graph
``gadget_graph``     build one linear/quadratic gadget graph
``maxis_solve``      MaxIS weight + witness of one graph (exact or greedy)
``probe``            trivial instrumented job used by the test suite
``nap``              sleep-then-return job used by the live/watchdog tests

Live telemetry contract: when the process backend runs with a live
monitor, each worker is initialized with :func:`init_live_channel` —
a multiprocessing queue plus a daemon heartbeat thread that announces
the worker pid every ``heartbeat_interval_s`` for the parent's stall
watchdog — and :func:`execute_chunk` sends ``unit_start``/
``unit_done`` lifecycle events over the same queue.  Every send is
best-effort: a parent that already tore the queue down must not crash
a still-draining worker.

Observability contract: when a payload's ``record_obs`` flag is set the
worker records the unit under a fresh worker-local recorder and returns
its closed state (:meth:`repro.obs.Recorder.snapshot`) next to the
result, so the parent can merge spans/counters/histograms as if the
work had run in-process.  Workers first :meth:`hard_reset
<repro.obs.Recorder.hard_reset>` the process-wide recorder: under a
forking start method they inherit the parent's recorder mid-recording
(open command span, live JSONL sink on a shared file descriptor) and
must touch neither.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs

#: ``(unit index, kind, kwargs, record_obs)`` as shipped to workers.
Payload = Tuple[int, str, Dict[str, Any], bool]

#: ``(unit index, result, snapshot-or-None)`` as shipped back.
Outcome = Tuple[int, Any, Optional[Dict[str, Any]]]

#: Worker-side live channel (a multiprocessing queue), set by
#: :func:`init_live_channel` when the pool runs under a live monitor.
_LIVE_CHANNEL: Optional[Any] = None


def _channel_send(event: Dict[str, Any]) -> None:
    """Best-effort put on the live channel; never raises."""
    channel = _LIVE_CHANNEL
    if channel is None:
        return
    try:
        channel.put(event)
    except Exception:  # parent gone / queue closed: telemetry only
        pass


def _heartbeat_loop(interval_s: float) -> None:
    pid = os.getpid()
    while True:
        _channel_send({"type": "heartbeat", "worker": pid})
        time.sleep(interval_s)


def init_live_channel(channel: Any, heartbeat_interval_s: float) -> None:
    """Pool-worker initializer: bind the live channel, start heartbeats.

    Passed as ``ProcessPoolExecutor(initializer=...)`` so the queue
    crosses the process boundary through process creation (inherited
    under ``fork``, spawn-pickled otherwise) rather than through the
    executor's call pipe, which multiprocessing queues refuse.  The
    heartbeat thread is a daemon and keeps announcing this pid even
    while the main thread grinds through a long unit — only a truly
    wedged process (SIGSTOP, deadlock, death) goes silent, which is
    exactly the signal the parent's watchdog keys on.
    """
    global _LIVE_CHANNEL
    _LIVE_CHANNEL = channel
    _channel_send({"type": "heartbeat", "worker": os.getpid()})
    threading.Thread(
        target=_heartbeat_loop,
        args=(heartbeat_interval_s,),
        name="repro-live-heartbeat",
        daemon=True,
    ).start()


def _theorem1_point(t: int, num_samples: int, seed: int) -> Any:
    """One Theorem 1 sweep point: the experiment report at player count ``t``."""
    from ..core import LinearLowerBoundExperiment
    from ..gadgets import smallest_meaningful_linear_parameters

    params = smallest_meaningful_linear_parameters(t)
    return LinearLowerBoundExperiment(params, seed=seed).run(num_samples=num_samples)


def _theorem2_point(ell: int, t: int, num_samples: int, seed: int) -> Any:
    """One Theorem 2 sweep point: the experiment report at ``(ell, t)``."""
    from ..core import QuadraticLowerBoundExperiment
    from ..gadgets import GadgetParameters

    params = GadgetParameters(ell=ell, alpha=1, t=t)
    return QuadraticLowerBoundExperiment(params, seed=seed).run(
        num_samples=num_samples
    )


def _linear_claim(
    name: str, ell: int, alpha: int, t: int, k: Optional[int], num_samples: int
) -> Any:
    """One linear-construction claim check (rebuilds the construction)."""
    from ..core import run_linear_claim
    from ..gadgets import GadgetParameters

    params = GadgetParameters(ell=ell, alpha=alpha, t=t, k=k)
    return run_linear_claim(name, params, num_samples=num_samples)


def _quadratic_claim(
    name: str, ell: int, alpha: int, t: int, k: Optional[int], num_samples: int
) -> Any:
    """One quadratic-construction claim check."""
    from ..core import run_quadratic_claim
    from ..gadgets import GadgetParameters

    params = GadgetParameters(ell=ell, alpha=alpha, t=t, k=k)
    return run_quadratic_claim(name, params, num_samples=num_samples)


def _maxis_weight(graph: Any) -> float:
    """Exact maximum independent set weight of one graph."""
    from ..maxis import max_independent_set_weight

    return max_independent_set_weight(graph)


def _gadget_graph(
    construction: str, ell: int, alpha: int, t: int, k: Optional[int] = None
) -> Any:
    """Build one gadget graph (``linear`` or ``quadratic`` construction)."""
    from ..gadgets import GadgetParameters, LinearConstruction, QuadraticConstruction

    params = GadgetParameters(ell=ell, alpha=alpha, t=t, k=k)
    if construction == "linear":
        return LinearConstruction(params).graph
    if construction == "quadratic":
        return QuadraticConstruction(params).graph
    raise ValueError(
        f"unknown construction {construction!r}; expected linear|quadratic"
    )


def _maxis_solve(graph: Any, mode: str = "exact") -> Dict[str, Any]:
    """Solve MaxIS on one graph, returning the weight and its witness.

    ``mode`` picks the solver: ``exact`` (branch-and-bound optimum) or
    ``greedy`` (the best greedy lower bound).  The witness nodes are
    serialized and canonically sorted so the payload is
    byte-deterministic under the json codec.
    """
    import json as _json

    from ..graphs.serialize import encode_node
    from ..maxis import best_greedy, max_weight_independent_set

    if mode == "exact":
        result = max_weight_independent_set(graph)
    elif mode == "greedy":
        result = best_greedy(graph)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected exact|greedy")
    witness = sorted(
        (encode_node(node) for node in result.nodes),
        key=lambda item: _json.dumps(item, sort_keys=True),
    )
    return {"mode": mode, "weight": result.weight, "witness": witness}


def _nap(seconds: float, value: float = 0.0) -> float:
    """Sleep ``seconds`` then return ``value`` (live/watchdog tests).

    The closest thing to a pure "long unit": deterministic result,
    tunable wall time, no dependence on process state — which is what
    the stall-watchdog tests need to SIGSTOP a worker mid-unit and
    still compare merged results byte for byte.
    """
    time.sleep(seconds)
    return value


def _probe(x: float) -> float:
    """Square ``x`` while exercising every instrument kind (tests only)."""
    recorder = obs.get_recorder()
    recorder.incr("parallel.probe_calls")
    recorder.incr_keyed("parallel.probe_inputs", str(x))
    recorder.gauge("parallel.probe_last", x)
    recorder.observe("parallel.probe_values", x)
    with recorder.span("probe", x=x):
        with recorder.time("probe.square"):
            return x * x


JOB_KINDS: Dict[str, Callable[..., Any]] = {
    "theorem1_point": _theorem1_point,
    "theorem2_point": _theorem2_point,
    "linear_claim": _linear_claim,
    "quadratic_claim": _quadratic_claim,
    "maxis_weight": _maxis_weight,
    "gadget_graph": _gadget_graph,
    "maxis_solve": _maxis_solve,
    "probe": _probe,
    "nap": _nap,
}


def execute_unit(kind: str, kwargs: Dict[str, Any]) -> Any:
    """Run one unit in the current process (shared by both backends)."""
    try:
        fn = JOB_KINDS[kind]
    except KeyError:
        raise KeyError(
            f"unknown job kind {kind!r}; known: {sorted(JOB_KINDS)}"
        ) from None
    return fn(**kwargs)


def execute_chunk(
    payloads: Sequence[Payload],
    unit_uids: Optional[Dict[int, str]] = None,
) -> List[Outcome]:
    """Worker entry point: run a chunk of payloads, one recording each.

    Every unit that asks for observability runs under its own
    ``obs.recording()`` block and returns its own snapshot — per-unit
    snapshots are what lets the parent merge in unit order regardless
    of which worker finished first (deterministic, order-independent
    reduce).

    ``unit_uids`` maps unit indices to their stable work-unit ids; when
    a live channel is bound (:func:`init_live_channel`) each unit's
    start and completion are announced on it under that id, which is
    how the parent's monitor attributes in-flight units to worker pids.
    """
    recorder = obs.get_recorder()
    recorder.hard_reset()
    pid = os.getpid()
    uids = dict(unit_uids or {})
    outcomes: List[Outcome] = []
    for unit_index, kind, kwargs, record_obs in payloads:
        uid = uids.get(unit_index, f"unit/{unit_index}")
        _channel_send({"type": "unit_start", "uid": uid, "worker": pid})
        started_s = time.perf_counter()
        snapshot: Optional[Dict[str, Any]] = None
        if record_obs:
            with obs.recording() as recorder:
                result = execute_unit(kind, kwargs)
            snapshot = recorder.snapshot()
            recorder.hard_reset()
        else:
            result = execute_unit(kind, kwargs)
        _channel_send(
            {
                "type": "unit_done",
                "uid": uid,
                "worker": pid,
                "duration_s": time.perf_counter() - started_s,
            }
        )
        outcomes.append((unit_index, result, snapshot))
    return outcomes
