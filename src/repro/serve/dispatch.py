"""The bounded dispatch queue between the event loop and the engine.

``repro serve`` accepts requests on an asyncio event loop but computes
them with the same machinery the CLI uses: :func:`repro.parallel.jobs.
execute_unit` for single units and :func:`repro.parallel.engine.
run_units` for whole sweeps.  Neither is async, and the obs recorder's
span stack is deliberately lock-free (one writer per process), so the
service funnels *all* computation through one dispatcher thread — the
event loop stays responsive, spans stay well-nested, and parallelism
comes from the engine's process pool underneath, not from racing
dispatcher threads.

The queue is bounded by *pending count*, not bytes: once ``queue_limit``
submissions are waiting or running, :meth:`Dispatcher.submit` raises
:class:`Backpressure` and the HTTP layer turns it into ``429`` with a
``Retry-After`` estimated from the queue depth times an exponential
moving average of recent unit cost.  Shedding load at admission keeps
the service's latency bounded instead of letting the queue grow without
limit under overload.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import queue
import threading
import time
from typing import Any, Callable, Dict, Optional

from .. import obs
from ..obs.reqtrace import current_trace

_obs = obs.get_recorder()

#: Default cap on queued-plus-running submissions before 429s begin.
DEFAULT_QUEUE_LIMIT = 64

#: Retry-After fallback (seconds) before any unit cost has been observed.
_DEFAULT_UNIT_COST_S = 0.5

#: EMA smoothing for the per-submission cost estimate.
_EMA_ALPHA = 0.2


class Backpressure(Exception):
    """The dispatch queue is full; retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: float, pending: int, limit: int) -> None:
        super().__init__(
            f"dispatch queue full ({pending}/{limit} pending); "
            f"retry after {retry_after_s:.1f}s"
        )
        self.retry_after_s = retry_after_s
        self.pending = pending
        self.limit = limit


class Dispatcher:
    """One worker thread draining a bounded queue of callables."""

    def __init__(
        self,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        name: str = "repro-serve-dispatch",
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.queue_limit = queue_limit
        self._queue: "queue.Queue[Optional[tuple]]" = queue.Queue()
        self._lock = threading.Lock()
        self._pending = 0
        self._executed = 0
        self._rejected = 0
        self._ema_cost_s: Optional[float] = None
        self._closed = False
        self._thread = threading.Thread(
            target=self._drain, name=name, daemon=True
        )
        self._thread.start()

    def submit(self, fn: Callable[[], Any]) -> "concurrent.futures.Future[Any]":
        """Enqueue ``fn``; raise :class:`Backpressure` when full."""
        with self._lock:
            if self._closed:
                raise RuntimeError("dispatcher is closed")
            if self._pending >= self.queue_limit:
                self._rejected += 1
                _obs.incr("serve.backpressure")
                raise Backpressure(
                    retry_after_s=self._retry_after_locked(),
                    pending=self._pending,
                    limit=self.queue_limit,
                )
            self._pending += 1
        future: "concurrent.futures.Future[Any]" = concurrent.futures.Future()
        # Capture the submitter's context (which carries the ambient
        # request trace) so the drain thread computes *inside* it —
        # ``current_trace()`` keeps working across the thread hop.
        ctx = contextvars.copy_context()
        self._queue.put((fn, future, ctx, time.perf_counter()))
        return future

    def _retry_after_locked(self) -> float:
        cost = self._ema_cost_s or _DEFAULT_UNIT_COST_S
        return max(1.0, round(self._pending * cost, 1))

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            fn, future, ctx, enqueued_s = item
            if not future.set_running_or_notify_cancel():
                with self._lock:
                    self._pending -= 1
                continue
            started_s = time.perf_counter()
            wait_s = started_s - enqueued_s
            _obs.observe("serve.queue_wait_ms", wait_s * 1000.0)
            trace = ctx.run(current_trace)
            if trace is not None:
                trace.add_span(
                    "dispatch.queue",
                    start_s=enqueued_s,
                    duration_s=wait_s,
                    params={"wait_ms": round(wait_s * 1000.0, 3)},
                )
            try:
                result = ctx.run(fn)
            except BaseException as error:
                future.set_exception(error)
            else:
                future.set_result(result)
            elapsed_s = time.perf_counter() - started_s
            with self._lock:
                self._pending -= 1
                self._executed += 1
                if self._ema_cost_s is None:
                    self._ema_cost_s = elapsed_s
                else:
                    self._ema_cost_s += _EMA_ALPHA * (
                        elapsed_s - self._ema_cost_s
                    )

    def stats(self) -> Dict[str, Any]:
        """Queue depth and throughput counters for ``/health``."""
        with self._lock:
            return {
                "pending": self._pending,
                "executed": self._executed,
                "rejected": self._rejected,
                "queue_limit": self.queue_limit,
                "ema_cost_s": round(self._ema_cost_s, 6)
                if self._ema_cost_s is not None
                else None,
            }

    def close(self) -> None:
        """Stop accepting work and join the drain thread."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(None)
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "Dispatcher":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False
