"""Execution backends: serial in-process, or a process pool.

The engine (:mod:`repro.parallel.engine`) hands a backend an ordered
list of work units; the backend returns their results *in unit order*
no matter how execution was scheduled.

Two backends exist:

:class:`SerialBackend`
    Runs every unit inline in the calling process, directly under the
    parent's recorder when observability is on.  This is the reference
    semantics — ``--workers 1``, every platform where a process pool
    cannot be created, and the requeue of a failed pool run resolve
    here.

:class:`ProcessPoolBackend`
    Fans chunks of units out to a ``ProcessPoolExecutor``.  The
    ``fork`` start method is preferred (cheap workers, no re-import);
    where it is unavailable the default start method is used, and where
    multiprocessing itself is unusable (missing ``sem_open`` et al.)
    :func:`resolve_backend` falls back to serial with a warning.

Chunking groups consecutive units into one IPC round-trip.  The default
chunk size aims at ~4 chunks per worker so stragglers even out while
per-chunk overhead stays amortized; pass ``chunk_size=1`` for maximal
load balancing of coarse units.

The process backend has one dispatch loop, a ``wait(FIRST_COMPLETED)``
loop over the chunk futures, and one cleanup.  An unmonitored run takes
the process's reused pool (``docs/PARALLEL.md``, "Pool lifecycle"):
forked on first use, keyed by what a forked worker inherits (worker
count, start method, store configuration), and shut down after any exit
but a clean finish and at interpreter exit.  A monitored run forks a
pool of its own, because the live channel is bound when a worker is
created and a requeue kills workers; on every exit its cleanup shuts
that pool down, disarms the watchdog, stops the telemetry drainer and
closes its queue.  A live monitor (:class:`~repro.obs.live.LiveMonitor`,
``docs/OBSERVABILITY.md`` "Live monitoring") is an optional consumer
of that loop: it adds a heartbeat queue that every worker is
initialized with (:func:`repro.parallel.jobs.init_live_channel`), a
parent thread that drains worker events into the monitor, and a
**stall watchdog** polled between completions.  The serial backend
reports the same unit lifecycle inline and never arms the watchdog.

Failure handling (``docs/PARALLEL.md``, "Failure handling"): a unit
that raises re-raises in the caller; a worker that dies raises
``BrokenProcessPool``; a stalled worker is reported and waited for.
With requeue enabled (``--watchdog-requeue``) the last two instead
kill the stalled workers, drop the pool, and run every unresolved unit
through :meth:`SerialBackend.run` in the parent.  Requeued results are
byte-identical to worker results because every job kind is a pure
function of its payload.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import signal
import sys
import threading
import time
from typing import AbstractSet, Any, Dict, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..obs.live import serial_worker_id
from . import jobs

#: Seconds a monitored dispatch loop waits per ``wait()`` round before
#: re-polling the watchdog.
_LIVE_POLL_S = 0.1

#: The pool that unmonitored runs reuse, as ``(key, executor)``; see
#: :func:`_shared_pool`.  ``_POOL_LOCK`` guards get-or-create, because
#: ``repro serve`` runs sweeps from its dispatcher thread.
_POOL: Optional[Tuple[Tuple[Any, ...], Any]] = None
_POOL_LOCK = threading.Lock()


def _pool_key(workers: int, mp_context: Any) -> Tuple[Any, ...]:
    """Everything a forked worker inherits that its results depend on.

    Workers keep the store configuration they were forked under, so a
    store switched on, off or to another disk root needs new workers.
    """
    from .. import store

    mode = store.store_mode()
    root = str(store.get_store().backend.root) if mode == "disk" else None
    method = mp_context.get_start_method() if mp_context is not None else None
    return (workers, method, mode, root)


def _shared_pool(workers: int, mp_context: Any) -> Any:
    """The reused pool for this key, forking a new one on first use.

    A pool under another key, or one that lost a worker while idle, is
    shut down first, so no worker outlives the store configuration it
    was forked under and an idle death does not fail the next run.
    """
    from concurrent.futures.process import ProcessPoolExecutor

    global _POOL
    key = _pool_key(workers, mp_context)
    with _POOL_LOCK:
        if _POOL is not None:
            if _POOL[0] == key and not _POOL[1]._broken:
                return _POOL[1]
            _POOL[1].shutdown(wait=True)
            _POOL = None
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=mp_context)
        _POOL = (key, pool)
        return pool


def close_pool(pool: Any = None) -> None:
    """Shut down the reused pool (or ``pool``) and forget it.

    The next unmonitored run forks a fresh pool.  Called after a run
    that did not finish cleanly, and at interpreter exit.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and (pool is None or pool is _POOL[1]):
            pool, _POOL = _POOL[1], None
    if pool is not None:
        pool.shutdown(wait=True)


atexit.register(close_pool)


def chunked(items: Sequence[Any], chunk_size: int) -> List[List[Any]]:
    """Split ``items`` into consecutive runs of at most ``chunk_size``."""
    if chunk_size < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk_size}")
    return [
        list(items[start : start + chunk_size])
        for start in range(0, len(items), chunk_size)
    ]


def default_chunk_size(num_units: int, workers: int) -> int:
    """Aim for ~4 chunks per worker, never less than one unit per chunk."""
    if num_units <= 0:
        return 1
    return max(1, -(-num_units // max(1, workers * 4)))


class SerialBackend:
    """Reference backend: every unit runs inline, in order."""

    name = "serial"
    workers = 1

    def run(
        self,
        units: Sequence[Any],
        chunk_size: Optional[int] = None,
        monitor: Optional[Any] = None,
    ) -> List[Any]:
        """Execute units one by one under the caller's recorder.

        With a live monitor the same lifecycle events the process
        backend ships over its queue are reported inline under this
        process's own pid, so ``live.jsonl`` has one schema regardless
        of backend.  The watchdog is never armed here: the lane doing
        the work is the lane that would poll it.
        """
        worker = serial_worker_id()
        results: List[Any] = []
        for unit in units:
            if monitor is not None:
                monitor.unit_started(unit.uid, worker)
            started_s = time.perf_counter()
            results.append(jobs.execute_unit(unit.kind, unit.kwargs))
            if monitor is not None:
                monitor.unit_finished(
                    unit.uid, worker, time.perf_counter() - started_s
                )
        return results


class _RequeueReport:
    """The monitor as the requeue lane reports to it.

    A requeued unit reports only its finish, with ``requeued=True``.  A
    unit whose ``unit_done`` a worker already sent (its chunk future
    never completed) is recomputed for its result but not counted again.
    """

    def __init__(self, monitor: Any, counted: AbstractSet[str]) -> None:
        self._monitor = monitor
        self._counted = counted

    def unit_started(self, uid: str, worker: int) -> None:
        pass

    def unit_finished(self, uid: str, worker: int, duration_s: float) -> None:
        if uid not in self._counted:
            self._monitor.unit_finished(uid, worker, duration_s, requeued=True)


def _drain(
    channel: Any, monitor: Any, done_uids: Set[str], stop: threading.Event
) -> None:
    """Feed worker events to the monitor until stopped and drained."""
    while True:
        try:
            event = channel.get(timeout=0.05)
        except Exception:
            if stop.is_set():
                return
            continue
        if not isinstance(event, dict):
            continue
        if event.get("type") == "unit_done":
            done_uids.add(event.get("uid"))
        try:
            monitor.handle_event(event)
        except Exception:
            pass  # telemetry must never kill the dispatch loop


class ProcessPoolBackend:
    """Fan units out to a ``ProcessPoolExecutor`` and merge deterministically.

    Results are reordered by unit index and, when the parent recorder
    is enabled, per-unit observability snapshots are merged back into
    it **in unit order** — the merged profile is therefore independent
    of worker scheduling.
    """

    name = "process"

    def __init__(self, workers: int, mp_context: Any = None) -> None:
        if workers < 2:
            raise ValueError(f"process backend needs >= 2 workers, got {workers}")
        self.workers = workers
        self._mp_context = mp_context

    def run(
        self,
        units: Sequence[Any],
        chunk_size: Optional[int] = None,
        monitor: Optional[Any] = None,
    ) -> List[Any]:
        """Execute units on the pool; fall back to serial if it won't start.

        The one dispatch loop (see the module docstring): a monitor adds
        a pool of its own, the live channel, a drainer thread and
        watchdog polls to it, and the ``finally`` block cleans up after
        every exit.
        """
        record_obs = obs.is_enabled()
        payloads: List[jobs.Payload] = [
            (index, unit.kind, dict(unit.kwargs), record_obs)
            for index, unit in enumerate(units)
        ]
        size = chunk_size or default_chunk_size(len(payloads), self.workers)
        chunks = chunked(payloads, size)
        unit_uids = {index: unit.uid for index, unit in enumerate(units)}
        results: Dict[int, Any] = {}
        snapshots: Dict[int, Dict[str, Any]] = {}
        done_uids: Set[str] = set()
        try:
            from concurrent.futures import FIRST_COMPLETED, wait
            from concurrent.futures.process import (
                BrokenProcessPool,
                ProcessPoolExecutor,
            )

            if monitor is None:
                pool = _shared_pool(self.workers, self._mp_context)
            else:
                import multiprocessing

                context = self._mp_context or multiprocessing.get_context()
                channel = context.Queue()
                pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=self._mp_context,
                    initializer=jobs.init_live_channel,
                    initargs=(channel, monitor.heartbeat_interval_s),
                )
        except (OSError, ImportError, ValueError) as error:
            print(
                f"repro.parallel: process pool unavailable ({error}); "
                "running serially",
                file=sys.stderr,
            )
            return SerialBackend().run(units, monitor=monitor)
        if monitor is not None:
            drain_stop = threading.Event()
            drainer = threading.Thread(
                target=_drain,
                args=(channel, monitor, done_uids, drain_stop),
                name="repro-live-drain",
                daemon=True,
            )
            drainer.start()
            monitor.arm_watchdog()
        requeue = finished = False
        stalled: List[Dict[str, Any]] = []
        pending: Set[Any] = set()
        try:
            for chunk in chunks:
                pending.add(pool.submit(jobs.execute_chunk, chunk, unit_uids))
            while pending:
                done, pending = wait(
                    pending,
                    timeout=_LIVE_POLL_S if monitor else None,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    try:
                        outcomes = future.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    for unit_index, result, snapshot in outcomes:
                        results[unit_index] = result
                        if snapshot is not None:
                            snapshots[unit_index] = snapshot
                stalled = monitor.poll_watchdog() if monitor else []
                if (stalled or broken) and monitor and monitor.requeue:
                    requeue = True
                    break
                if broken:
                    raise BrokenProcessPool(
                        "a pool worker died mid-sweep; rerun with "
                        "--watchdog-requeue to degrade to serial instead"
                    )
            finished = True
        finally:
            if monitor is None:
                if not finished:
                    for future in pending:
                        future.cancel()
                    close_pool(pool)
            else:
                if requeue:
                    # Abandon the pool: kill the wedged workers rather
                    # than wait on them.
                    for report in stalled:
                        with contextlib.suppress(OSError):
                            os.kill(report["worker"], signal.SIGKILL)
                pool.shutdown(wait=not requeue, cancel_futures=True)
                monitor.disarm_watchdog()
                # After a clean finish, give in-flight telemetry a
                # moment to arrive before the drainer stops.
                deadline = time.monotonic() + 1.0
                while (
                    not requeue
                    and len(done_uids) < len(results)
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.02)
                drain_stop.set()
                drainer.join(timeout=1.0)
                channel.close()
                channel.cancel_join_thread()
        if requeue:
            todo = [i for i in range(len(units)) if i not in results]
            recorder = obs.get_recorder()
            with recorder.span("parallel.requeue"):
                redone = SerialBackend().run(
                    [units[index] for index in todo],
                    monitor=_RequeueReport(monitor, done_uids),
                )
            results.update(zip(todo, redone))
            recorder.incr("parallel.requeued_units", len(todo))
            monitor.mark_requeued([report["uid"] for report in stalled])
        if record_obs:
            # Tag grafted spans with the work-unit id (stable across
            # scheduling) so trace export renders one track per unit.
            recorder = obs.get_recorder()
            for unit_index in sorted(snapshots):
                recorder.merge_snapshot(
                    snapshots[unit_index], track=units[unit_index].uid
                )
        return [results[index] for index in range(len(units))]


def _multiprocessing_context() -> Any:
    """The best available start-method context, or ``None`` when unusable."""
    try:
        import multiprocessing

        # A missing sem_open (some minimal platforms) surfaces here.
        import multiprocessing.synchronize  # noqa: F401
    except ImportError:
        return None
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        try:
            return multiprocessing.get_context()
        except (ValueError, OSError):
            return None


def resolve_backend(workers: Optional[int]) -> Any:
    """Pick the backend for a requested worker count.

    ``None``, 0, or 1 workers — or a platform without usable
    multiprocessing — resolve to the serial backend; anything else gets
    a process pool.
    """
    if not workers or workers <= 1:
        return SerialBackend()
    context = _multiprocessing_context()
    if context is None:
        print(
            "repro.parallel: multiprocessing unavailable on this platform; "
            "running serially",
            file=sys.stderr,
        )
        return SerialBackend()
    return ProcessPoolBackend(workers, mp_context=context)
