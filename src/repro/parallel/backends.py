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
loop over the chunk futures, and one cleanup that runs on every exit
(success, a unit raising, a broken pool, a requeue): it disarms the
watchdog, shuts the pool down, stops the telemetry drainer and closes
its queue.  A live monitor (:class:`~repro.obs.live.LiveMonitor`,
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

import contextlib
import os
import signal
import sys
import threading
import time
from typing import AbstractSet, Any, Dict, List, Optional, Sequence, Set

from .. import obs
from ..maxis.kernel import kernel_default_enabled
from ..obs import deepprof
from ..obs.live import serial_worker_id
from . import jobs

#: Seconds a monitored dispatch loop waits per ``wait()`` round before
#: re-polling the watchdog.
_LIVE_POLL_S = 0.1


def _parent_sampler_paused() -> Any:
    """Pause the ambient deep profiler while a pool runs.

    The parent thread only waits on futures then; its wall time is the
    workers' busy time, and the workers' own samplers account for it.
    Sampling the wait too would add pool-plumbing keys a serial run
    does not have.
    """
    profiler = deepprof.get_profiler()
    return profiler.paused() if profiler is not None else contextlib.nullcontext()


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
        the live channel, a drainer thread and watchdog polls to it, and
        the ``finally`` block cleans up after every exit.
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
        # Pause from before the pool's import and start-up through the
        # snapshot merge: parent-side plumbing a serial run never has.
        # The pause covers the shutdown join and the telemetry drain too
        # (sampling them would leak Executor frames).
        with contextlib.ExitStack() as paused:
            paused.enter_context(_parent_sampler_paused())
            try:
                from concurrent.futures import FIRST_COMPLETED, wait
                from concurrent.futures.process import (
                    BrokenProcessPool,
                    ProcessPoolExecutor,
                )

                channel = None
                if monitor is not None:
                    import multiprocessing

                    context = self._mp_context or multiprocessing.get_context()
                    channel = context.Queue()
                pool = ProcessPoolExecutor(
                    max_workers=min(self.workers, len(chunks)),
                    mp_context=self._mp_context,
                    initializer=jobs.init_worker,
                    initargs=(
                        channel,
                        monitor.heartbeat_interval_s if monitor else 0.0,
                        deepprof.ambient_config(),
                        kernel_default_enabled(),
                    ),
                )
            except (OSError, ImportError, ValueError) as error:
                paused.close()
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
            requeue = False
            stalled: List[Dict[str, Any]] = []
            try:
                pending = {
                    pool.submit(jobs.execute_chunk, chunk, unit_uids)
                    for chunk in chunks
                }
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
            finally:
                if requeue:
                    # Abandon the pool: kill the wedged workers rather
                    # than wait on them.
                    for report in stalled:
                        with contextlib.suppress(OSError):
                            os.kill(report["worker"], signal.SIGKILL)
                pool.shutdown(wait=not requeue, cancel_futures=True)
                if monitor is not None:
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
                # Requeued units run in this process: sample them
                # exactly like serial-backend units.
                paused.close()
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
                paused.enter_context(_parent_sampler_paused())
            self._merge_snapshots(units, snapshots, record_obs)
        return [results[index] for index in range(len(units))]

    def _merge_snapshots(
        self,
        units: Sequence[Any],
        snapshots: Dict[int, Dict[str, Any]],
        record_obs: bool,
    ) -> None:
        if not record_obs:
            return
        recorder = obs.get_recorder()
        profiler = deepprof.get_profiler()
        # Worker deep-profile aggregates graft at the same point the
        # spans do: the parent's currently-open span path.  That makes
        # a merged 2-worker folded key set structurally identical to a
        # serial run's (frames above execute_unit are trimmed on both
        # sides) — the worker-count-invariance the tests pin down.
        span_prefix = [record.name for record in recorder._stack]
        for unit_index in sorted(snapshots):
            # Tag grafted spans with the work-unit id (stable across
            # scheduling) so trace export renders one track per unit.
            recorder.merge_snapshot(
                snapshots[unit_index], track=units[unit_index].uid
            )
            state = snapshots[unit_index].get("deepprof")
            if profiler is not None and state:
                profiler.absorb(state, span_prefix=span_prefix)


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
    # The multiprocessing import is pool set-up, like the pool's own.
    with _parent_sampler_paused():
        context = _multiprocessing_context()
    if context is None:
        print(
            "repro.parallel: multiprocessing unavailable on this platform; "
            "running serially",
            file=sys.stderr,
        )
        return SerialBackend()
    return ProcessPoolBackend(workers, mp_context=context)
