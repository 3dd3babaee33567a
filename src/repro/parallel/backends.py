"""Execution backends: serial in-process, or a process pool.

The engine (:mod:`repro.parallel.engine`) hands a backend an ordered
list of work units; the backend returns their results *in unit order*
no matter how execution was scheduled.

Two backends exist:

:class:`SerialBackend`
    Runs every unit inline in the calling process, directly under the
    parent's recorder when observability is on.  This is the reference
    semantics — ``--workers 1`` and every platform where a process pool
    cannot be created resolve here.

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

Live telemetry (``docs/OBSERVABILITY.md``, "Live monitoring"): both
backends accept an optional :class:`~repro.obs.live.LiveMonitor`.
The serial backend reports unit lifecycle inline; the process backend
additionally opens a multiprocessing queue, initializes every worker
with a heartbeat thread (:func:`repro.parallel.jobs.init_live_channel`),
drains worker events on a parent-side thread, and **arms the stall
watchdog**: a worker whose heartbeat lapses past the monitor's
deadline has its in-flight units flagged, and — with requeue enabled —
every unresolved unit is re-executed on the serial fallback in the
parent, the wedged workers are killed, and the pool is abandoned, so
one stuck process degrades the sweep to serial instead of hanging it.
Requeued results are byte-identical to worker results because every
job kind is a pure function of its payload.  The watchdog is never
armed on the serial path.
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from .. import obs
from ..maxis.kernel import kernel_default_enabled
from ..obs import deepprof
from . import jobs

#: Seconds the live dispatch loop waits per ``wait()`` round before
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
        results: List[Any] = []
        for unit in units:
            if monitor is not None:
                from ..obs.live import serial_worker_id

                worker = serial_worker_id()
                monitor.unit_started(unit.uid, worker)
                started_s = time.perf_counter()
                result = jobs.execute_unit(unit.kind, unit.kwargs)
                monitor.unit_finished(
                    unit.uid, worker, time.perf_counter() - started_s
                )
            else:
                result = jobs.execute_unit(unit.kind, unit.kwargs)
            results.append(result)
        return results


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
        """Execute units on the pool; fall back to serial if it won't start."""
        record_obs = obs.is_enabled()
        payloads: List[jobs.Payload] = [
            (index, unit.kind, dict(unit.kwargs), record_obs)
            for index, unit in enumerate(units)
        ]
        size = chunk_size or default_chunk_size(len(payloads), self.workers)
        chunks = chunked(payloads, size)
        results: Dict[int, Any] = {}
        snapshots: Dict[int, Dict[str, Any]] = {}
        if monitor is not None:
            return self._run_live(
                units, chunks, record_obs, monitor, results, snapshots
            )
        # Pause from before the pool's import and start-up through the
        # snapshot merge: parent-side plumbing a serial run never has.
        # The pause outlives the pool CM, so the shutdown join is
        # covered too (sampling it would leak Executor.__exit__ frames).
        with _parent_sampler_paused():
            try:
                from concurrent.futures import ProcessPoolExecutor, as_completed

                pool = ProcessPoolExecutor(
                    max_workers=min(self.workers, len(chunks)),
                    mp_context=self._mp_context,
                    initializer=jobs.init_worker,
                    initargs=(
                        None,
                        0.0,
                        deepprof.ambient_config(),
                        kernel_default_enabled(),
                    ),
                )
            except (OSError, ImportError, ValueError) as error:
                unavailable: Optional[BaseException] = error
            else:
                unavailable = None
                with pool:
                    futures = [
                        pool.submit(jobs.execute_chunk, chunk) for chunk in chunks
                    ]
                    for future in as_completed(futures):
                        for unit_index, result, snapshot in future.result():
                            results[unit_index] = result
                            if snapshot is not None:
                                snapshots[unit_index] = snapshot
                self._merge_snapshots(units, snapshots, record_obs)
        if unavailable is not None:
            print(
                f"repro.parallel: process pool unavailable ({unavailable}); "
                "running serially",
                file=sys.stderr,
            )
            return SerialBackend().run(units)
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

    def _run_live(
        self,
        units: Sequence[Any],
        chunks: List[List[jobs.Payload]],
        record_obs: bool,
        monitor: Any,
        results: Dict[int, Any],
        snapshots: Dict[int, Dict[str, Any]],
    ) -> List[Any]:
        """The monitored dispatch loop: heartbeats in, watchdog polled.

        Differences from the plain path: workers are initialized with
        the live channel, a drainer thread feeds worker events to the
        monitor, and ``as_completed`` becomes a ``wait(timeout=...)``
        loop so the watchdog is polled between completions.  A stall
        with requeue enabled ends pool execution: every unit without a
        merged result is recomputed serially in the parent (job kinds
        are pure, so results match byte for byte), the wedged workers
        are SIGKILLed, and the pool is abandoned without waiting.
        """
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        try:
            import multiprocessing

            context = self._mp_context or multiprocessing.get_context()
            channel = context.Queue()
            pool = ProcessPoolExecutor(
                max_workers=min(self.workers, len(chunks)),
                mp_context=self._mp_context,
                initializer=jobs.init_worker,
                initargs=(
                    channel,
                    monitor.heartbeat_interval_s,
                    deepprof.ambient_config(),
                    kernel_default_enabled(),
                ),
            )
        except (OSError, ImportError, ValueError) as error:
            print(
                f"repro.parallel: process pool unavailable ({error}); "
                "running serially",
                file=sys.stderr,
            )
            return SerialBackend().run(units, monitor=monitor)

        unit_uids = {index: unit.uid for index, unit in enumerate(units)}
        done_uids: set = set()
        drain_stop = threading.Event()

        def _drain() -> None:
            while True:
                try:
                    event = channel.get(timeout=0.05)
                except Exception:
                    if drain_stop.is_set():
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

        drainer = threading.Thread(
            target=_drain, name="repro-live-drain", daemon=True
        )
        drainer.start()
        monitor.arm_watchdog()
        requeue_now = False
        broken = False
        try:
            dispatch_pause = contextlib.ExitStack()
            dispatch_pause.enter_context(_parent_sampler_paused())
            pending = {
                pool.submit(jobs.execute_chunk, chunk, unit_uids)
                for chunk in chunks
            }
            while pending:
                done, pending = wait(
                    pending, timeout=_LIVE_POLL_S, return_when=FIRST_COMPLETED
                )
                for future in done:
                    try:
                        outcomes = future.result()
                    except BrokenProcessPool:
                        broken = True
                        pending = set()
                        break
                    for unit_index, result, snapshot in outcomes:
                        results.setdefault(unit_index, result)
                        if snapshot is not None:
                            snapshots.setdefault(unit_index, snapshot)
                stalls = monitor.poll_watchdog()
                if (stalls or broken) and monitor.requeue:
                    requeue_now = True
                    break
                if broken:
                    raise BrokenProcessPool(
                        "a pool worker died mid-sweep; rerun with "
                        "--watchdog-requeue to degrade to serial instead"
                    )
        finally:
            # Resume parent sampling before any serial requeue below:
            # requeued units run in this process and should be sampled
            # exactly like serial-backend units.
            dispatch_pause.close()
            monitor.disarm_watchdog()

        if requeue_now:
            # Stop draining first: a healthy worker finishing mid-requeue
            # must not double-count a unit the parent is recomputing.
            drain_stop.set()
            drainer.join(timeout=1.0)
            self._requeue_serially(units, results, monitor, done_uids)
            stalled_pids = {
                report["worker"] for report in monitor.stall_reports
            }
            monitor.mark_requeued(
                [report["uid"] for report in monitor.stall_reports]
            )
            for pid in stalled_pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (OSError, ProcessLookupError):
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            # Re-pause around the shutdown join and telemetry drain:
            # both are parent-side waiting a serial run never has, and
            # sampling them would leak pool-plumbing frames.
            with _parent_sampler_paused():
                pool.shutdown(wait=True)
                # Give in-flight telemetry a moment to drain, then stop.
                deadline = time.monotonic() + 1.0
                while time.monotonic() < deadline and len(done_uids) < len(results):
                    time.sleep(0.02)
                drain_stop.set()
                drainer.join(timeout=1.0)
        try:
            channel.close()
            channel.cancel_join_thread()
        except Exception:
            pass
        self._merge_snapshots(units, snapshots, record_obs)
        return [results[index] for index in range(len(units))]

    def _requeue_serially(
        self,
        units: Sequence[Any],
        results: Dict[int, Any],
        monitor: Any,
        done_uids: set,
    ) -> None:
        """Recompute every unresolved unit inline (the serial fallback).

        Runs directly under the parent's recorder, like the serial
        backend — pure job kinds make the recomputed results identical
        to what the wedged workers would have produced.  Units whose
        ``unit_done`` event already arrived are recomputed for their
        result (their chunk future never completed) but not re-counted
        in the monitor's progress.
        """
        recorder = obs.get_recorder()
        parent = os.getpid()
        with recorder.span("parallel.requeue"):
            for index, unit in enumerate(units):
                if index in results:
                    continue
                already_counted = unit.uid in done_uids
                started_s = time.perf_counter()
                result = jobs.execute_unit(unit.kind, dict(unit.kwargs))
                results[index] = result
                if not already_counted:
                    monitor.unit_finished(
                        unit.uid,
                        parent,
                        time.perf_counter() - started_s,
                        requeued=True,
                    )
                recorder.incr("parallel.requeued_units")


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
