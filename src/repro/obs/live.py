"""The live telemetry plane: streaming progress, heartbeats, watchdog.

PRs 1-5 made runs legible *after the fact*; this module makes a
multi-hour sweep legible *while it runs*.  One :class:`LiveMonitor`
per command aggregates progress events from whichever backend is
executing work units — the serial path reports inline, the process
pool ships worker heartbeats and per-unit lifecycle events over a
multiprocessing queue — and fans the rolling state out to three
consumers:

* an in-place terminal status line (``--live``);
* an append-only ``live.jsonl`` stream (``--live-out``, replayable
  by ``python -m repro stats``);
* the HTTP exporter's ``/progress`` and ``/metrics`` endpoints
  (:mod:`repro.obs.httpexp`).

The monitor also hosts the **stall watchdog**: the process backend
arms it, and a worker whose heartbeat lapses past the configured
deadline has its in-flight units flagged — ``parallel.stalled_units``
is incremented on the process-wide recorder, a structured stall
report is kept for the run manifest (:func:`repro.obs.build_manifest`
folds it in), and with requeue enabled the backend re-executes the
wedged units on the serial fallback so one stuck worker degrades the
sweep instead of hanging it.  The watchdog is never armed on the
serial path — a single in-process lane cannot requeue to itself.

``live.jsonl`` records (one JSON object per line; each session opens
with the shared ``meta`` envelope of :mod:`repro.obs.sinks`, ``stream``
``"live"``, ``schema_version`` 4):

* ``{"type": "progress", "t_s", "units_total", "units_done",
  "units_in_flight", "units_cached", "units_requeued",
  "unit_ema_s", "unit_peak_s", "workers_alive", "workers",
  "stalled_units"}`` — periodic snapshots (``workers`` maps worker
  pid to ``{"age_s", "unit"}``);
* ``{"type": "unit", "uid", "status": "started"|"done"|"requeued",
  "worker", "t_s", "duration_s"}`` — per-unit lifecycle
  (``duration_s`` is ``null`` until the unit finishes);
* ``{"type": "stall", "uid", "worker", "waited_s", "deadline_s",
  "requeued", "t_s"}`` — one per stalled unit;
* ``{"type": "live_summary", ...progress fields...}`` — always the
  last line.

Times (``t_s``) are seconds on the monitor's monotonic clock since
the monitor started; worker heartbeat freshness is judged by arrival
time on the same clock, so cross-process clock skew cannot fake or
mask a stall.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import sys
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, TextIO, Union

from .sinks import JsonlAppender

#: Seconds between worker heartbeats on the live channel.
DEFAULT_HEARTBEAT_INTERVAL_S = 0.2

#: Seconds between progress snapshots (renderer + jsonl stream).
DEFAULT_PROGRESS_INTERVAL_S = 0.25

#: Seconds a worker's heartbeat may lapse before its in-flight units
#: are flagged as stalled (CLI ``--watchdog-deadline``).
DEFAULT_WATCHDOG_DEADLINE_S = 30.0

#: Exponential-moving-average weight for per-unit wall time: the
#: latest unit contributes 30%, matching the load estimators the
#: adaptive-dispatch literature recommends over plain means (which
#: "bounce" on the last stragglers of a phase).
_EMA_ALPHA = 0.3


class LiveMonitor:
    """Aggregates live progress from any backend; drives all consumers.

    Thread-safe: engine hooks are called from the backend thread (or
    inline on the serial path), queue events arrive on a drainer
    thread, and the ticker thread renders/streams snapshots.  All
    state mutation happens under one lock; :meth:`snapshot` returns a
    plain dict safe to serialize from any thread (the HTTP exporter
    calls it per request).
    """

    def __init__(
        self,
        command: str = "run",
        render: bool = False,
        jsonl_path: Optional[Union[str, pathlib.Path]] = None,
        watchdog_deadline_s: float = DEFAULT_WATCHDOG_DEADLINE_S,
        requeue: bool = False,
        progress_interval_s: float = DEFAULT_PROGRESS_INTERVAL_S,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        clock=time.monotonic,
        stream: Optional[TextIO] = None,
    ) -> None:
        self.command = command
        self.render = render
        self.watchdog_deadline_s = watchdog_deadline_s
        self.requeue = requeue
        self.progress_interval_s = progress_interval_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self._clock = clock
        self._stream = stream if stream is not None else sys.stderr
        self._lock = threading.Lock()
        self._start_s = clock()
        self._writer = (
            JsonlAppender(jsonl_path, "live", command) if jsonl_path else None
        )
        # Progress state.
        self.units_total = 0
        self.units_done = 0
        self.units_cached = 0
        self.units_requeued = 0
        self.unit_ema_s: Optional[float] = None
        self.unit_peak_s: float = 0.0
        #: uid -> {"worker", "started_s"} for units currently running.
        self.in_flight: Dict[str, Dict[str, Any]] = {}
        #: worker pid -> {"last_seen_s", "unit", "stalled"}.
        self.workers: Dict[int, Dict[str, Any]] = {}
        #: Structured stall reports, in detection order (manifest food).
        self.stall_reports: List[Dict[str, Any]] = []
        self._watchdog_armed = False
        self._ticker: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._rendered = False
        self._closed = False
        if self.render or self._writer is not None:
            self._ticker = threading.Thread(
                target=self._tick_loop, name="repro-live-ticker", daemon=True
            )
            self._ticker.start()

    # ------------------------------------------------------------------
    # Engine hooks (backend thread / serial inline)
    # ------------------------------------------------------------------

    def _now(self) -> float:
        return self._clock() - self._start_s

    def sweep_started(self, total: int) -> None:
        """A batch of ``total`` units entered the engine (accumulates)."""
        with self._lock:
            self.units_total += total

    def note_cached(self, count: int) -> None:
        """``count`` units were answered by the result store pre-dispatch."""
        with self._lock:
            self.units_cached += count
            self.units_done += count

    def unit_started(self, uid: str, worker: int) -> None:
        """Unit ``uid`` began executing on worker pid ``worker``."""
        now = self._now()
        with self._lock:
            self.in_flight[uid] = {"worker": worker, "started_s": now}
            entry = self.workers.setdefault(
                worker, {"last_seen_s": now, "unit": None, "stalled": False}
            )
            entry["last_seen_s"] = now
            entry["unit"] = uid
            entry["stalled"] = False
        self._emit(
            {
                "type": "unit",
                "uid": uid,
                "status": "started",
                "worker": worker,
                "t_s": now,
                "duration_s": None,
            }
        )

    def unit_finished(
        self,
        uid: str,
        worker: int,
        duration_s: float,
        requeued: bool = False,
    ) -> None:
        """Unit ``uid`` finished (``requeued`` marks the serial fallback)."""
        now = self._now()
        with self._lock:
            self.in_flight.pop(uid, None)
            self.units_done += 1
            if requeued:
                self.units_requeued += 1
            entry = self.workers.get(worker)
            if entry is not None:
                entry["last_seen_s"] = now
                if entry.get("unit") == uid:
                    entry["unit"] = None
            if self.unit_ema_s is None:
                self.unit_ema_s = duration_s
            else:
                self.unit_ema_s = (
                    _EMA_ALPHA * duration_s + (1.0 - _EMA_ALPHA) * self.unit_ema_s
                )
            if duration_s > self.unit_peak_s:
                self.unit_peak_s = duration_s
        self._emit(
            {
                "type": "unit",
                "uid": uid,
                "status": "requeued" if requeued else "done",
                "worker": worker,
                "t_s": now,
                "duration_s": duration_s,
            }
        )

    def heartbeat(self, worker: int) -> None:
        """Worker pid ``worker`` is alive (freshness = arrival time)."""
        now = self._now()
        with self._lock:
            entry = self.workers.setdefault(
                worker, {"last_seen_s": now, "unit": None, "stalled": False}
            )
            entry["last_seen_s"] = now
            if entry["stalled"]:
                entry["stalled"] = False  # SIGCONT / recovered worker

    def handle_event(self, event: Dict[str, Any]) -> None:
        """Dispatch one worker-channel event (queue drainer entry point)."""
        kind = event.get("type")
        if kind == "heartbeat":
            self.heartbeat(int(event["worker"]))
        elif kind == "unit_start":
            self.unit_started(str(event["uid"]), int(event["worker"]))
        elif kind == "unit_done":
            self.unit_finished(
                str(event["uid"]),
                int(event["worker"]),
                float(event["duration_s"]),
            )
        # Unknown event types are ignored: a newer worker build must
        # not crash an older parent.

    # ------------------------------------------------------------------
    # Stall watchdog
    # ------------------------------------------------------------------

    def arm_watchdog(self) -> None:
        """Enable stall detection (process backend only)."""
        with self._lock:
            self._watchdog_armed = True

    def disarm_watchdog(self) -> None:
        with self._lock:
            self._watchdog_armed = False

    def poll_watchdog(self) -> List[Dict[str, Any]]:
        """Detect and record newly stalled units; return their reports.

        A worker stalls when its heartbeat is older than the deadline
        while it has a unit in flight.  Each in-flight unit on a
        stalled worker produces one report (and one increment of the
        ``parallel.stalled_units`` counter); a worker is only flagged
        once until a fresh heartbeat clears it, so a recovered
        (SIGCONT'd) worker can stall again later but never
        double-counts one incident.
        """
        now = self._now()
        fresh: List[Dict[str, Any]] = []
        with self._lock:
            if not self._watchdog_armed:
                return []
            for pid, entry in self.workers.items():
                if entry["stalled"]:
                    continue
                waited = now - entry["last_seen_s"]
                if waited <= self.watchdog_deadline_s:
                    continue
                stalled_units = [
                    uid
                    for uid, info in self.in_flight.items()
                    if info["worker"] == pid
                ]
                if not stalled_units:
                    continue
                entry["stalled"] = True
                for uid in stalled_units:
                    report = {
                        "uid": uid,
                        "worker": pid,
                        "waited_s": round(waited, 3),
                        "deadline_s": self.watchdog_deadline_s,
                        "requeued": False,
                        "t_s": round(now, 3),
                    }
                    self.stall_reports.append(report)
                    fresh.append(report)
        if fresh:
            from . import get_recorder

            get_recorder().incr("parallel.stalled_units", len(fresh))
            for report in fresh:
                self._emit(dict(report, type="stall"))
        return fresh

    def mark_requeued(self, uids: List[str]) -> None:
        """Flag the named units' stall reports as requeued."""
        with self._lock:
            wanted = set(uids)
            for report in self.stall_reports:
                if report["uid"] in wanted:
                    report["requeued"] = True

    @property
    def stalled_units(self) -> int:
        with self._lock:
            return len(self.stall_reports)

    # ------------------------------------------------------------------
    # Snapshots, rendering, stream
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The rolling progress state as one JSON-native dict."""
        now = self._now()
        with self._lock:
            workers = {
                str(pid): {
                    "age_s": round(now - entry["last_seen_s"], 3),
                    "unit": entry["unit"],
                }
                for pid, entry in sorted(self.workers.items())
            }
            return {
                "t_s": round(now, 3),
                "units_total": self.units_total,
                "units_done": self.units_done,
                "units_in_flight": len(self.in_flight),
                "units_cached": self.units_cached,
                "units_requeued": self.units_requeued,
                "unit_ema_s": (
                    round(self.unit_ema_s, 6) if self.unit_ema_s is not None else None
                ),
                "unit_peak_s": round(self.unit_peak_s, 6),
                "workers_alive": sum(
                    1 for entry in self.workers.values() if not entry["stalled"]
                ),
                "workers": workers,
                "stalled_units": len(self.stall_reports),
            }

    def progress_gauges(self) -> Dict[str, float]:
        """Progress as flat gauges for the Prometheus exporter."""
        snap = self.snapshot()
        gauges = {
            "parallel_units_planned": float(snap["units_total"]),
            "parallel_units_done": float(snap["units_done"]),
            "parallel_units_in_flight": float(snap["units_in_flight"]),
            "parallel_units_cached": float(snap["units_cached"]),
            "parallel_units_requeued": float(snap["units_requeued"]),
            "parallel_unit_peak_seconds": snap["unit_peak_s"],
            "parallel_workers_alive": float(snap["workers_alive"]),
            "parallel_stalled_units": float(snap["stalled_units"]),
        }
        if snap["unit_ema_s"] is not None:
            gauges["parallel_unit_ema_seconds"] = snap["unit_ema_s"]
        return gauges

    def _emit(self, event: Dict[str, Any]) -> None:
        if self._writer is not None:
            self._writer.write(event)

    def _status_line(self, snap: Dict[str, Any]) -> str:
        ema = (
            f"{snap['unit_ema_s']:.2f}s" if snap["unit_ema_s"] is not None else "-"
        )
        line = (
            f"[{self.command}] {snap['units_done']}/{snap['units_total']} units"
            f" · {snap['units_in_flight']} in-flight"
            f" · {snap['units_cached']} cached"
            f" · ema {ema} · peak {snap['unit_peak_s']:.2f}s"
            f" · {snap['workers_alive']} worker(s)"
        )
        if snap["stalled_units"]:
            line += f" · STALLED {snap['stalled_units']}"
        return line

    def _render(self, snap: Dict[str, Any], final: bool = False) -> None:
        if not self.render:
            return
        try:
            self._stream.write("\r\x1b[2K" + self._status_line(snap))
            if final:
                self._stream.write("\n")
            self._stream.flush()
            self._rendered = True
        except (OSError, ValueError):
            self.render = False  # closed/broken stream: stop rendering

    def _tick_loop(self) -> None:
        while not self._stop.wait(self.progress_interval_s):
            snap = self.snapshot()
            self._emit(dict(snap, type="progress"))
            self._render(snap)

    def close(self) -> None:
        """Emit the final snapshot and summary, stop threads, close sink."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._ticker is not None:
            self._ticker.join(timeout=2.0)
        snap = self.snapshot()
        self._emit(dict(snap, type="progress"))
        self._emit(dict(snap, type="live_summary"))
        self._render(snap, final=True)
        if self._writer is not None:
            self._writer.close()

    def __enter__(self) -> "LiveMonitor":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False


# ----------------------------------------------------------------------
# The ambient monitor (mirrors repro.store's process-global pattern)
# ----------------------------------------------------------------------

#: The process-global monitor; ``None`` means live telemetry is off.
_MONITOR: Optional[LiveMonitor] = None


def get_monitor() -> Optional[LiveMonitor]:
    """The active monitor, or ``None`` while live telemetry is off."""
    return _MONITOR


@contextlib.contextmanager
def using_monitor(monitor: Optional[LiveMonitor]) -> Iterator[Optional[LiveMonitor]]:
    """Install ``monitor`` as the process-global monitor for a block.

    The engine and the backends consult
    :func:`get_monitor` rather than threading a parameter through
    every call.  ``None`` is accepted (and simply keeps telemetry
    off) so callers can pass their flag state straight through.
    Restores the previous monitor on exit; does *not* close the
    monitor — the creator owns its lifecycle.
    """
    global _MONITOR
    previous = _MONITOR
    _MONITOR = monitor
    try:
        yield monitor
    finally:
        _MONITOR = previous


def _clear_ambient_monitor() -> None:
    """Hard-reset hook: a forked worker must not inherit the parent's
    monitor (its jsonl handle and ticker thread belong to the parent)."""
    global _MONITOR
    _MONITOR = None


def serial_worker_id() -> int:
    """The worker id the serial path reports events under (its own pid)."""
    return os.getpid()
