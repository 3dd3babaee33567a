"""Unit tests for the LiveMonitor state machine and the live.jsonl sink."""

import json
import threading

import pytest

from repro.obs import SCHEMA_VERSION, run_provenance
from repro.obs.live import (
    LiveMonitor,
    get_monitor,
    serial_worker_id,
    using_monitor,
)


def quiet_monitor(**kwargs):
    """A monitor with no renderer/ticker noise unless asked for."""
    kwargs.setdefault("render", False)
    return LiveMonitor(command=kwargs.pop("command", "test"), **kwargs)


class TestProgressState:
    def test_sweep_and_unit_lifecycle(self):
        monitor = quiet_monitor()
        monitor.sweep_started(3)
        monitor.note_cached(1)
        monitor.unit_started("u/1", worker=111)
        snap = monitor.snapshot()
        assert snap["units_total"] == 3
        assert snap["units_done"] == 1  # the cached unit
        assert snap["units_cached"] == 1
        assert snap["units_in_flight"] == 1
        assert snap["workers"]["111"]["unit"] == "u/1"
        monitor.unit_finished("u/1", worker=111, duration_s=0.5)
        snap = monitor.snapshot()
        assert snap["units_done"] == 2
        assert snap["units_in_flight"] == 0
        assert snap["workers"]["111"]["unit"] is None
        monitor.close()

    def test_sweep_started_accumulates(self):
        monitor = quiet_monitor()
        monitor.sweep_started(2)
        monitor.sweep_started(3)
        assert monitor.snapshot()["units_total"] == 5
        monitor.close()

    def test_ema_and_peak(self):
        monitor = quiet_monitor()
        monitor.unit_finished("a", worker=1, duration_s=1.0)
        assert monitor.unit_ema_s == pytest.approx(1.0)
        monitor.unit_finished("b", worker=1, duration_s=2.0)
        # alpha = 0.3: 0.3*2.0 + 0.7*1.0
        assert monitor.unit_ema_s == pytest.approx(1.3)
        assert monitor.unit_peak_s == pytest.approx(2.0)
        monitor.unit_finished("c", worker=1, duration_s=0.1)
        assert monitor.unit_peak_s == pytest.approx(2.0)  # peak holds
        monitor.close()

    def test_requeued_units_counted(self):
        monitor = quiet_monitor()
        monitor.sweep_started(1)
        monitor.unit_finished("a", worker=1, duration_s=0.1, requeued=True)
        snap = monitor.snapshot()
        assert snap["units_requeued"] == 1
        assert snap["units_done"] == 1
        monitor.close()

    def test_handle_event_dispatch(self):
        monitor = quiet_monitor()
        monitor.handle_event({"type": "heartbeat", "worker": 7})
        monitor.handle_event({"type": "unit_start", "uid": "x", "worker": 7})
        monitor.handle_event(
            {"type": "unit_done", "uid": "x", "worker": 7, "duration_s": 0.25}
        )
        monitor.handle_event({"type": "from_the_future", "worker": 7})  # ignored
        snap = monitor.snapshot()
        assert snap["units_done"] == 1
        assert "7" in snap["workers"]
        monitor.close()

    def test_progress_gauges_shape(self):
        monitor = quiet_monitor()
        monitor.sweep_started(2)
        monitor.unit_finished("a", worker=1, duration_s=0.5)
        gauges = monitor.progress_gauges()
        assert gauges["parallel_units_planned"] == 2.0
        assert gauges["parallel_units_done"] == 1.0
        assert gauges["parallel_unit_ema_seconds"] == pytest.approx(0.5)
        assert gauges["parallel_stalled_units"] == 0.0
        monitor.close()


class TestWatchdog:
    def test_never_fires_unarmed(self):
        clock = FakeClock()
        monitor = quiet_monitor(watchdog_deadline_s=0.1, clock=clock)
        monitor.unit_started("u", worker=5)
        clock.advance(10.0)
        assert monitor.poll_watchdog() == []
        assert monitor.stalled_units == 0
        monitor.close()

    def test_flags_lapsed_worker_once(self):
        clock = FakeClock()
        monitor = quiet_monitor(watchdog_deadline_s=1.0, clock=clock)
        monitor.arm_watchdog()
        monitor.unit_started("u", worker=5)
        clock.advance(0.5)
        assert monitor.poll_watchdog() == []
        clock.advance(1.0)
        reports = monitor.poll_watchdog()
        assert [r["uid"] for r in reports] == ["u"]
        assert reports[0]["worker"] == 5
        assert reports[0]["waited_s"] >= 1.0
        # Same incident is not double-counted.
        clock.advance(5.0)
        assert monitor.poll_watchdog() == []
        assert monitor.stalled_units == 1
        monitor.close()

    def test_heartbeat_clears_stall_flag(self):
        clock = FakeClock()
        monitor = quiet_monitor(watchdog_deadline_s=1.0, clock=clock)
        monitor.arm_watchdog()
        monitor.unit_started("u", worker=5)
        clock.advance(2.0)
        assert len(monitor.poll_watchdog()) == 1
        monitor.heartbeat(5)  # SIGCONT'd worker recovers
        clock.advance(2.0)
        # It can stall again, as a fresh incident.
        assert len(monitor.poll_watchdog()) == 1
        assert monitor.stalled_units == 2
        monitor.close()

    def test_idle_worker_never_stalls(self):
        clock = FakeClock()
        monitor = quiet_monitor(watchdog_deadline_s=1.0, clock=clock)
        monitor.arm_watchdog()
        monitor.heartbeat(5)  # alive but with nothing in flight
        clock.advance(100.0)
        assert monitor.poll_watchdog() == []
        monitor.close()

    def test_mark_requeued(self):
        clock = FakeClock()
        monitor = quiet_monitor(watchdog_deadline_s=1.0, clock=clock)
        monitor.arm_watchdog()
        monitor.unit_started("u", worker=5)
        clock.advance(2.0)
        monitor.poll_watchdog()
        monitor.mark_requeued(["u"])
        assert monitor.stall_reports[0]["requeued"] is True
        monitor.close()


class FakeClock:
    """A manually advanced monotonic clock for watchdog tests."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestJsonlStream:
    def test_event_stream_opens_with_envelope(self, tmp_path):
        path = tmp_path / "live.jsonl"
        monitor = quiet_monitor(jsonl_path=path, progress_interval_s=60.0)
        monitor.sweep_started(1)
        monitor.unit_started("u", worker=9)
        monitor.unit_finished("u", worker=9, duration_s=0.125)
        monitor.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert isinstance(events[0].pop("unix_s"), float)
        assert events[0] == {
            "type": "meta",
            "schema_version": SCHEMA_VERSION,
            "stream": "live",
            "command": "test",
            "provenance": run_provenance(),
        }
        assert events[-1]["type"] == "live_summary"
        assert events[-1]["units_done"] == 1
        kinds = [e["type"] for e in events]
        assert "unit" in kinds and "progress" in kinds
        started = next(e for e in events if e["type"] == "unit")
        assert started["status"] == "started"
        assert started["duration_s"] is None
        done = [e for e in events if e["type"] == "unit"][1]
        assert done["status"] == "done"
        assert done["duration_s"] == pytest.approx(0.125)

    def test_creates_missing_parent_directories(self, tmp_path):
        path = tmp_path / "deeply" / "nested" / "live.jsonl"
        monitor = quiet_monitor(jsonl_path=path)
        monitor.close()
        assert path.is_file()

    def test_appends_across_monitors(self, tmp_path):
        path = tmp_path / "live.jsonl"
        for _ in range(2):
            quiet_monitor(jsonl_path=path, progress_interval_s=60.0).close()
        metas = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if json.loads(line)["type"] == "meta"
        ]
        assert len(metas) == 2  # append mode: the first run survives

    def test_stall_events_streamed(self, tmp_path):
        path = tmp_path / "live.jsonl"
        clock = FakeClock()
        monitor = quiet_monitor(
            jsonl_path=path,
            watchdog_deadline_s=1.0,
            clock=clock,
            progress_interval_s=60.0,
        )
        monitor.arm_watchdog()
        monitor.unit_started("u", worker=3)
        clock.advance(2.0)
        monitor.poll_watchdog()
        monitor.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        stalls = [e for e in events if e["type"] == "stall"]
        assert len(stalls) == 1
        assert stalls[0]["uid"] == "u"
        assert stalls[0]["deadline_s"] == 1.0


class TestAmbientMonitor:
    def test_default_is_none(self):
        assert get_monitor() is None

    def test_using_monitor_installs_and_restores(self):
        monitor = quiet_monitor()
        with using_monitor(monitor) as installed:
            assert installed is monitor
            assert get_monitor() is monitor
        assert get_monitor() is None
        monitor.close()

    def test_accepts_none(self):
        with using_monitor(None):
            assert get_monitor() is None

    def test_hard_reset_clears_ambient_monitor(self):
        from repro import obs

        monitor = quiet_monitor()
        with using_monitor(monitor):
            obs.get_recorder().hard_reset()
            assert get_monitor() is None
        monitor.close()

    def test_serial_worker_id_is_pid(self):
        import os

        assert serial_worker_id() == os.getpid()


class TestRenderer:
    def test_status_line_content(self):
        monitor = quiet_monitor()
        monitor.sweep_started(4)
        monitor.unit_finished("a", worker=1, duration_s=0.5)
        line = monitor._status_line(monitor.snapshot())
        assert "[test] 1/4 units" in line
        assert "STALLED" not in line
        monitor.close()

    def test_render_writes_in_place(self):
        import io

        stream = io.StringIO()
        monitor = LiveMonitor(command="r", render=True, stream=stream)
        monitor.sweep_started(1)
        monitor.close()
        output = stream.getvalue()
        assert output.startswith("\r\x1b[2K")
        assert output.endswith("\n")  # final render adds the newline

    def test_threaded_event_storm_is_consistent(self):
        monitor = quiet_monitor()
        monitor.sweep_started(200)

        def pump(base):
            for i in range(50):
                uid = f"u/{base}/{i}"
                monitor.unit_started(uid, worker=base)
                monitor.unit_finished(uid, worker=base, duration_s=0.001)

        threads = [threading.Thread(target=pump, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = monitor.snapshot()
        assert snap["units_done"] == 200
        assert snap["units_in_flight"] == 0
        monitor.close()
