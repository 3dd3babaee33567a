"""Failure handling of the process pool: every exit leaves nothing behind.

A unit that raises, or a worker that dies, must end the sweep with an
exception *and* a torn-down pool: no worker process, no executor
thread, and (under a live monitor) no telemetry drainer left running.
The next run forks a fresh pool and succeeds.
The watchdog tests in ``tests/obs_live/test_watchdog.py`` cover stalls
and requeue; these cover the paths that raise.
"""

import multiprocessing
import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.obs.live import LiveMonitor, using_monitor
from repro.parallel import WorkUnit, jobs, run_units
from repro.parallel import backends as backends_module

_CONTEXT = backends_module._multiprocessing_context()

pytestmark = pytest.mark.skipif(
    _CONTEXT is None, reason="platform lacks a usable multiprocessing context"
)


def _die() -> None:
    """A job kind that kills its worker outright (test only)."""
    os._exit(3)


def _leftovers(children_before, timeout_s=2.0):
    """Drainer threads and new child processes still alive after a grace."""
    deadline = time.monotonic() + timeout_s
    while True:
        drainers = [
            thread.name
            for thread in threading.enumerate()
            if thread.name == "repro-live-drain"
        ]
        children = [
            child
            for child in multiprocessing.active_children()
            if child not in children_before
        ]
        if (not drainers and not children) or time.monotonic() > deadline:
            return drainers, children
        time.sleep(0.05)


class TestRaisingUnit:
    def test_unmonitored_pool_is_closed_and_the_next_run_succeeds(self):
        backends_module.close_pool()
        before = set(multiprocessing.active_children())
        ok = WorkUnit("nap/ok", "nap", {"seconds": 0.05, "value": 1.0})
        assert run_units([ok, ok], workers=2) == [1.0, 1.0]
        with pytest.raises(TypeError):
            run_units([ok, WorkUnit("nap/bad", "nap", {"seconds": "x"})], workers=2)
        assert _leftovers(before) == ([], [])
        assert run_units([ok, ok], workers=2) == [1.0, 1.0]

    def test_monitored_pool_is_torn_down(self):
        units = [
            WorkUnit("nap/ok", "nap", {"seconds": 0.05, "value": 1.0}),
            WorkUnit("nap/bad", "nap", {"seconds": "x"}),
        ]
        monitor = LiveMonitor(
            command="failure-test", render=False, progress_interval_s=60.0
        )
        before = set(multiprocessing.active_children())
        with using_monitor(monitor):
            with pytest.raises(TypeError):
                run_units(units, workers=2)
        monitor.close()
        assert _leftovers(before) == ([], [])


@pytest.mark.skipif(
    _CONTEXT is None or _CONTEXT.get_start_method() != "fork",
    reason="the test-only job kind reaches workers only through fork",
)
class TestKilledWorker:
    def test_broken_pool_names_requeue_and_leaves_no_child(self, monkeypatch):
        backends_module.close_pool()
        monkeypatch.setitem(jobs.JOB_KINDS, "die", _die)
        units = [
            WorkUnit("nap/0", "nap", {"seconds": 0.05, "value": 0.0}),
            WorkUnit("die/1", "die", {}),
        ]
        before = set(multiprocessing.active_children())
        with pytest.raises(BrokenProcessPool, match="--watchdog-requeue"):
            run_units(units, workers=2)
        assert _leftovers(before) == ([], [])

    def test_next_run_gets_a_fresh_pool(self, monkeypatch):
        backends_module.close_pool()
        monkeypatch.setitem(jobs.JOB_KINDS, "die", _die)
        with pytest.raises(BrokenProcessPool):
            run_units([WorkUnit("die/0", "die", {})], workers=2)
        units = [WorkUnit(f"probe/{x}", "probe", {"x": x}) for x in (3, 1, 4)]
        assert run_units(units, workers=2) == [9, 1, 16]
