"""The reused process pool: one fork per key, none left at exit.

Unmonitored runs share one module-level pool, keyed by what a forked
worker inherits (worker count, start method, store configuration).
These tests pin the three promises of ``docs/PARALLEL.md`` "Pool
lifecycle": consecutive runs reuse the workers, a store change forks
fresh ones, and no worker outlives the interpreter.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro import store
from repro.gadgets import GadgetParameters
from repro.parallel import WorkUnit, claims_units, jobs, run_units
from repro.parallel import backends as backends_module

_CONTEXT = backends_module._multiprocessing_context()

pytestmark = pytest.mark.skipif(
    _CONTEXT is None, reason="platform lacks a usable multiprocessing context"
)


def _pid(seconds: float) -> int:
    """A job kind that names the worker serving it (test only)."""
    time.sleep(seconds)
    return os.getpid()


def _pool_pids():
    _, pool = backends_module._POOL
    return set(pool._processes)


@pytest.mark.skipif(
    _CONTEXT is None or _CONTEXT.get_start_method() != "fork",
    reason="the test-only job kind reaches workers only through fork",
)
class TestReuse:
    def test_consecutive_runs_are_served_by_the_same_workers(self, monkeypatch):
        backends_module.close_pool()
        monkeypatch.setitem(jobs.JOB_KINDS, "pid", _pid)
        units = [WorkUnit(f"pid/{i}", "pid", {"seconds": 0.02}) for i in range(4)]
        first = run_units(units, workers=2, chunk_size=1)
        workers = _pool_pids()
        second = run_units(units, workers=2, chunk_size=1)
        assert len(workers) == 2
        assert _pool_pids() == workers
        assert set(first) | set(second) <= workers


class TestIdleDeath:
    def test_a_worker_killed_between_runs_does_not_fail_the_next(self):
        units = [WorkUnit(f"probe/{x}", "probe", {"x": x}) for x in (3, 1, 4)]
        run_units(units, workers=2)
        _, pool = backends_module._POOL
        os.kill(next(iter(_pool_pids())), signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.02)
        assert run_units(units, workers=2) == [9, 1, 16]
        assert backends_module._POOL[1] is not pool


class TestStoreChange:
    def test_disk_store_reaches_workers_forked_with_the_store_off(self, tmp_path):
        # q = ell + alpha = 6 is no prime power, so building the gadget
        # runs the greedy code search, the one step inside a unit that
        # is stored on its own.
        units = claims_units(GadgetParameters(ell=5, alpha=1, t=2), num_samples=1)
        off = run_units(units, workers=2)
        with store.using_store("disk", path=str(tmp_path)) as active:
            on = run_units(units, workers=2)
            kinds = active.backend.stats()["kinds"]
        codec = store.get_codec("claim_check")
        assert list(map(codec.encode, on)) == list(map(codec.encode, off))
        # Only workers search codes: the parent writes whole units.
        assert "codes.code_mapping" in kinds
        assert kinds["parallel.linear_claim"]["entries"] == len(units)


_CHILD = """
import json
from repro.core import report_to_json
from repro.parallel import backends, theorem1_reports
first = theorem1_reports(3, num_samples=1, workers=2)
second = theorem1_reports(3, num_samples=1, workers=2)
assert list(map(report_to_json, first)) == list(map(report_to_json, second))
print(json.dumps(sorted(backends._POOL[1]._processes)))
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestInterpreterExit:
    def test_no_worker_outlives_the_interpreter(self):
        src = pathlib.Path(backends_module.__file__).resolve().parents[2]
        completed = subprocess.run(
            [sys.executable, "-c", _CHILD],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        pids = json.loads(completed.stdout)
        assert len(pids) == 2
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in pids if _alive(pid)] == []
