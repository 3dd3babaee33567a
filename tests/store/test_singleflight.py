"""Single-flight: concurrent callers of one key share one computation."""

import threading
import time

import pytest

from repro import obs, store
from repro.store import MemoryBackend, ResultStore, SingleFlight


class Gate:
    """A counting compute that blocks until released."""

    def __init__(self):
        self.calls = 0
        self.started = threading.Event()
        self.release = threading.Event()
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            self.calls += 1
        self.started.set()
        self.release.wait(timeout=10)
        return {"calls": self.calls}


class TestSingleFlight:
    def test_single_caller_leads(self):
        sf = SingleFlight()
        value, led = sf.do("k", lambda: 41 + 1)
        assert value == 42
        assert led is True
        assert sf.in_flight() == 0

    def test_concurrent_same_key_runs_once(self):
        sf = SingleFlight()
        gate = Gate()
        results = []

        def call():
            results.append(sf.do("k", gate))

        threads = [threading.Thread(target=call) for _ in range(8)]
        for t in threads:
            t.start()
        assert gate.started.wait(timeout=10)
        gate.release.set()
        for t in threads:
            t.join(timeout=10)
        assert gate.calls == 1
        assert [value for value, _ in results] == [{"calls": 1}] * 8
        assert sum(1 for _, led in results if led) == 1
        assert sf.in_flight() == 0

    def test_distinct_keys_do_not_coalesce(self):
        sf = SingleFlight()
        calls = []
        barrier = threading.Barrier(2)

        def compute(tag):
            barrier.wait(timeout=10)
            calls.append(tag)
            return tag

        threads = [
            threading.Thread(target=sf.do, args=(key, lambda key=key: compute(key)))
            for key in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert sorted(calls) == ["a", "b"]

    def test_leader_exception_propagates_to_followers(self):
        sf = SingleFlight()
        started = threading.Event()
        release = threading.Event()
        errors = []

        def boom():
            started.set()
            release.wait(timeout=10)
            raise ValueError("compute failed")

        def call():
            try:
                sf.do("k", boom)
            except ValueError as error:
                errors.append(error)

        threads = [threading.Thread(target=call) for _ in range(4)]
        for t in threads:
            t.start()
        assert started.wait(timeout=10)
        release.set()
        for t in threads:
            t.join(timeout=10)
        # Every caller — leader and followers alike — sees the failure.
        assert len(errors) == 4
        assert all("compute failed" in str(error) for error in errors)

    def test_failed_key_is_retried_not_poisoned(self):
        sf = SingleFlight()
        with pytest.raises(RuntimeError):
            sf.do("k", lambda: (_ for _ in ()).throw(RuntimeError("once")))
        value, led = sf.do("k", lambda: "recovered")
        assert value == "recovered"
        assert led is True

    def test_followers_count_as_coalesced(self):
        sf = SingleFlight()
        gate = Gate()
        with obs.recording() as recorder:
            threads = [
                threading.Thread(target=sf.do, args=("k", gate)) for _ in range(4)
            ]
            for t in threads:
                t.start()
            assert gate.started.wait(timeout=10)
            gate.release.set()
            for t in threads:
                t.join(timeout=10)
            assert recorder.counters["cache.coalesced"] == 3


class TestStoreSingleFlight:
    """The duplicate-compute race regression: N callers, one compute."""

    MODULES = ["repro.store.keys"]

    def test_get_or_compute_coalesces_duplicate_computes(self):
        result_store = ResultStore(MemoryBackend(1 << 20))
        gate = Gate()
        results = []

        def call():
            results.append(
                result_store.get_or_compute(
                    "race", {"x": 1}, self.MODULES, "json", gate
                )
            )

        with obs.recording() as recorder:
            threads = [threading.Thread(target=call) for _ in range(8)]
            for t in threads:
                t.start()
            assert gate.started.wait(timeout=10)
            # Release only once every follower is parked on the leader;
            # a follower that arrives after the leader finishes is a hit.
            deadline = time.monotonic() + 10
            while (
                recorder.counters.get("cache.coalesced", 0) < 7
                and time.monotonic() < deadline
            ):
                time.sleep(0.001)
            gate.release.set()
            for t in threads:
                t.join(timeout=10)
            # Without single-flight every thread misses and recomputes;
            # with it, exactly one compute and one miss happen.
            assert gate.calls == 1
            assert results == [{"calls": 1}] * 8
            assert recorder.counters["cache.miss"] == 1
            assert recorder.counters["cache.coalesced"] == 7
            assert recorder.counters.get("cache.hit", 0) == 0

    def test_followers_never_touch_the_backend(self):
        class CountingBackend(MemoryBackend):
            def __init__(self):
                super().__init__(1 << 20)
                self.gets = 0

            def get(self, key):
                self.gets += 1
                return super().get(key)

        backend = CountingBackend()
        result_store = ResultStore(backend)
        gate = Gate()
        threads = [
            threading.Thread(
                target=result_store.get_or_compute,
                args=("race", {"x": 2}, self.MODULES, "json", gate),
            )
            for _ in range(6)
        ]
        for t in threads:
            t.start()
        assert gate.started.wait(timeout=10)
        gate.release.set()
        for t in threads:
            t.join(timeout=10)
        assert backend.gets == 1

    def test_opt_out_restores_plain_behavior(self):
        result_store = ResultStore(MemoryBackend(1 << 20), single_flight=None)
        assert result_store.single_flight is None
        assert (
            result_store.get_or_compute(
                "plain", {"x": 3}, self.MODULES, "json", lambda: 7
            )
            == 7
        )

    def test_configured_stores_are_single_flight_by_default(self):
        with store.using_store("memory") as result_store:
            assert isinstance(result_store.single_flight, SingleFlight)

    def test_sequential_calls_hit_the_cache(self):
        result_store = ResultStore(MemoryBackend(1 << 20))
        calls = []
        with obs.recording() as recorder:
            for _ in range(3):
                value = result_store.get_or_compute(
                    "seq",
                    {"x": 4},
                    self.MODULES,
                    "json",
                    lambda: calls.append(1) or {"v": 5},
                )
                assert value == {"v": 5}
            assert len(calls) == 1
            assert recorder.counters["cache.miss"] == 1
            assert recorder.counters["cache.hit"] == 2
