"""Serial vs process-pool live telemetry parity.

Both backends must emit the same ``live.jsonl`` schema — identical
event types with identical field sets — so downstream consumers
(``repro stats``, the dashboard) never need to know which backend
produced a run.  The serial path additionally never arms the watchdog,
so a serial run can never report a stall no matter how slow its units
are.
"""

import json

import pytest

from repro.obs.live import LiveMonitor, using_monitor
from repro.parallel import WorkUnit, run_units
from repro.parallel import backends as backends_module

pytestmark = pytest.mark.skipif(
    backends_module._multiprocessing_context() is None,
    reason="platform lacks a usable multiprocessing context",
)


def probe_units(count=6):
    return [WorkUnit(f"probe/{i}", "probe", {"x": float(i)}) for i in range(count)]


def run_with_live(units, workers, jsonl_path, **monitor_kwargs):
    monitor_kwargs.setdefault("progress_interval_s", 60.0)
    monitor = LiveMonitor(
        command="parity",
        render=False,
        jsonl_path=jsonl_path,
        **monitor_kwargs,
    )
    with using_monitor(monitor):
        results = run_units(units, workers=workers, chunk_size=2)
    monitor.close()
    events = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    return results, events, monitor


class TestBackendParity:
    def test_same_results_and_same_event_schema(self, tmp_path):
        serial_results, serial_events, _ = run_with_live(
            probe_units(), workers=1, jsonl_path=tmp_path / "serial.jsonl"
        )
        pool_results, pool_events, _ = run_with_live(
            probe_units(), workers=2, jsonl_path=tmp_path / "pool.jsonl"
        )
        assert pool_results == serial_results

        def schema(events):
            """``{event type: frozenset of field names}`` over a stream."""
            shapes = {}
            for event in events:
                shapes.setdefault(event["type"], set()).update(event)
            return {kind: frozenset(fields) for kind, fields in shapes.items()}

        serial_schema = schema(serial_events)
        pool_schema = schema(pool_events)
        assert set(serial_schema) == {"meta", "progress", "unit", "live_summary"}
        assert serial_schema == pool_schema

    def test_both_backends_account_every_unit(self, tmp_path):
        for workers, name in ((1, "serial"), (2, "pool")):
            _, events, monitor = run_with_live(
                probe_units(), workers=workers, jsonl_path=tmp_path / f"{name}.jsonl"
            )
            summary = events[-1]
            assert summary["type"] == "live_summary"
            assert summary["units_done"] == 6
            assert summary["units_in_flight"] == 0
            done = [
                e for e in events if e["type"] == "unit" and e["status"] == "done"
            ]
            assert sorted(e["uid"] for e in done) == sorted(
                u.uid for u in probe_units()
            )
            assert monitor.stalled_units == 0

    def test_serial_watchdog_never_fires(self, tmp_path):
        # Units far slower than the deadline: a process-pool run with a
        # dead worker would stall here, but the serial path never arms
        # the watchdog, so slowness alone is not a stall.
        units = [
            WorkUnit(f"nap/{i}", "nap", {"seconds": 0.05, "value": float(i)})
            for i in range(3)
        ]
        results, events, monitor = run_with_live(
            units,
            workers=1,
            jsonl_path=tmp_path / "serial.jsonl",
            watchdog_deadline_s=0.001,
        )
        assert results == [0.0, 1.0, 2.0]
        assert monitor.stalled_units == 0
        assert not [e for e in events if e["type"] == "stall"]
        assert monitor.stall_reports == []
