"""The three measured phases, their output checks and failure ledger.

Each phase is a function that does one fixed piece of work on seeded
inputs, times only the program's own calls, checks every output, and
books each operation on a :class:`Ledger`:

* :func:`sweep_pass` — the Theorem 1 sweep and the Theorem 2 grid with
  the cache off, serially and then through a 2-process pool on the same
  units, then the Theorem 5 player simulation on both promise sides;
* :class:`CachedStore` — the small grid's units through a fresh disk
  store: one cold pass that writes everything, warm passes that read it;
* :func:`serve_rung` — a chunk of open-loop HTTP traffic at one rate to
  the in-process service over a fresh in-memory store.

:func:`prepare` is the set-up a fresh process pays before the first
timed unit: imports, the fixed gadget graph the request bodies are cut
from, module fingerprints and a listening server.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import loadgen
from workloads import (
    GADGET_A,
    THEOREM1_SAMPLES,
    THEOREM2_SAMPLES,
    MaxISPool,
    Traffic,
    Workload,
    cached_units,
    expected_result,
    sweep_units,
)

#: Worker processes of the parallel pass; the machine this was tuned on
#: has two cores.
POOL_WORKERS = 2


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


class Ledger:
    """Failure accounting: every operation attempted and how it ended.

    ``failed`` counts exceptions, transport errors, 5xx and wrong
    outputs; ``wrong`` is the subset whose output failed a check;
    ``refused`` counts 429s.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.refused = 0
        self.problems: List[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, what: str, wrong: bool = False) -> None:
        self.attempted += 1
        self.failed += 1
        self.wrong += int(wrong)
        if len(self.problems) < 20:
            self.problems.append(what)

    def refuse(self) -> None:
        self.attempted += 1
        self.refused += 1

    def record(self) -> Dict[str, Any]:
        return {
            "attempted": self.attempted,
            "succeeded": self.attempted - self.failed - self.refused,
            "failed": self.failed,
            "wrong": self.wrong,
            "refused": self.refused,
            "problems": self.problems,
        }

    @property
    def error_rate(self) -> float:
        return (self.failed + self.refused) / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


class Environment:
    """What :func:`prepare` leaves: the running service and the gadget
    construction the request bodies are cut from."""

    def __init__(self, app: Any, server: Any, construction: Any) -> None:
        self.app = app
        self.server = server
        self.construction = construction

    def close(self) -> None:
        self.server.close()
        self.app.close()


def prepare() -> Environment:
    """Imports, the serve gadget's fixed graph, fingerprints, a live server."""
    from repro import store
    from repro.core import report_to_json  # noqa: F401  (sweep output path)
    from repro.core.suite import simulation_check_rows  # noqa: F401
    from repro.gadgets import GadgetParameters, LinearConstruction
    from repro.parallel import run_units  # noqa: F401
    from repro.serve import Application, BackgroundServer

    construction = LinearConstruction(GadgetParameters(**GADGET_A))
    for spec in store.JOB_SPECS.values():
        store.combined_fingerprint(spec.modules)
    for modules in (store.MAXIS_MODULES, store.GADGET_MODULES, store.CODE_MODULES):
        store.combined_fingerprint(modules)
    app = Application()
    # Resolve ``dispatch`` per request, so a traced run's wrapper on the
    # class takes effect on a server started before it was installed.
    server = BackgroundServer(lambda request: app.dispatch(request)).start()
    return Environment(app, server, construction)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------


def _report_checks(reports: Sequence[Any]) -> Optional[str]:
    """The paper's own invariants on a sweep's reports, or what broke."""
    for report in reports:
        if report.cut != report.expected_cut:
            return f"{report.name} t={report.params.t}: cut {report.cut} != {report.expected_cut}"
        if not report.gap.claims_hold:
            return f"{report.name} t={report.params.t}: claimed gap does not hold"
    return None


class SweepPass:
    """Timings and checked outputs of one :func:`sweep_pass`."""

    def __init__(self) -> None:
        self.serial_s: Optional[float] = None
        self.parallel_s: Optional[float] = None
        self.simulate_s: Optional[float] = None
        #: ``report_to_json`` of every unit, by unit id, when checks passed.
        self.output: Optional[Dict[str, str]] = None
        self.simulation: Optional[List[List[Any]]] = None


def sweep_pass(workload: Workload, unit_seed: int, ledger: Ledger) -> SweepPass:
    """Serial sweep, the same sweep on the pool, and the Theorem 5 simulation."""
    from repro.core import report_to_json
    from repro.core.suite import simulation_check_rows
    from repro.parallel import run_units

    units = sweep_units(workload, unit_seed)
    result = SweepPass()
    try:
        start = time.perf_counter()
        serial = run_units(units, workers=1)
        result.serial_s = time.perf_counter() - start
        problem = _report_checks(serial)
        output = [report_to_json(report) for report in serial]
        if problem:
            ledger.fail(f"sweep seed {unit_seed}: {problem}", wrong=True)
        else:
            ledger.ok()
            result.output = {unit.uid: text for unit, text in zip(units, output)}
    except Exception as error:  # noqa: BLE001 — a failed operation is booked
        ledger.fail(f"serial sweep seed {unit_seed}: {error!r}")
        output = None
    try:
        messages = io.StringIO()
        with contextlib.redirect_stderr(messages):
            start = time.perf_counter()
            parallel = run_units(units, workers=POOL_WORKERS, chunk_size=1)
            parallel_s = time.perf_counter() - start
        if "serially" in messages.getvalue():
            ledger.fail(f"parallel sweep seed {unit_seed}: pool fell back to serial")
        elif [report_to_json(report) for report in parallel] != output:
            ledger.fail(f"parallel sweep seed {unit_seed}: output differs from serial", wrong=True)
        else:
            ledger.ok()
            result.parallel_s = parallel_s
    except Exception as error:  # noqa: BLE001
        ledger.fail(f"parallel sweep seed {unit_seed}: {error!r}")
    try:
        start = time.perf_counter()
        rows = simulation_check_rows(unit_seed)
        simulate_s = time.perf_counter() - start
        if not all(row[-1] for row in rows):
            ledger.fail(f"simulation seed {unit_seed}: inconsistent with Theorem 5", wrong=True)
        else:
            ledger.ok()
            result.simulate_s = simulate_s
            result.simulation = rows
    except Exception as error:  # noqa: BLE001
        ledger.fail(f"simulation seed {unit_seed}: {error!r}")
    return result


def reference_output(workload: Workload, unit_seed: int) -> List[str]:
    """The seed's reference reports, computed without the engine."""
    from repro.core import (
        LinearLowerBoundExperiment,
        QuadraticLowerBoundExperiment,
        report_to_json,
    )
    from repro.gadgets import GadgetParameters, smallest_meaningful_linear_parameters
    from repro.parallel.engine import THEOREM2_POINTS

    reports = [
        LinearLowerBoundExperiment(
            smallest_meaningful_linear_parameters(t), seed=unit_seed
        ).run(num_samples=THEOREM1_SAMPLES)
        for t in range(2, workload.theorem1_max_t + 1)
    ] + [
        QuadraticLowerBoundExperiment(
            GadgetParameters(ell=ell, alpha=1, t=t), seed=unit_seed
        ).run(num_samples=THEOREM2_SAMPLES)
        for ell, t in THEOREM2_POINTS
        if t <= workload.theorem2_max_t
    ]
    return [report_to_json(report) for report in reports]


class CachedStore:
    """A fresh disk store, filled by one cold pass and read by warm passes.

    Every pass must give the uncached output of the same units (so warm
    output equals cold output equals uncached output).
    """

    def __init__(self, unit_seed: int, uncached: Dict[str, str], store_dir: Path) -> None:
        self.unit_seed = unit_seed
        self.units = cached_units(unit_seed)
        self.expected = [uncached[unit.uid] for unit in self.units]
        self.store_dir = store_dir

    def _pass(self, label: str, ledger: Ledger) -> Optional[float]:
        from repro import store
        from repro.core import report_to_json
        from repro.parallel import run_units

        try:
            with store.using_store("disk", path=str(self.store_dir)):
                start = time.perf_counter()
                reports = run_units(self.units, workers=1)
                elapsed = time.perf_counter() - start
        except Exception as error:  # noqa: BLE001
            ledger.fail(f"{label} cached sweep seed {self.unit_seed}: {error!r}")
            return None
        if [report_to_json(report) for report in reports] != self.expected:
            ledger.fail(f"{label} cached sweep seed {self.unit_seed}: differs from uncached", wrong=True)
            return None
        ledger.ok()
        return elapsed

    def cold(self, ledger: Ledger) -> Optional[float]:
        """Compute and write every unit into the empty store."""
        self.close()
        return self._pass("cold", ledger)

    def warm(self, ledger: Ledger) -> Optional[float]:
        """Read every unit back from the filled store."""
        return self._pass("warm", ledger)

    def close(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Serve
# ----------------------------------------------------------------------


class Rung:
    """Open-loop traffic at one rate and everything measured on it.

    The nominal rate is sent in several chunks, each against a fresh
    store; :meth:`merge` pools them.  A saturation probe is a rung whose
    requests are all due at once, so its answered rate is the most the
    service sustains over the generator's connections.
    """

    def __init__(self, rate: float, plan: List[loadgen.Planned], outcomes: List[loadgen.Outcome]) -> None:
        self.rate = rate
        self.plan = plan
        self.outcomes = outcomes
        self.succeeded = 0
        self.failed = 0
        self.refused = 0
        self.mismatched = 0
        self.dispositions: Dict[str, int] = {}
        # First due time to last answer; the first request's arrival
        # period counts too, as n evenly spaced arrivals take n / rate.
        self.span_s = (
            max(o.done for o in outcomes) - min(o.due for o in outcomes) + 1.0 / rate
            if outcomes
            else 0.0
        )
        tail = outcomes[-max(1, len(outcomes) // 10):]
        #: Median send lateness over the last tenth of the chunk.
        self.backlog_ms = quantile([outcome.late_ms for outcome in tail], 0.5)

    @classmethod
    def merge(cls, chunks: Sequence["Rung"]) -> "Rung":
        """One rung pooling several checked chunks sent at the same rate."""
        merged = cls(chunks[0].rate, [], [])
        for chunk in chunks:
            merged.plan += chunk.plan
            merged.outcomes += chunk.outcomes
            merged.span_s += chunk.span_s
            merged.backlog_ms = max(merged.backlog_ms, chunk.backlog_ms)
            for name in ("succeeded", "failed", "refused", "mismatched"):
                setattr(merged, name, getattr(merged, name) + getattr(chunk, name))
            for name, count in chunk.dispositions.items():
                merged.dispositions[name] = merged.dispositions.get(name, 0) + count
        return merged

    def latencies_ms(self) -> List[float]:
        """Due-time latency per request; a failure counts as the client timeout."""
        return [
            outcome.latency_ms
            if outcome.error is None and outcome.status == 200
            else loadgen.TIMEOUT_S * 1000.0
            for outcome in self.outcomes
        ]

    @property
    def achieved_rps(self) -> float:
        """Requests answered 200 per second of traffic."""
        return self.succeeded / self.span_s if self.span_s else 0.0

    def record(self) -> Dict[str, Any]:
        latencies = self.latencies_ms()
        return {
            "rate": self.rate,
            "attempted": len(self.outcomes),
            "succeeded": self.succeeded,
            "failed": self.failed,
            "refused": self.refused,
            "mismatched": self.mismatched,
            "p50_ms": round(quantile(latencies, 0.5), 3),
            "p95_ms": round(quantile(latencies, 0.95), 3),
            "p99_ms": round(quantile(latencies, 0.99), 3),
            "late_ms_p99": round(quantile([o.late_ms for o in self.outcomes], 0.99), 3),
            "backlog_ms": round(self.backlog_ms, 3),
            "achieved_rps": round(self.achieved_rps, 3),
            "dispositions": dict(sorted(self.dispositions.items())),
        }


def serve_rung(env: Environment, traffic: Traffic, rate: float, duration_s: float, workdir: Path) -> Rung:
    """Send one chunk of ``traffic`` against a fresh in-memory store.

    The service's disk store costs a synced sqlite write per miss and a
    sqlite open per lookup; on a shared machine their latency varies so
    much between runs that no latency percentile stays within a bound.
    The cached sweep measures the disk store; serving from memory keeps
    this phase on HTTP, dispatch, keys and compute.

    The process recorder is on while the service runs, as ``repro
    serve`` always has it; outside the traced run its data is dropped
    after each chunk.
    """
    from repro import obs, store

    plan = traffic.chunk(rate, duration_s)
    recorder = obs.get_recorder()
    was_enabled = recorder.enabled
    recorder.enabled = True
    try:
        with store.using_store("memory"):
            outcomes = loadgen.drive("127.0.0.1", env.server.port, plan, POOL_WORKERS, workdir)
    finally:
        recorder.enabled = was_enabled
        if not was_enabled:
            recorder.clear_closed()
    return Rung(rate, plan, outcomes)


def check_rung(rung: Rung, pool: MaxISPool, expected: Dict[Any, Any], ledger: Ledger) -> None:
    """Book every request; each 200 ``result`` must equal ``execute_unit``'s.

    ``expected`` memoizes the reference payload per distinct body; it is
    computed here, after the traffic, with the cache off.
    """
    for entry, outcome in zip(rung.plan, rung.outcomes):
        if outcome.error is not None or outcome.status >= 500:
            rung.failed += 1
            ledger.fail(f"{entry.method} {entry.path}: {outcome.error or outcome.status}")
            continue
        if outcome.status == 429:
            rung.refused += 1
            ledger.refuse()
            continue
        if outcome.status != 200:
            rung.failed += 1
            ledger.fail(f"{entry.method} {entry.path}: status {outcome.status}")
            continue
        if entry.check is not None:
            document = json.loads(outcome.body)
            disposition = document.get("disposition", "?")
            rung.dispositions[disposition] = rung.dispositions.get(disposition, 0) + 1
            if entry.check not in expected:
                expected[entry.check] = expected_result(entry.check, pool)
            if document.get("result") != expected[entry.check]:
                rung.mismatched += 1
                rung.failed += 1
                ledger.fail(f"{entry.path} {entry.check}: result differs from execute_unit", wrong=True)
                continue
        rung.succeeded += 1
        ledger.ok()
