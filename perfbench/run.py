"""The repository benchmark: ``python3 perfbench/run.py --workload NAME ...``.

Run from the repository root::

    python3 perfbench/run.py --workload full_grid --seed 1 --seconds 50 --trace 0

With ``--trace 0`` the run measures every end-to-end metric with no
wrapper installed; with ``--trace 1`` it alternates untraced and traced
rounds of fixed work and reports per-layer metrics.  The last line of
standard output is the result: ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the run's configuration (seed,
worker count, serve rates, ``nproc``) and its failure accounting.
``README.md`` describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: Fresh processes timed for ``setup_s``; the metric is their median.
SETUP_PROBES = 5

#: Shares of ``--seconds`` given to each phase of an untraced run: the
#: sweeps, the cold and the warm cached passes, the nominal serve rate
#: (sent in chunks of ``NOMINAL_CHUNK_S``) and the saturation probes.
SWEEP_SHARE = 0.36
COLD_SHARE = 0.10
WARM_SHARE = 0.01
NOMINAL_SHARE = 0.25
NOMINAL_CHUNK_S = 2.5
SATURATE_SHARE = 0.25

#: The serve traffic's nominal rate (requests/s), about a quarter of what
#: the service answers, where latency follows the work more than the queue.
NOMINAL_RPS = 60.0

#: A saturation probe: ``SATURATE_CYCLES`` cycles of the traffic, all due
#: at once, so each connection sends its next request as soon as the
#: previous answer arrives.
SATURATE_CYCLES = 30
SATURATE_RPS = 1.0e6

#: Warm passes after the cold pass in each traced round.
TRACE_WARM_PASSES = 10

#: Share of ``--seconds`` for the serve rung of a traced round.
TRACE_RUNG_SHARE = 0.08


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setup() -> float:
    """Seconds from the start of a fresh process to a ready service."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py")],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = child.stdout.readline()
        ready = time.perf_counter() - start
        child.stdout.read()
    finally:
        child.stdout.close()
        child.wait(timeout=60)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return ready


class Run:
    """One benchmark run: set-up, phases, checks, and the result line."""

    def __init__(self, workload: Any, seed: int, seconds: float, workdir: Path) -> None:
        from phases import Ledger
        from workloads import seed_stream

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.sweep_rng = seed_stream(seed, "sweep")
        self.ledger = Ledger()
        self.record: Dict[str, Any] = {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "nproc": os.cpu_count(),
        }

    def _unit_seed(self) -> int:
        return self.sweep_rng.randrange(1 << 30)

    def _traffic(self, pool: Any, purpose: str) -> Any:
        from workloads import Traffic, seed_stream

        return Traffic(pool, seed_stream(self.seed, f"serve:{purpose}"))

    # ------------------------------------------------------------------
    # Untraced: the end-to-end metrics
    # ------------------------------------------------------------------

    def measure(self) -> Dict[str, Any]:
        """Interleave the phases over ``--seconds`` and report end to end.

        The machine's speed drifts by tens of percent over seconds, so
        instead of running each phase in one block, every step runs the
        phase furthest behind its share of the time, and the set-up
        probes are spread evenly; each metric then samples the whole run.
        """
        from phases import (
            POOL_WORKERS, CachedStore, Rung, check_rung, prepare, quantile,
            reference_output, serve_rung, sweep_pass,
        )
        from workloads import CYCLE, MaxISPool

        workload = self.workload
        shares = {
            "sweep": SWEEP_SHARE,
            "cold": COLD_SHARE,
            "warm": WARM_SHARE,
            "nominal": NOMINAL_SHARE,
            "saturate": SATURATE_SHARE,
        }
        spent = dict.fromkeys(shares, 0.0)
        setup: List[float] = []
        serial: List[float] = []
        parallel: List[float] = []
        simulate: List[float] = []
        cold: List[float] = []
        warm: List[float] = []
        outputs: List[Tuple[int, Dict[str, str]]] = []
        simulations: List[Any] = []
        nominal_chunks: List[Any] = []
        saturated: List[Any] = []
        saturate_s = SATURATE_CYCLES * len(CYCLE) / SATURATE_RPS
        cached: Optional[CachedStore] = None
        passes = 0
        env = prepare()
        try:
            pool = MaxISPool(env.construction)
            nominal_traffic = self._traffic(pool, "nominal")
            saturate_traffic = self._traffic(pool, "saturate")
            start = time.perf_counter()
            deadline = start + self.seconds
            while True:
                now = time.perf_counter()
                if len(setup) < SETUP_PROBES and (
                    now - start >= len(setup) * self.seconds / SETUP_PROBES or now >= deadline
                ):
                    setup.append(time_setup())
                    continue
                candidates = [
                    phase
                    for phase, wanted in (
                        ("sweep", now < deadline or passes < 3),
                        ("cold", (now < deadline or len(cold) < 2) and len(cold) < len(outputs)),
                        ("warm", (now < deadline or len(warm) < 2) and bool(cold)),
                        ("nominal", now < deadline or len(nominal_chunks) < 2),
                        ("saturate", now < deadline or len(saturated) < 3),
                    )
                    if wanted
                ]
                if not candidates:
                    break
                phase = min(candidates, key=lambda name: spent[name] / shares[name])
                if phase == "sweep":
                    passes += 1
                    unit_seed = self._unit_seed()
                    result = sweep_pass(workload, unit_seed, self.ledger)
                    for samples, value in (
                        (serial, result.serial_s),
                        (parallel, result.parallel_s),
                        (simulate, result.simulate_s),
                    ):
                        if value is not None:
                            samples.append(value)
                    if result.output is not None:
                        outputs.append((unit_seed, result.output))
                    if result.simulation is not None:
                        simulations.append(result.simulation)
                elif phase == "cold":
                    unit_seed, uncached = outputs[len(cold)]
                    cached = CachedStore(unit_seed, uncached, self.workdir / "cached-store")
                    cold.append(cached.cold(self.ledger))
                elif phase == "warm":
                    warm.append(cached.warm(self.ledger))
                elif phase == "nominal":
                    nominal_chunks.append(
                        serve_rung(env, nominal_traffic, NOMINAL_RPS, NOMINAL_CHUNK_S, self.workdir)
                    )
                else:
                    saturated.append(
                        serve_rung(env, saturate_traffic, SATURATE_RPS, saturate_s, self.workdir)
                    )
                spent[phase] += time.perf_counter() - now
        finally:
            if cached is not None:
                cached.close()
            env.close()
        cold = [value for value in cold if value is not None]
        warm = [value for value in warm if value is not None]

        self._check_simulations(simulations)
        expected: Dict[Any, Any] = {}
        for chunk in nominal_chunks + saturated:
            check_rung(chunk, pool, expected, self.ledger)
        if outputs:
            unit_seed, output = outputs[0]
            if reference_output(workload, unit_seed) != list(output.values()):
                self.ledger.fail(f"sweep seed {unit_seed}: differs from the core reference", wrong=True)

        nominal = Rung.merge(nominal_chunks)
        self.record.update(
            workers=POOL_WORKERS,
            nominal_rps=NOMINAL_RPS,
            saturate_requests=SATURATE_CYCLES * len(CYCLE),
            setup_samples_s=setup,
            sweep_samples_s={
                "serial": serial, "parallel": parallel, "simulate": simulate,
                "cold": cold, "warm": warm,
            },
            sweep_passes=passes,
            cold_passes=len(cold),
            warm_passes=len(warm),
            nominal=nominal.record(),
            saturated=[rung.record() for rung in saturated],
        )
        return {
            "setup_s": _metric(_median(setup), "s"),
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
            "sweep_s": _metric(_median(serial), "s"),
            "sweep_parallel_s": _metric(_median(parallel), "s"),
            "simulate_s": _metric(_median(simulate), "s"),
            "cold_sweep_s": _metric(_median(cold), "s"),
            "warm_sweep_s": _metric(_median(warm), "s"),
            "serve_p50_ms": _metric(quantile(nominal.latencies_ms(), 0.50), "ms"),
            "serve_max_rps": _metric(_median([rung.achieved_rps for rung in saturated]), "1/s"),
        }

    def _check_simulations(self, simulations: List[List[List[Any]]]) -> None:
        """Blackboard bits do not depend on the inputs: every pass agrees."""
        if any(rows != simulations[0] for rows in simulations[1:]):
            self.ledger.fail("simulation rows differ between passes", wrong=True)

    # ------------------------------------------------------------------
    # Traced: the per-layer metrics
    # ------------------------------------------------------------------

    def trace(self) -> Dict[str, Any]:
        import per_layer
        from phases import POOL_WORKERS, CachedStore, check_rung, prepare, serve_rung, sweep_pass
        from spans import Tracer
        from workloads import MaxISPool

        workload = self.workload
        tracer = Tracer()
        env = prepare()
        unit_seed = self._unit_seed()
        rung_s = TRACE_RUNG_SHARE * self.seconds
        pool = MaxISPool(env.construction)
        rounds: List[per_layer.Round] = []
        try:
            deadline = time.perf_counter() + self.seconds
            while not rounds or time.perf_counter() < deadline:
                current = per_layer.Round()
                for traced in (False, True):
                    if traced:
                        tracer.install()
                    try:
                        tracer.begin("sweep")
                        result = sweep_pass(workload, unit_seed, self.ledger)
                        current.add_sweep(traced, result)
                        if result.output is not None:
                            cached = CachedStore(unit_seed, result.output, self.workdir / "cached-store")
                            tracer.begin("cached", "cold")
                            cold_s = cached.cold(self.ledger)
                            tracer.begin("cached", "warm")
                            warm_s = [cached.warm(self.ledger) for _ in range(TRACE_WARM_PASSES)]
                            cached.close()
                            current.add_cached(traced, cold_s, warm_s)
                        tracer.begin("serve")
                        # The same traffic every time.
                        traffic = self._traffic(pool, "nominal")
                        current.add_rung(traced, serve_rung(env, traffic, NOMINAL_RPS, rung_s, self.workdir))
                    finally:
                        if traced:
                            tracer.uninstall()
                        tracer.begin("idle")
                current.close_traced(tracer)
                rounds.append(current)
        finally:
            env.close()
        expected: Dict[Any, Any] = {}
        for current in rounds:
            for rung in current.rungs:
                check_rung(rung, pool, expected, self.ledger)
        self.record.update(
            workers=POOL_WORKERS,
            nominal_rps=NOMINAL_RPS,
            traced_rounds=len(rounds),
            trace_seed=unit_seed,
        )
        return per_layer.metrics(tracer, rounds, self.ledger)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    # Every scratch file (stores, load plans, temp files of the program)
    # stays inside the checkout, and goes when the run ends.
    workdir = HERE.parent / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds, workdir)
        metrics = run.trace() if args.trace else run.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    run.record["ledger"] = run.ledger.record()
    run.record["trace"] = args.trace
    print(json.dumps(run.record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": run.ledger.wrong == 0,
                "attempted": run.ledger.attempted,
                "failed": run.ledger.failed + run.ledger.refused,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
