"""The traced run's per-layer metrics, derived from :class:`spans.Tracer`.

A traced run repeats one *round* of fixed work on fixed inputs: a sweep
pass, a cold and ten warm cached passes, and one serve rung at the
nominal rate on a fresh store, each first untraced and then traced.  Layer totals are divided by the number of
rounds, so a count such as ``sweep.maxis.search.calls`` is the count for
one round and repeats exactly from run to run of the same seed.

Names are ``<phase>.<layer>.calls`` and ``<phase>.<layer>.self_s`` for
every phase (``sweep``, ``cached``, ``serve``) and layer in
:data:`spans.LAYERS`, plus the phase-specific figures listed in
:func:`catalogue`.  A layer a phase never calls reads 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Tuple

from phases import Ledger, Rung, SweepPass, quantile
from spans import LAYERS, Tracer

PHASES = ("sweep", "cached", "serve")

#: Layers whose call count is reported besides their self time.
COUNTED_LAYERS = (
    "gadgets.build",
    "gadgets.apply_inputs",
    "graphs.copy",
    "graphs.index_form",
    "maxis.kernel",
    "maxis.search",
    "codes.mapping",
    "store.key",
    "store.backend.put",
    "store.backend.get",
)

#: Phase-specific figures: name and unit.
SPECIAL = (
    ("sweep.maxis.nodes_expanded", "count"),
    ("cached.maxis.nodes_expanded", "count"),
    ("sweep.framework.blackboard_bits", "count"),
    ("sweep.parallel.pool_wait_s", "s"),
    ("sweep.parallel.efficiency", "ratio"),
    ("sweep.parallel.workers", "count"),
    ("cached.store.bytes_written", "bytes"),
    ("serve.store.bytes_written", "bytes"),
    ("cached.store.hit_ratio.cold", "ratio"),
    ("cached.store.hit_ratio.warm", "ratio"),
    ("serve.handler_ms_p50", "ms"),
    ("serve.handler_ms_p99", "ms"),
    ("serve.transport_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced_ratio", "ratio"),
    ("serve.repeat_share", "ratio"),
    ("serve.shed", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("obs.trace_overhead", "ratio"),
    ("error_rate", "ratio"),
)


def catalogue() -> List[Tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names: List[Tuple[str, str]] = []
    for phase in PHASES:
        for layer in LAYERS:
            if layer in COUNTED_LAYERS:
                names.append((f"{phase}.{layer}.calls", "count"))
            names.append((f"{phase}.{layer}.self_s", "s"))
    return names + list(SPECIAL)


class Round:
    """One untraced-then-traced repetition of the fixed work."""

    def __init__(self) -> None:
        #: Summed sweep and cached-sweep operation seconds, untraced
        #: (``False``) and traced; serve latency depends on queueing as
        #: much as on work, so it stays out of the overhead estimate.
        self.op_s = {False: 0.0, True: 0.0}
        self.untraced_sweep: Optional[SweepPass] = None
        self.rungs: List[Rung] = []
        self.traced_rung: Optional[Rung] = None
        self.handlers: List[Tuple[Optional[str], float, float]] = []
        self.queue_wait_p99: List[float] = []
        #: Exact counts seen so far, taken when the traced half ends.
        self.counts: Dict[str, float] = {}

    def add_sweep(self, traced: bool, result: SweepPass) -> None:
        for value in (result.serial_s, result.parallel_s, result.simulate_s):
            self.op_s[traced] += value or 0.0
        if not traced:
            self.untraced_sweep = result

    def add_cached(self, traced: bool, cold_s: Optional[float], warm_s: List[Optional[float]]) -> None:
        self.op_s[traced] += (cold_s or 0.0) + sum(value or 0.0 for value in warm_s)

    def add_rung(self, traced: bool, rung: Rung) -> None:
        self.rungs.append(rung)
        if traced:
            self.traced_rung = rung

    def close_traced(self, tracer: Tracer) -> None:
        self.handlers = [(bench_id, start, end) for phase, bench_id, start, end in tracer.handlers
                         if phase == "serve"]
        tracer.handlers.clear()
        self.queue_wait_p99 = tracer.queue_wait_p99.pop("serve", [])
        counts = tracer.counts
        self.counts = {
            "sweep.nodes": counts[("sweep", "maxis.exact.nodes_expanded")],
            "cached.nodes": counts[("cached", "maxis.exact.nodes_expanded.cold")]
            + counts[("cached", "maxis.exact.nodes_expanded.warm")],
            "sweep.bits": counts[("sweep", "theorem5.blackboard_bits")],
        }


def _per_round(rounds: List[Round], key: str, ledger: Ledger) -> float:
    """One round's share of a cumulative exact count; it must not vary."""
    previous = 0.0
    deltas = []
    for current in rounds:
        deltas.append(current.counts[key] - previous)
        previous = current.counts[key]
    if any(delta != deltas[0] for delta in deltas):
        ledger.fail(f"{key} differs between identical rounds: {deltas}", wrong=True)
    return deltas[0]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def metrics(tracer: Tracer, rounds: List[Round], ledger: Ledger) -> Dict[str, Any]:
    """Every metric of :func:`catalogue`, averaged per round."""
    count = len(rounds)
    totals = tracer.layer_totals()
    values: Dict[str, float] = {}
    for phase in PHASES:
        for layer in LAYERS:
            calls, self_s = totals.get((phase, layer), (0, 0.0))
            values[f"{phase}.{layer}.calls"] = calls / count
            values[f"{phase}.{layer}.self_s"] = self_s / count

    values["sweep.maxis.nodes_expanded"] = _per_round(rounds, "sweep.nodes", ledger)
    values["cached.maxis.nodes_expanded"] = _per_round(rounds, "cached.nodes", ledger)
    values["sweep.framework.blackboard_bits"] = _per_round(rounds, "sweep.bits", ledger)

    efficiencies = [
        current.untraced_sweep.serial_s / (2 * current.untraced_sweep.parallel_s)
        for current in rounds
        if current.untraced_sweep and current.untraced_sweep.serial_s and current.untraced_sweep.parallel_s
    ]
    values["sweep.parallel.efficiency"] = statistics.median(efficiencies) if efficiencies else 0.0
    values["sweep.parallel.pool_wait_s"] = totals.get(("sweep", "parallel.pool_wait"), (0, 0.0))[1] / count
    values["sweep.parallel.workers"] = tracer.counts[("sweep", "pool_workers")] / count
    if tracer.counts[("sweep", "pool_fallbacks")] or values["sweep.parallel.workers"] < 2:
        ledger.fail("the traced pool did not run on 2 worker processes")

    counts = tracer.counts
    values["cached.store.bytes_written"] = (
        counts[("cached", "cache.bytes_written.cold")] + counts[("cached", "cache.bytes_written.warm")]
    ) / count
    values["serve.store.bytes_written"] = counts[("serve", "cache.bytes_written")] / count
    for stage in ("cold", "warm"):
        hits = counts[("cached", f"cache.hit.{stage}")]
        misses = counts[("cached", f"cache.miss.{stage}")]
        values[f"cached.store.hit_ratio.{stage}"] = _ratio(hits, hits + misses)
    if values["cached.store.hit_ratio.warm"] != 1.0:
        ledger.fail("warm cached sweep missed the store", wrong=True)

    handler_ms: List[float] = []
    transport_ms: List[float] = []
    queue_wait_p99: List[float] = []
    dispositions: Dict[str, int] = {}
    late_ms: List[float] = []
    shed = repeats = posts = 0
    for current in rounds:
        rung = current.traced_rung
        queue_wait_p99 += current.queue_wait_p99
        for bench_id, start, end in current.handlers:
            handler = (end - start) * 1000.0
            handler_ms.append(handler)
            if bench_id is not None and rung is not None:
                transport_ms.append(rung.outcomes[int(bench_id)].round_trip_ms - handler)
        for each in current.rungs:
            late_ms += [outcome.late_ms for outcome in each.outcomes]
        if rung is None:
            continue
        shed += sum(1 for outcome in rung.outcomes if outcome.status == 429)
        for name, number in rung.dispositions.items():
            dispositions[name] = dispositions.get(name, 0) + number
        seen = set()
        for entry in rung.plan:
            if entry.check is None:
                continue
            posts += 1
            repeats += entry.check in seen
            seen.add(entry.check)
    disposed = sum(dispositions.values())
    values["serve.handler_ms_p50"] = quantile(handler_ms, 0.50)
    values["serve.handler_ms_p99"] = quantile(handler_ms, 0.99)
    values["serve.transport_ms_p50"] = quantile(transport_ms, 0.50)
    values["serve.queue_wait_ms_p99"] = statistics.median(queue_wait_p99) if queue_wait_p99 else 0.0
    values["serve.hit_ratio"] = _ratio(dispositions.get("cache_hit", 0), disposed)
    values["serve.coalesced_ratio"] = _ratio(dispositions.get("coalesced", 0), disposed)
    values["serve.repeat_share"] = _ratio(repeats, posts)
    values["serve.shed"] = shed / count
    values["loadgen.late_ms_p99"] = quantile(late_ms, 0.99)
    values["obs.trace_overhead"] = _ratio(
        sum(current.op_s[True] for current in rounds),
        sum(current.op_s[False] for current in rounds),
    ) - 1.0
    values["error_rate"] = ledger.error_rate
    return {name: {"value": values[name], "unit": unit} for name, unit in catalogue()}
