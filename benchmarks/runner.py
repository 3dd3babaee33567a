"""The perf trajectory runner: curated benches -> ``BENCH_<sha>.json``.

``pytest benchmarks/`` regenerates the paper's figures; *this* module
answers a different question — are the hot paths getting faster or
quietly regressing?  It keeps a small curated suite of six benches,
one per hot path the reproduction leans on:

* ``construction_build`` — gadget graph construction (linear + quadratic);
* ``gf_arithmetic``      — finite-field/Reed–Solomon encode + decode;
* ``maxis_exact``        — branch-and-bound exact MaxIS on a gadget instance;
* ``kernel_reduction``   — the standalone MaxIS kernelization over a
  reducible family plus the gadget instance, with the nodes-removed
  ratio recorded as gauges in the trajectory record;
* ``congest_trace``      — ExecutionTrace round loop driving Luby's MIS;
* ``theorem5_simulation`` — the full Theorem 5 player simulation.

The end-to-end numbers — theorem sweeps serial and pooled, cold and warm
cached sweeps, serve latency and throughput — are ``perfbench/``'s
job (``docs/BENCHMARKS.md``); this suite times the pieces below them.

Each bench is run ``warmup`` times untimed and ``repeats`` times timed
with observability *off* (so the timings measure the hot path, not the
recorder), then once more under ``obs.recording()`` to capture the
counter/histogram/span manifest.  Wall times are summarized with
robust statistics in the pyperf spirit: median and IQR, with samples
outside the Tukey fences (1.5 IQR beyond the quartiles) rejected from
the mean/stdev and reported as outliers.

The per-bench records are aggregated into one trajectory file,
``BENCH_<git-sha>.json``, and ``compare()`` flags per-bench median
movements beyond a noise threshold — the CI hook that turns the
trajectory into a regression gate.  Schema and the regression rule are
documented in ``docs/BENCHMARKS.md``.

Run it via ``python -m repro bench`` (or ``python -m benchmarks.runner``)
from the repository root.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis import render_table
from repro.obs.manifest import build_manifest, run_provenance
from repro.obs.recorder import SCHEMA_VERSION

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Committed reference trajectories.  ``latest_trajectory`` falls back
#: here when the results directory has no candidates, so a fresh clone
#: can run ``repro bench --compare NEW`` against the checked-in seed.
BASELINES_DIR = pathlib.Path(__file__).parent / "baselines"

#: The trajectory record's own schema; bumped independently of the
#: event schema when the BENCH_*.json shape changes.
BENCH_SCHEMA_VERSION = 1


class BenchSpec:
    """One registered bench: a name, a thunk, and its parameters."""

    def __init__(
        self, name: str, fn: Callable[[], Any], parameters: Dict[str, Any]
    ) -> None:
        self.name = name
        self.fn = fn
        self.parameters = parameters


_REGISTRY: Dict[str, BenchSpec] = {}
_FIXTURES: Dict[str, Any] = {}


def bench(name: str, **parameters: Any):
    """Register a function as a named bench with its parameter record."""

    def decorator(fn: Callable[[], Any]) -> Callable[[], Any]:
        if name in _REGISTRY:
            raise ValueError(f"bench {name!r} registered twice")
        _REGISTRY[name] = BenchSpec(name, fn, parameters)
        return fn

    return decorator


def discover(only: Optional[Sequence[str]] = None) -> List[BenchSpec]:
    """The registered benches, in registration order.

    ``only`` filters by name; an unknown name raises so CI typos fail
    loudly instead of silently benching nothing.
    """
    if only is None:
        return list(_REGISTRY.values())
    unknown = [name for name in only if name not in _REGISTRY]
    if unknown:
        raise KeyError(
            f"unknown bench(es) {unknown}; available: {sorted(_REGISTRY)}"
        )
    return [_REGISTRY[name] for name in only]


def _fixture(key: str, build: Callable[[], Any]) -> Any:
    """Build-once fixtures so repeats time the hot path, not its setup."""
    if key not in _FIXTURES:
        _FIXTURES[key] = build()
    return _FIXTURES[key]


# ----------------------------------------------------------------------
# The six benches
# ----------------------------------------------------------------------


@bench("construction_build", ell=2, alpha=1, t=3)
def bench_construction_build():
    from repro.gadgets import (
        GadgetParameters,
        LinearConstruction,
        QuadraticConstruction,
    )

    params = GadgetParameters(ell=2, alpha=1, t=3)
    linear = LinearConstruction(params)
    quadratic = QuadraticConstruction(params)
    return linear.graph.num_nodes + quadratic.graph.num_nodes


@bench("gf_arithmetic", q=16, message_length=4, block_length=10, messages=24, errors=1)
def bench_gf_arithmetic():
    from repro.codes import ReedSolomonCode

    code = _fixture(
        "rs_code", lambda: ReedSolomonCode.over_order(16, 4, 10)
    )
    rng = random.Random(1234)
    decoded_ok = 0
    for _ in range(24):
        message = tuple(rng.randrange(16) for _ in range(4))
        word = list(code.encode(message))
        # One injected error keeps the error-locating decode search
        # linear in the block length while still exercising GF division.
        position = rng.randrange(10)
        word[position] = (word[position] + 1 + rng.randrange(15)) % 16
        if code.decode(word) == message:
            decoded_ok += 1
    return decoded_ok


def _gadget_instance():
    from repro.commcc import uniquely_intersecting_inputs
    from repro.gadgets import GadgetParameters, LinearConstruction

    params = GadgetParameters(ell=3, alpha=1, t=2)
    construction = LinearConstruction(params)
    inputs = uniquely_intersecting_inputs(
        params.k, params.t, rng=random.Random(41)
    )
    return construction.apply_inputs(inputs)


@bench("maxis_exact", ell=3, alpha=1, t=2)
def bench_maxis_exact():
    from repro.maxis import max_independent_set_weight

    graph = _fixture("gadget_instance", _gadget_instance)
    return max_independent_set_weight(graph)


def _kernel_reduction_instances():
    """Fresh graphs for the kernelization bench, reducible to identity.

    Rebuilt on every call: the kernelization is memoized per graph
    object, so timing reduction requires cold graphs.  Three shapes:
    a union of cliques (collapsed entirely by the twin rule), a long
    weighted path (consumed by the degree-1/2 fold rules), and the
    standard 40-node gadget instance (irreducible — the identity-kernel
    fast path).
    """
    from repro.graphs import WeightedGraph

    graphs = []
    cliques = WeightedGraph()
    label = 0
    for _ in range(6):
        members = list(range(label, label + 5))
        label += 5
        for m in members:
            cliques.add_node(m, weight=1 + (m % 4))
        for i in range(5):
            for j in range(i + 1, 5):
                cliques.add_edge(members[i], members[j])
    graphs.append(cliques)
    path = WeightedGraph()
    for i in range(60):
        path.add_node(i, weight=1 + (i * 7) % 5)
    for i in range(59):
        path.add_edge(i, i + 1)
    graphs.append(path)
    graphs.append(_gadget_instance())
    return graphs


@bench("kernel_reduction", cliques=6, clique_size=5, path_nodes=60, ell=3, t=2)
def bench_kernel_reduction():
    """Kernelize a reducible family cold; no solve.

    Each invocation rebuilds the instances cold and kernelizes them.
    The timed samples cover the whole cycle; the manifest-pass gauges
    expose how much the rules remove: ``kernel.removed_ratio`` (nodes
    removed / initial nodes over the family).
    """
    from repro import obs
    from repro.maxis import kernelize

    initial = removed = 0
    for graph in _kernel_reduction_instances():
        stats = kernelize(graph).stats
        initial += stats.initial_nodes
        removed += stats.removed_nodes
    recorder = obs.get_recorder()
    recorder.gauge("kernel.initial_nodes", initial)
    recorder.gauge("kernel.removed_nodes", removed)
    recorder.gauge("kernel.removed_ratio", removed / initial if initial else 0.0)
    return removed


@bench("congest_trace", ell=3, alpha=1, t=2, algorithm="LubyMIS")
def bench_congest_trace():
    from repro.congest import CongestNetwork, ExecutionTrace, LubyMIS

    graph = _fixture("gadget_instance", _gadget_instance)
    network = CongestNetwork(graph, LubyMIS, bandwidth_multiplier=2, seed=1)
    trace = ExecutionTrace(network, record_edges=True)
    trace.run(max_rounds=10_000)
    return trace.total_bits


@bench("theorem5_simulation", ell=2, alpha=1, t=2, seed=11)
def bench_theorem5_simulation():
    from repro.commcc import uniquely_intersecting_inputs
    from repro.congest import FullGraphCollection
    from repro.framework import simulate_congest_via_players
    from repro.gadgets import GadgetParameters, LinearMaxISFamily
    from repro.maxis import max_independent_set_weight

    params = GadgetParameters(ell=2, alpha=1, t=2)
    family = _fixture(
        "theorem5_family", lambda: LinearMaxISFamily(params, warmup=True)
    )
    low = family.gap.low_threshold
    inputs = uniquely_intersecting_inputs(
        params.k, params.t, rng=random.Random(11)
    )
    report = simulate_congest_via_players(
        family,
        inputs,
        lambda: FullGraphCollection(
            evaluate=lambda graph: max_independent_set_weight(graph) <= low
        ),
    )
    return report.blackboard_bits


# ----------------------------------------------------------------------
# Robust statistics
# ----------------------------------------------------------------------


def _quantile(ordered: Sequence[float], q: float) -> float:
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def robust_stats(samples: Sequence[float]) -> Dict[str, float]:
    """Median/IQR wall-time statistics with Tukey outlier rejection.

    The median and IQR are computed over *all* samples (they are robust
    already); the mean/stdev exclude samples beyond 1.5 IQR outside the
    quartiles, whose count is reported as ``outliers_rejected`` — the
    pyperf recipe for taming scheduler noise without hiding it.
    """
    if not samples:
        raise ValueError("cannot summarize zero samples")
    ordered = sorted(samples)
    q1 = _quantile(ordered, 0.25)
    median = _quantile(ordered, 0.50)
    q3 = _quantile(ordered, 0.75)
    iqr = q3 - q1
    low_fence = q1 - 1.5 * iqr
    high_fence = q3 + 1.5 * iqr
    inliers = [x for x in ordered if low_fence <= x <= high_fence]
    mean = sum(inliers) / len(inliers)
    if len(inliers) > 1:
        variance = sum((x - mean) ** 2 for x in inliers) / (len(inliers) - 1)
        stdev = variance ** 0.5
    else:
        stdev = 0.0
    return {
        "repeats": len(samples),
        "median_s": median,
        "iqr_s": iqr,
        "min_s": ordered[0],
        "max_s": ordered[-1],
        "mean_s": mean,
        "stdev_s": stdev,
        "outliers_rejected": len(samples) - len(inliers),
    }


# ----------------------------------------------------------------------
# Running the suite
# ----------------------------------------------------------------------


def run_bench(
    spec: BenchSpec,
    warmup: int,
    repeats: int,
    clock: Callable[[], float] = time.perf_counter,
) -> Dict[str, Any]:
    """Time one bench and capture its instrumented manifest.

    Timed repeats run with observability off; a final extra run under
    ``obs.recording()`` supplies counters/histograms/spans, so the
    wall-clock samples never pay recorder overhead.
    """
    if repeats < 1:
        raise ValueError(f"need at least one timed repeat, got {repeats}")
    for _ in range(warmup):
        spec.fn()
    samples: List[float] = []
    for _ in range(repeats):
        start = clock()
        spec.fn()
        samples.append(clock() - start)
    with obs.recording() as recorder:
        spec.fn()
    manifest = build_manifest(
        spec.name, parameters=spec.parameters, recorder=recorder
    )
    return {
        "parameters": manifest["parameters"],
        "wall": robust_stats(samples),
        "counters": manifest["counters"],
        "gauges": manifest["gauges"],
        "histograms": manifest["histograms"],
        "timers": manifest["timers"],
        "spans": manifest["spans"],
    }


def run_suite(
    warmup: int = 2,
    repeats: int = 5,
    only: Optional[Sequence[str]] = None,
    out_dir: Optional[str] = None,
) -> Tuple[pathlib.Path, Dict[str, Any]]:
    """Run the suite; write and return the ``BENCH_<sha>.json`` record."""
    provenance = run_provenance()
    specs = discover(only)
    trajectory: Dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "event_schema_version": SCHEMA_VERSION,
        "kind": "bench_trajectory",
        "provenance": provenance,
        "config": {"warmup": warmup, "repeats": repeats},
        "benches": {},
    }
    rows = []
    for spec in specs:
        print(f"bench {spec.name} ... ", end="", flush=True)
        record = run_bench(spec, warmup=warmup, repeats=repeats)
        trajectory["benches"][spec.name] = record
        wall = record["wall"]
        print(f"median {wall['median_s'] * 1000:.2f}ms")
        rows.append(
            [
                spec.name,
                round(wall["median_s"] * 1000, 3),
                round(wall["iqr_s"] * 1000, 3),
                round(wall["min_s"] * 1000, 3),
                round(wall["max_s"] * 1000, 3),
                wall["outliers_rejected"],
            ]
        )
    print()
    print(
        render_table(
            ["bench", "median ms", "IQR ms", "min ms", "max ms", "outliers"],
            rows,
            title=f"Bench suite @ {provenance['git_sha']} "
            f"(warmup={warmup}, repeats={repeats})",
        )
    )
    directory = pathlib.Path(out_dir) if out_dir else RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{provenance['git_sha']}.json"
    path.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    return path, trajectory


# ----------------------------------------------------------------------
# Trajectory comparison
# ----------------------------------------------------------------------


def load_trajectory(path) -> Dict[str, Any]:
    """Parse a ``BENCH_*.json`` file, checking its kind and schema."""
    record = json.loads(pathlib.Path(path).read_text())
    if record.get("kind") != "bench_trajectory" or "schema_version" not in record:
        raise ValueError(f"{path} is not a bench trajectory record")
    return record


def discover_trajectories(
    directory: Optional[pathlib.Path] = None,
    require: bool = False,
) -> List[Tuple[pathlib.Path, Dict[str, Any]]]:
    """Every loadable ``BENCH_*.json`` under ``directory``, oldest first.

    Files are ordered by modification time (name as a tiebreaker, so
    the order is total) — the trajectory timeline the dashboard's
    sparklines walk.  Unparseable or non-trajectory ``BENCH_*`` files
    are skipped rather than raised: a half-written record from a
    crashed run must not take the whole report down.

    ``require=True`` turns the empty result into a ``FileNotFoundError``
    with an actionable message (how to record a trajectory, where the
    committed baseline lives) instead of leaving callers to crash on an
    empty list later.
    """
    directory = pathlib.Path(directory) if directory else RESULTS_DIR
    entries: List[Tuple[float, str, pathlib.Path]] = []
    if directory.is_dir():
        for path in directory.glob("BENCH_*.json"):
            entries.append((path.stat().st_mtime, path.name, path))
    found: List[Tuple[pathlib.Path, Dict[str, Any]]] = []
    for _, _, path in sorted(entries):
        try:
            found.append((path, load_trajectory(path)))
        except (ValueError, json.JSONDecodeError, OSError):
            continue
    if require and not found:
        raise FileNotFoundError(
            f"no BENCH_*.json trajectory records found in {directory}; "
            "run `python -m repro bench` to record one (a committed "
            f"reference lives in {BASELINES_DIR})"
        )
    return found


def latest_trajectory(
    directory: Optional[pathlib.Path] = None,
    exclude: Optional[pathlib.Path] = None,
) -> Optional[pathlib.Path]:
    """The newest ``BENCH_*.json`` in ``directory``, or ``None``.

    ``exclude`` skips one path — ``repro bench --compare`` passes the
    record it just wrote so auto-discovery picks the previous run as
    the baseline instead of comparing the new record to itself.  When
    the directory holds no other candidates, the committed
    ``benchmarks/baselines/`` seed is consulted, so a fresh clone can
    compare its first run against the checked-in reference.
    """
    exclude = pathlib.Path(exclude).resolve() if exclude else None
    for candidate_dir in (directory, BASELINES_DIR):
        candidates = [
            path
            for path, _ in discover_trajectories(candidate_dir)
            if exclude is None or path.resolve() != exclude
        ]
        if candidates:
            return candidates[-1]
    return None


def compare(
    old: Dict[str, Any], new: Dict[str, Any], threshold: float = 0.15
) -> List[Dict[str, Any]]:
    """Per-bench verdicts between two trajectory records.

    A bench *regresses* when its median moved up by more than
    ``threshold`` relative AND the absolute movement exceeds the noise
    floor ``max(old IQR, new IQR)`` — both gates must fire, so a noisy
    bench cannot regress on jitter alone and a fast bench cannot
    regress on an invisible absolute delta.  Improvement is symmetric.
    Benches present on only one side get verdict ``added``/``removed``.
    """
    verdicts: List[Dict[str, Any]] = []
    old_benches = old.get("benches", {})
    new_benches = new.get("benches", {})
    for name in sorted(set(old_benches) | set(new_benches)):
        if name not in new_benches:
            verdicts.append({"bench": name, "verdict": "removed"})
            continue
        if name not in old_benches:
            verdicts.append({"bench": name, "verdict": "added"})
            continue
        old_wall = old_benches[name]["wall"]
        new_wall = new_benches[name]["wall"]
        old_median = old_wall["median_s"]
        new_median = new_wall["median_s"]
        delta = new_median - old_median
        relative = delta / old_median if old_median else 0.0
        noise = max(old_wall["iqr_s"], new_wall["iqr_s"])
        if delta > max(threshold * old_median, noise):
            verdict = "regressed"
        elif -delta > max(threshold * old_median, noise):
            verdict = "improved"
        else:
            verdict = "ok"
        entry = {
            "bench": name,
            "verdict": verdict,
            "old_median_s": old_median,
            "new_median_s": new_median,
            "relative": relative,
            "noise_s": noise,
        }
        verdicts.append(entry)
    return verdicts


def compare_files(
    old_path, new_path, threshold: float = 0.15, warn_only: bool = False
) -> int:
    """Compare two trajectory files; nonzero exit on regression.

    With ``warn_only`` the verdict table is still printed but the exit
    code stays 0 — CI's non-blocking mode for cross-machine baselines.
    """
    old = load_trajectory(old_path)
    new = load_trajectory(new_path)
    verdicts = compare(old, new, threshold=threshold)
    rows = []
    for entry in verdicts:
        if entry["verdict"] in ("added", "removed"):
            rows.append([entry["bench"], "-", "-", "-", entry["verdict"]])
            continue
        rows.append(
            [
                entry["bench"],
                round(entry["old_median_s"] * 1000, 3),
                round(entry["new_median_s"] * 1000, 3),
                f"{entry['relative'] * 100:+.1f}%",
                entry["verdict"],
            ]
        )
    print(
        render_table(
            ["bench", "old median ms", "new median ms", "delta", "verdict"],
            rows,
            title=(
                f"Trajectory compare: {old['provenance'].get('git_sha', '?')} "
                f"-> {new['provenance'].get('git_sha', '?')} "
                f"(threshold {threshold * 100:.0f}%)"
            ),
        )
    )
    regressions = [e for e in verdicts if e["verdict"] == "regressed"]
    if regressions:
        print(f"\nREGRESSED: {', '.join(e['bench'] for e in regressions)}")
        return 0 if warn_only else 1
    print("\nno regressions beyond the noise threshold")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m benchmarks.runner`` — same surface as ``repro bench``.

    Delegates to the repro CLI's ``bench`` subcommand so the two entry
    points cannot drift apart.
    """
    from repro.cli import build_parser

    args = build_parser().parse_args(["bench"] + list(argv or sys.argv[1:]))
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
