"""Solver ablation — exact branch & bound vs brute force vs greedy.

The exact solver is what makes every upper-bound claim verifiable; this
bench times it on the gadget shape (dense, clique-structured) and on
G(n, p) instances, charts how far the greedy heuristics fall short, and
times the standalone kernelization on its own (see ``docs/SOLVER.md``).
"""

import random

from repro import obs
from repro.gadgets import GadgetParameters, LinearConstruction
from repro.graphs import random_graph
from repro.maxis import (
    BranchAndBoundStats,
    best_greedy,
    brute_force_max_weight_independent_set,
    kernelize,
    max_weight_independent_set,
)
from repro.analysis import render_table

from benchmarks._util import publish


def test_bench_exact_solver_on_gadget(benchmark):
    """Time the exact solver on the largest sweep instance (280 nodes)."""
    construction = LinearConstruction(GadgetParameters(ell=6, alpha=1, t=5))
    stats = BranchAndBoundStats()
    result = benchmark(max_weight_independent_set, construction.graph, stats)
    assert result.weight > 0


def test_bench_exact_solver_on_random(benchmark):
    graph = random_graph(40, 0.3, rng=random.Random(5), weight_range=(1, 9))
    result = benchmark(max_weight_independent_set, graph)
    assert result.weight > 0


def _reducible_path(n=60):
    from repro.graphs import WeightedGraph

    graph = WeightedGraph()
    for i in range(n):
        graph.add_node(i, weight=1 + (i * 7) % 5)
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    return graph


def test_bench_kernelize_reducible(benchmark):
    """Time one cold kernelization of a fully-reducible 60-node path.

    The kernelization is memoized per graph object, so the bench
    rebuilds the graph inside the timed thunk; construction is a small
    constant next to the fold cascade being measured.
    """

    def kernelize_cold():
        return kernelize(_reducible_path())

    kern = benchmark(kernelize_cold)
    assert kern.num_reduced_nodes == 0
    assert kern.stats.removed_nodes == 60


def test_bench_brute_force_oracle(benchmark):
    graph = random_graph(18, 0.4, rng=random.Random(6), weight_range=(1, 5))
    result = benchmark(brute_force_max_weight_independent_set, graph)
    assert result.weight == max_weight_independent_set(graph).weight


def test_bench_greedy(benchmark):
    graph = random_graph(60, 0.3, rng=random.Random(7), weight_range=(1, 9))
    result = benchmark(best_greedy, graph)
    assert result.weight > 0


def test_bench_solver_quality_table(benchmark):
    def measure():
        rows = []
        for seed in range(6):
            graph = random_graph(
                30, 0.35, rng=random.Random(seed), weight_range=(1, 9)
            )
            stats = BranchAndBoundStats()
            exact = max_weight_independent_set(graph, stats=stats)
            greedy = best_greedy(graph)
            rows.append(
                [
                    seed,
                    graph.num_edges,
                    exact.weight,
                    greedy.weight,
                    round(greedy.weight / exact.weight, 4),
                    stats.nodes_expanded,
                    stats.bound_prunes,
                ]
            )
            assert greedy.weight <= exact.weight
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = render_table(
        [
            "seed",
            "edges",
            "exact OPT",
            "best greedy",
            "greedy ratio",
            "B&B nodes",
            "bound prunes",
        ],
        rows,
        title="Solver ablation on G(30, 0.35) with weights in [1, 9]",
    )
    # One recorded (untimed) solve so the manifest carries the solver's
    # nodes-expanded/prune counters.
    with obs.recording():
        max_weight_independent_set(
            random_graph(30, 0.35, rng=random.Random(0), weight_range=(1, 9))
        )
    publish(
        "maxis_solvers",
        table,
        parameters={"n": 30, "p": 0.35, "weight_range": [1, 9], "seeds": 6},
    )
