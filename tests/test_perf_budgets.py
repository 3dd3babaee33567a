"""Performance guard rails.

Not micro-benchmarks (those live in ``benchmarks/``): these are
generous wall-clock ceilings that fail loudly if a core path regresses
by an order of magnitude — the exact solver on the gadget shape, the
family build, and the simulation loop.
"""

import random
import time

import pytest

from repro.commcc import pairwise_disjoint_inputs
from repro.congest import CongestNetwork, LubyMIS
from repro.gadgets import GadgetParameters, LinearConstruction
from repro.graphs import random_graph
from repro.maxis import max_weight_independent_set


def _timed(callable_, budget_seconds):
    start = time.perf_counter()
    result = callable_()
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"took {elapsed:.2f}s, budget {budget_seconds}s"
    )
    return result


class TestSolverBudgets:
    def test_gadget_280_nodes_under_two_seconds(self):
        construction = LinearConstruction(GadgetParameters(ell=6, alpha=1, t=5))
        result = _timed(
            lambda: max_weight_independent_set(construction.graph), 2.0
        )
        assert result.weight > 0

    def test_weighted_instance_solve_under_two_seconds(self):
        params = GadgetParameters(ell=6, alpha=1, t=5)
        construction = LinearConstruction(params)
        inputs = pairwise_disjoint_inputs(params.k, params.t, rng=random.Random(1))
        graph = construction.apply_inputs(inputs)
        _timed(lambda: max_weight_independent_set(graph), 2.0)

    def test_random_graph_40_nodes_under_two_seconds(self):
        graph = random_graph(40, 0.3, rng=random.Random(2), weight_range=(1, 9))
        _timed(lambda: max_weight_independent_set(graph), 2.0)


class TestConstructionBudgets:
    def test_large_linear_build_under_two_seconds(self):
        _timed(lambda: LinearConstruction(GadgetParameters(ell=6, alpha=1, t=5)), 2.0)

    def test_family_instance_build_under_one_second(self):
        params = GadgetParameters(ell=6, alpha=1, t=5)
        construction = LinearConstruction(params)
        inputs = pairwise_disjoint_inputs(params.k, params.t, rng=random.Random(3))
        _timed(lambda: construction.apply_inputs(inputs), 1.0)


class TestSimulatorBudgets:
    def test_luby_on_200_nodes_under_three_seconds(self):
        graph = random_graph(200, 0.05, rng=random.Random(4))

        def run():
            net = CongestNetwork(graph, LubyMIS, bandwidth_multiplier=2, seed=5)
            net.run(max_rounds=10_000)
            return net

        net = _timed(run, 3.0)
        mis = {v for v, joined in net.outputs().items() if joined}
        assert graph.is_independent_set(mis)
