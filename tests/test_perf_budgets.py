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


class TestDeepProfilerOverhead:
    def test_sampler_overhead_within_five_percent(self):
        """The --deep-profile acceptance bound: <=5% at the default hz.

        Sampling happens on a separate daemon thread, so the profiled
        thread only pays for GIL handoffs during stack walks.  Plain and
        sampled runs alternate in pairs, the pair's order flipping each
        time, so load from other processes lands on both sides of a
        pair alike; the bound applies to the median per-pair ratio.  A
        small absolute slack keeps the 5% relative bound meaningful on a
        sub-second workload.
        """
        from repro.obs.deepprof import DeepProfiler

        def spin(iterations=2_000_000):
            # Fixed work, not a wall-clock deadline: the measurement
            # must be able to get slower under sampling.
            total = 0
            for index in range(iterations):
                total += index * index
            return total

        def timed(profiled):
            if profiled:
                profiler = DeepProfiler()  # DEFAULT_HZ
                profiler.start()
            start = time.perf_counter()
            spin()
            elapsed = time.perf_counter() - start
            if profiled:
                profiler.stop()
            return elapsed

        pairs = []
        for index in range(9):
            if index % 2:
                sampled = timed(profiled=True)
                plain = timed(profiled=False)
            else:
                plain = timed(profiled=False)
                sampled = timed(profiled=True)
            pairs.append((plain, sampled))
        # sampled <= plain * 1.05 + 0.010, per pair, as one ratio.
        ratios = sorted((sampled - 0.010) / plain for plain, sampled in pairs)
        median = ratios[len(ratios) // 2]
        assert median <= 1.05, (
            f"median slack-adjusted sampler ratio {median:.3f} "
            f"(pairs of plain, profiled seconds: "
            f"{[(round(p, 3), round(s, 3)) for p, s in pairs]})"
        )


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
