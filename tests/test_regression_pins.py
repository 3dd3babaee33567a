"""Regression pins: fixed-seed experiments reproduce exact numbers.

These values were produced by the initial verified implementation; any
change to construction wiring, weighting, sampling, or solving that
alters semantics will trip one of them.  Update deliberately, never
casually.
"""

import random

import pytest

from repro.commcc import pairwise_disjoint_inputs, uniquely_intersecting_inputs
from repro.core import LinearLowerBoundExperiment, QuadraticLowerBoundExperiment
from repro.framework import cut_size
from repro.gadgets import (
    GadgetParameters,
    LinearConstruction,
    LinearMaxISFamily,
    QuadraticConstruction,
    QuadraticMaxISFamily,
    smallest_meaningful_linear_parameters,
)
from repro.graphs import random_graph
from repro.maxis import BranchAndBoundStats, kernelize, max_weight_independent_set
from tests.maxis.test_kernel import kernel_solve


class TestStructuralPins:
    def test_figure_scale_linear_signature(self):
        construction = LinearConstruction(GadgetParameters(ell=2, alpha=1, t=2))
        # per copy: C(3,2) + 3*C(3,2) + 3*6 = 3 + 9 + 18 = 30; 2*30 + 18 cut.
        assert construction.graph.structural_signature() == (24, 78, 24)
        assert cut_size(construction.graph, construction.partition()) == 18

    def test_figure_scale_quadratic_signature(self):
        construction = QuadraticConstruction(GadgetParameters(ell=2, alpha=1, t=2))
        # 48 nodes; 12 heavy nodes at weight 2 -> total weight 36 + 12 = 60.
        assert construction.graph.structural_signature() == (48, 156, 60)

    def test_meaningful_t3_signature(self):
        construction = LinearConstruction(GadgetParameters(ell=4, alpha=1, t=3))
        assert construction.graph.structural_signature() == (90, 780, 90)
        assert cut_size(construction.graph, construction.partition()) == 300


class TestSolverPins:
    """The solver's optima, search sizes and witnesses, pinned.

    No solver runs the kernel; the kernel pins below check, on gadget
    graphs, the reason why: the reduction is the identity there
    (3-regular-or-denser, twin-free interiors), so kernelizing first
    would hand the exact same index form to the exact same search.
    """

    @pytest.mark.parametrize("ell,t", [(3, 2), (4, 3)])
    def test_gadget_witness_identical_kernel_on_off(self, ell, t):
        graph = LinearConstruction(GadgetParameters(ell=ell, alpha=1, t=t)).graph
        on = kernel_solve(graph)
        off = max_weight_independent_set(graph)
        assert on.weight == off.weight
        assert sorted(on.nodes) == sorted(off.nodes)

    @pytest.mark.parametrize(
        "ell,t,optimum,expanded",
        [(3, 2, 10, 10), (4, 3, 18, 18)],
    )
    def test_gadget_kernel_never_expands_more(self, ell, t, optimum, expanded):
        graph = LinearConstruction(GadgetParameters(ell=ell, alpha=1, t=t)).graph
        assert kernelize(graph).is_identity
        stats = BranchAndBoundStats()
        result = max_weight_independent_set(graph, stats=stats)
        assert result.weight == optimum
        assert stats.nodes_expanded == expanded

    def test_random_seed41_witness_pinned(self):
        graph = random_graph(20, 0.3, rng=random.Random(41), weight_range=(1, 9))
        result = max_weight_independent_set(graph)
        assert result.weight == 47
        assert sorted(result.nodes) == [1, 3, 5, 6, 8, 12, 15, 16]


#: Sorted witnesses of the seed-0 sweep instances below, as the solver
#: reported them before its clique cover was built by extraction and
#: its rebuild ratio retuned on these very instances.
F_X_ELL2_T4_INTERSECTING = (
    40,
    [
        ('A', 0, 0, 2), ('A', 0, 1, 0), ('A', 1, 0, 2), ('A', 1, 1, 0),
        ('A', 2, 0, 2), ('A', 2, 1, 0), ('A', 3, 0, 2), ('A', 3, 1, 0),
        ('C', 0, 0, 0, 2), ('C', 0, 0, 1, 2), ('C', 0, 0, 2, 2),
        ('C', 0, 1, 0, 0), ('C', 0, 1, 1, 0), ('C', 0, 1, 2, 0),
        ('C', 1, 0, 0, 2), ('C', 1, 0, 1, 2), ('C', 1, 0, 2, 2),
        ('C', 1, 1, 0, 0), ('C', 1, 1, 1, 0), ('C', 1, 1, 2, 0),
        ('C', 2, 0, 0, 2), ('C', 2, 0, 1, 2), ('C', 2, 0, 2, 2),
        ('C', 2, 1, 0, 0), ('C', 2, 1, 1, 0), ('C', 2, 1, 2, 0),
        ('C', 3, 0, 0, 2), ('C', 3, 0, 1, 2), ('C', 3, 0, 2, 2),
        ('C', 3, 1, 0, 0), ('C', 3, 1, 1, 0), ('C', 3, 1, 2, 0),
    ],
)
F_X_ELL2_T4_DISJOINT = (
    34,
    [
        ('A', 0, 0, 0), ('A', 1, 0, 0), ('A', 2, 0, 0), ('A', 2, 1, 2),
        ('A', 3, 0, 0), ('C', 0, 0, 0, 0), ('C', 0, 0, 1, 0),
        ('C', 0, 0, 2, 0), ('C', 0, 1, 0, 2), ('C', 0, 1, 1, 2),
        ('C', 0, 1, 2, 2), ('C', 1, 0, 0, 0), ('C', 1, 0, 1, 0),
        ('C', 1, 0, 2, 0), ('C', 1, 1, 0, 2), ('C', 1, 1, 1, 2),
        ('C', 1, 1, 2, 2), ('C', 2, 0, 0, 0), ('C', 2, 0, 1, 0),
        ('C', 2, 0, 2, 0), ('C', 2, 1, 0, 2), ('C', 2, 1, 1, 2),
        ('C', 2, 1, 2, 2), ('C', 3, 0, 0, 0), ('C', 3, 0, 1, 0),
        ('C', 3, 0, 2, 0), ('C', 3, 1, 0, 2), ('C', 3, 1, 1, 2),
        ('C', 3, 1, 2, 2),
    ],
)
G_X_T5_DISJOINT = (
    45,
    [
        ('A', 0, 6), ('A', 1, 6), ('A', 2, 6), ('A', 3, 6), ('A', 4, 6),
        ('C', 0, 0, 6), ('C', 0, 1, 6), ('C', 0, 2, 6), ('C', 0, 3, 6),
        ('C', 0, 4, 6), ('C', 0, 5, 6), ('C', 0, 6, 6), ('C', 1, 0, 6),
        ('C', 1, 1, 6), ('C', 1, 2, 6), ('C', 1, 3, 6), ('C', 1, 4, 6),
        ('C', 1, 5, 6), ('C', 1, 6, 6), ('C', 2, 0, 6), ('C', 2, 1, 6),
        ('C', 2, 2, 6), ('C', 2, 3, 6), ('C', 2, 4, 6), ('C', 2, 5, 6),
        ('C', 2, 6, 6), ('C', 3, 0, 6), ('C', 3, 1, 6), ('C', 3, 2, 6),
        ('C', 3, 3, 6), ('C', 3, 4, 6), ('C', 3, 5, 6), ('C', 3, 6, 6),
        ('C', 4, 0, 6), ('C', 4, 1, 6), ('C', 4, 2, 6), ('C', 4, 3, 6),
        ('C', 4, 4, 6), ('C', 4, 5, 6), ('C', 4, 6, 6),
    ],
)


def _sampled_instance(family, length, t, sampler):
    """The first instance a seed-0 sweep point solves on one promise side."""
    return family.build(sampler(length, t, rng=random.Random(0)))


class TestSweepInstancePins:
    """Witnesses on the sampled instances the sweeps solve, not the fixed graphs.

    Input weights (Theorem 1) and input edges (Theorem 2) are what make
    the search's cover go stale, so these are the instances a change to
    the cover or its rebuild schedule actually exercises.
    """

    @pytest.mark.parametrize(
        "sampler,pinned",
        [
            (uniquely_intersecting_inputs, F_X_ELL2_T4_INTERSECTING),
            (pairwise_disjoint_inputs, F_X_ELL2_T4_DISJOINT),
        ],
        ids=["intersecting", "disjoint"],
    )
    def test_theorem2_ell2_t4(self, sampler, pinned):
        params = GadgetParameters(ell=2, alpha=1, t=4)
        family = QuadraticMaxISFamily(params)
        graph = _sampled_instance(family, params.k * params.k, params.t, sampler)
        result = max_weight_independent_set(graph)
        assert (result.weight, sorted(result.nodes)) == pinned

    def test_theorem1_t5_disjoint(self):
        params = smallest_meaningful_linear_parameters(5)
        family = LinearMaxISFamily(params)
        graph = _sampled_instance(
            family, params.k, params.t, pairwise_disjoint_inputs
        )
        result = max_weight_independent_set(graph)
        assert (result.weight, sorted(result.nodes)) == G_X_T5_DISJOINT


class TestExperimentPins:
    def test_linear_t3_seed0(self):
        params = GadgetParameters(ell=4, alpha=1, t=3)
        report = LinearLowerBoundExperiment(params, seed=0).run(num_samples=2)
        assert report.gap.min_intersecting == 27
        assert report.gap.max_disjoint == 21
        assert report.gap.measured_ratio == pytest.approx(21 / 27)

    def test_warmup_seed42(self):
        params = GadgetParameters(ell=2, alpha=1, t=2)
        report = LinearLowerBoundExperiment(params, warmup=True, seed=42).run(5)
        assert report.gap.min_intersecting == 10
        assert report.gap.max_disjoint == 9

    def test_quadratic_t2_seed0(self):
        params = GadgetParameters(ell=2, alpha=1, t=2)
        report = QuadraticLowerBoundExperiment(params, seed=0).run(num_samples=2)
        assert report.gap.min_intersecting == 20
        assert report.gap.max_disjoint == 18

    def test_round_bound_value_t2(self):
        params = GadgetParameters(ell=3, alpha=1, t=2)
        report = LinearLowerBoundExperiment(params, seed=0).run(num_samples=1)
        # cc = 4/2 = 2; cut = 48; log2(40) -> value = 2 / (48 * log2(40)).
        import math

        assert report.round_bound.value == pytest.approx(
            2 / (48 * math.log2(40))
        )


#: EXPERIMENTS.md "Theorem 1": ``t -> (ell, k, n, OPT inter, OPT disj,
#: measured ratio)`` at ``smallest_meaningful_linear_parameters(t)``,
#: 3 samples, as ``bench_theorem1_linear_gap.py`` runs it.
THEOREM1_TABLE = {
    2: (3, 4, 40, 14, 12, 0.857),
    3: (4, 5, 90, 27, 21, 0.778),
    4: (6, 7, 224, 52, 37, 0.712),
    5: (6, 7, 280, 65, 45, 0.692),
    6: (7, 8, 432, 90, 60, 0.667),
    7: (8, 9, 630, 119, 77, 0.647),
    8: (10, 11, 1056, 168, 105, 0.625),
}

#: EXPERIMENTS.md "Theorem 2": ``(t, ell) -> (n, OPT inter, OPT disj,
#: measured ratio)`` over the ``SWEEP`` of
#: ``bench_theorem2_quadratic_gap.py``, 2 samples.
THEOREM2_TABLE = {
    (2, 2): (48, 20, 18, 0.900),
    (2, 3): (80, 28, 25, 0.893),
    (3, 2): (72, 30, 26, 0.867),
    (3, 3): (120, 42, 36, 0.857),
    (4, 2): (96, 40, 34, 0.850),
    (5, 2): (120, 50, 42, 0.840),
}


class TestPublishedTables:
    """Every row of EXPERIMENTS.md's Theorem 1 and Theorem 2 tables."""

    @pytest.mark.parametrize("t", sorted(THEOREM1_TABLE))
    def test_theorem1_row(self, t):
        ell, k, n, inter, disj, ratio = THEOREM1_TABLE[t]
        params = smallest_meaningful_linear_parameters(t)
        assert (params.ell, params.alpha, params.k) == (ell, 1, k)
        report = LinearLowerBoundExperiment(params).run(num_samples=3)
        assert report.num_nodes == n
        assert (report.gap.min_intersecting, report.gap.max_disjoint) == (inter, disj)
        assert round(report.gap.measured_ratio, 3) == ratio

    @pytest.mark.parametrize("t, ell", sorted(THEOREM2_TABLE))
    def test_theorem2_row(self, t, ell):
        from benchmarks.bench_theorem2_quadratic_gap import SWEEP

        n, inter, disj, ratio = THEOREM2_TABLE[(t, ell)]
        params = GadgetParameters(ell=ell, alpha=1, t=t)
        assert params in SWEEP
        report = QuadraticLowerBoundExperiment(params).run(num_samples=2)
        assert report.num_nodes == n
        assert (report.gap.min_intersecting, report.gap.max_disjoint) == (inter, disj)
        assert round(report.gap.measured_ratio, 3) == ratio

    def test_theorem2_table_covers_the_bench_sweep(self):
        from benchmarks.bench_theorem2_quadratic_gap import SWEEP

        assert sorted((p.t, p.ell) for p in SWEEP) == sorted(THEOREM2_TABLE)
