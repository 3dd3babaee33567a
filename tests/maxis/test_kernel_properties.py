"""Property battery for the MaxIS kernelization (``repro.maxis.kernel``).

Hypothesis drives random weighted graphs small enough to brute-force
(n <= 14, weights with zeros and ties) and checks the three invariants
the kernel's correctness argument rests on:

* **kernel-solve-lift optimality** — solving the reduced instance and
  lifting the witness through the fold log yields exactly the
  brute-force optimum of the original graph, and the lifted set is
  independent *in the original graph*;
* **round-trip exactness** — ``revert()`` replays the primitive journal
  backwards and reconstructs a graph equal (nodes, weights, edges) to
  the input;
* **weight conservation** — the kernel never invents weight: every
  reduced instance's optimum plus the lifted contribution equals the
  original optimum (checked through the lift rather than an offset,
  because fold rules shift weight between vertices).

Tests run under the shared derandomized ``repro`` profile (see
``tests/conftest.py``); the central equivalence property runs at 200
examples so CI covers the rule interactions, not just the happy path.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import WeightedGraph
from repro.maxis import (
    FoldedVertex,
    brute_force_max_weight_independent_set,
    kernelize,
    max_weight_independent_set,
)
from tests.maxis.test_kernel import kernel_solve


@st.composite
def weighted_graph(draw):
    """A small weighted graph biased toward kernel-rule triggers.

    Low edge probabilities produce degree-0/1/2 vertices (the fold
    rules); the weight pool includes 0 and repeats small values so
    include-vs-fold tie-breaks and the domination rule all fire.
    """
    num_nodes = draw(st.integers(min_value=0, max_value=14))
    edge_probability = draw(st.sampled_from([0.0, 0.1, 0.2, 0.35, 0.6, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    rng = random.Random(seed)
    graph = WeightedGraph()
    weight_pool = [0, 1, 1, 2, 3, 3, 5, 9]
    for node in range(num_nodes):
        graph.add_node(node, weight=rng.choice(weight_pool))
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if rng.random() < edge_probability:
                graph.add_edge(u, v)
    return graph


class TestKernelSolveLift:
    @settings(max_examples=200)
    @given(weighted_graph())
    def test_lifted_witness_is_optimal_and_independent(self, graph):
        brute = brute_force_max_weight_independent_set(graph)
        result = kernel_solve(graph)
        # IndependentSetResult re-validates independence and recomputes
        # the weight against the original graph on construction, so a
        # non-independent or mis-weighted lift cannot sneak through.
        assert result.weight == brute.weight
        assert graph.is_independent_set(result.nodes)
        assert all(not isinstance(node, FoldedVertex) for node in result.nodes)

    @settings(max_examples=100)
    @given(weighted_graph())
    def test_kernel_on_off_same_optimum(self, graph):
        """Kernelize-solve-lift and the plain search agree on the optimum."""
        on = kernel_solve(graph)
        off = max_weight_independent_set(graph)
        assert on.weight == off.weight

    @settings(max_examples=100)
    @given(weighted_graph())
    def test_direct_lift_of_reduced_optimum(self, graph):
        """Lift through the fold state explicitly, not via the solver."""
        kern = kernelize(graph)
        reduced = kern.reduced_graph()
        reduced_best = brute_force_max_weight_independent_set(reduced)
        lifted = kern.lift(reduced_best.nodes)
        assert graph.is_independent_set(lifted)
        assert graph.total_weight(lifted) == (
            brute_force_max_weight_independent_set(graph).weight
        )


class TestReduceRevertRoundTrip:
    @settings(max_examples=200)
    @given(weighted_graph())
    def test_revert_reconstructs_graph_exactly(self, graph):
        kern = kernelize(graph)
        assert kern.revert() == graph

    @settings(max_examples=60)
    @given(weighted_graph())
    def test_kernelize_leaves_input_untouched(self, graph):
        snapshot_nodes = dict(graph.weights())
        snapshot_edges = sorted(map(sorted, graph.edges()))
        kernelize(graph)
        assert dict(graph.weights()) == snapshot_nodes
        assert sorted(map(sorted, graph.edges())) == snapshot_edges


class TestKernelShape:
    @settings(max_examples=100)
    @given(weighted_graph())
    def test_reduced_form_is_consistent(self, graph):
        kern = kernelize(graph)
        labels, weights, masks = kern.reduced_index_form()
        assert len(labels) == len(weights) == len(masks)
        assert len(labels) == kern.num_reduced_nodes
        assert kern.stats.removed_nodes >= 0
        # Branching order: non-increasing weight.
        assert all(
            weights[i] >= weights[i + 1] for i in range(len(weights) - 1)
        )
        # Masks are symmetric and irreflexive over the reduced indices.
        for i, mask in enumerate(masks):
            assert not (mask >> i) & 1
            remaining = mask
            while remaining:
                low = remaining & -remaining
                j = low.bit_length() - 1
                remaining ^= low
                assert (masks[j] >> i) & 1

    @settings(max_examples=60)
    @given(weighted_graph())
    def test_low_degree_vertices_always_reduced(self, graph):
        """The fixed point has no vertex of residual degree 0 or 1.

        (Degree-2 vertices can survive: the fold declines triangles and
        the ``w(v) < max(w(u), w(x))`` weight case by design.)
        """
        reduced = kernelize(graph).reduced_graph()
        degrees = [reduced.degree(node) for node in reduced.nodes()]
        assert all(degree >= 2 for degree in degrees)
