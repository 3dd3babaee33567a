"""Exact maximum-weight independent set.

Every upper-bound claim in the paper (Claims 2, 5, 7) says "*any*
independent set has weight at most ...".  We verify those claims by
actually computing the optimum on concrete gadget instances, so the
solver has to be exact, and fast on the gadget shape: dense graphs that
are near-unions of cliques.

The solver is one bitset branch-and-bound over the graph's cached
:meth:`~repro.graphs.WeightedGraph.solver_index_form`, with a greedy
weighted clique-cover upper bound.  A clique contributes at most its
heaviest member to any independent set, so the cover bound collapses to
almost the true optimum on clique-structured graphs — exactly our
instances.  Covers are *inherited* down the search tree and rebuilt only
once the candidate set has shrunk enough for a fresh cover to pay for
itself.  A plain exponential brute force
(:mod:`repro.maxis.brute_force`) and networkx cross-check everything in
tests.  The reduction rules of :mod:`repro.maxis.kernel` are not on this
path: they never fire on the gadget graphs (docs/SOLVER.md).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..graphs import Node, WeightedGraph
from ..obs import get_recorder
from .result import IndependentSetResult

_obs = get_recorder()

#: A search node rebuilds the clique cover once its candidate set has
#: shrunk below this fraction of the size at the last build.  1.0 would
#: rebuild at every node (tight bounds, one extraction per node), 0.0
#: would keep the root cover forever (cheap, but stale bounds blow up
#: the tree on larger gadgets).  Measured on the instances the sweeps
#: solve (the 240 searches of ten seeded ``full_grid`` sweeps, Theorem 1
#: t<=5 and every Theorem 2 point): 0.5 expands 88,171 nodes, 0.8
#: expands 34,340 in about a quarter of the time, and 0.75-0.9 are
#: within noise of each other.  See docs/SOLVER.md for the table.
_COVER_REBUILD_RATIO = 0.8

#: An accepted incumbent of weight ``W`` seeds the search at
#: ``W - (|W| + 1) * _SEED_MARGIN``: strictly below ``W`` (no
#: ``math.nextafter`` before Python 3.9), and far enough below that the
#: search's own float sum of the same set, taken in another order, still
#: beats it.
_SEED_MARGIN = 1e-9


class BranchAndBoundStats:
    """Search statistics for benchmarking the solver."""

    __slots__ = ("nodes_expanded", "bound_prunes")

    def __init__(self) -> None:
        self.nodes_expanded = 0
        self.bound_prunes = 0

    def __repr__(self) -> str:
        return (
            f"BranchAndBoundStats(nodes_expanded={self.nodes_expanded}, "
            f"bound_prunes={self.bound_prunes})"
        )


def _validate_weights(graph: WeightedGraph) -> None:
    # Validated straight off the weight map, before any index-form
    # structure is built or touched.
    for weight in graph.weights().values():
        if weight < 0:
            raise ValueError("negative node weights are not supported")


def max_weight_independent_set(
    graph: WeightedGraph,
    stats: Optional[BranchAndBoundStats] = None,
    incumbent: Optional[Iterable[Node]] = None,
) -> IndependentSetResult:
    """Return a maximum-weight independent set of ``graph``.

    Exact.  Intended for instances up to a few hundred nodes when they
    are dense (the gadget regime); see the solver bench for measured
    scaling.

    The witness *node set* is deterministic: a fixed branching order
    and strict-improvement updates make it the first optimum in DFS
    order, which the regression pins compare as sorted node lists.

    ``incumbent`` is an optional hint: a node set the caller already
    knows, such as the paper's witness for the high side of a gap.  If
    it is independent in ``graph``, the search starts just below its
    weight instead of from nothing, which prunes more and never changes
    the returned witness (see :func:`_solve_ordered_masks`).  Anything
    else is ignored.

    The solver keeps no memo: a solve of a gadget instance costs less
    than deriving a store key for its graph (docs/CACHING.md), so only
    whole work units are cached.
    """
    _validate_weights(graph)
    seed = _incumbent_seed(graph, incumbent)
    # The cached solver index form is already in branching order
    # (descending weight, then degree) with masks built against it — no
    # per-bit remap pass, and repeat solves on the same graph skip the
    # build entirely.
    node_list, weights, masks, _ = graph.solver_index_form()
    n = len(node_list)
    if n == 0:
        return IndependentSetResult(graph, [])
    stats = stats or BranchAndBoundStats()
    with _obs.span("maxis.exact.search", n=n):
        best_weight, best_set = _solve_ordered_masks(weights, masks, stats, seed)
    _record_solve(stats)
    return IndependentSetResult(
        graph, [node_list[pos] for pos in range(n) if (best_set >> pos) & 1]
    )


def _incumbent_seed(
    graph: WeightedGraph, incumbent: Optional[Iterable[Node]]
) -> float:
    """The search seed for ``incumbent``: just below its weight, or -1.0.

    The hint is trusted only as far as the live graph confirms it: a set
    with an unknown node or an edge inside is dropped, and its weight is
    summed from the live weights, never taken from the caller.
    """
    if incumbent is None:
        return -1.0
    nodes = frozenset(incumbent)
    try:
        if not graph.is_independent_set(nodes):
            return -1.0
    except KeyError:
        return -1.0
    weight = float(graph.total_weight(nodes))
    return weight - (abs(weight) + 1.0) * _SEED_MARGIN


def _record_solve(stats: BranchAndBoundStats) -> None:
    if _obs.enabled:
        _obs.incr("maxis.exact.solves")
        _obs.incr("maxis.exact.nodes_expanded", stats.nodes_expanded)
        _obs.incr("maxis.exact.bound_prunes", stats.bound_prunes)


def _clique_cover(
    candidates: int, weights: List[float], masks: List[int]
) -> Tuple[List[int], float]:
    """Greedy weighted clique cover of ``candidates``, and its bound.

    Each clique is seeded at the lowest remaining candidate and grown by
    the lowest remaining candidate adjacent to every member so far, so
    the cost is one big-int AND per member.  Under the non-increasing
    weight order the seed is the clique's heaviest member, and the bound
    is the sum of the seeds' weights.  The cliques come out in seed
    order and equal those of a first-fit pass that offers each candidate,
    lowest first, to the first open clique it is adjacent to throughout
    (``tests/maxis/test_clique_cover.py`` checks this against that pass).
    """
    cliques: List[int] = []
    bound = 0.0
    remaining = candidates
    while remaining:
        clique = remaining & -remaining
        first = clique.bit_length() - 1
        pool = remaining & masks[first]
        while pool:
            low = pool & -pool
            clique |= low
            pool &= masks[low.bit_length() - 1]
        remaining &= ~clique
        cliques.append(clique)
        bound += weights[first]
    return cliques, bound


def _solve_ordered_masks(
    weights: List[float],
    masks: List[int],
    stats: BranchAndBoundStats,
    seed: float = -1.0,
) -> Tuple[float, int]:
    """Branch and bound over a *pre-ordered* index form.

    Precondition: ``weights`` is non-increasing.  :func:`_clique_cover`
    seeds each clique at its lowest-index candidate, so each clique's
    first member is its heaviest and the cover bound is a first-member
    weight sum; when the cover is reused to bound a *subset* of the set
    it was built for, ``(clique & subset) & -(clique & subset)`` picks
    the heaviest surviving member.  That reuse is the core of the cost
    model: a cover is built at the root and *inherited* down the tree,
    rebuilt at a node only once the candidate set has shrunk below
    ``_COVER_REBUILD_RATIO`` of its size at the previous build.  Fresh
    covers prune at rebuild nodes; inherited covers bound children with
    an early-exit scan that stops as soon as the bound clears the
    pruning threshold.

    Returns ``(best_weight, best_set_bitmask)``.  ``best_set`` is the
    first optimum in DFS order (include branch first); because updates
    happen only on strict improvement, any *sound* pruning strategy —
    however strong — leaves it unchanged, so tuning the rebuild ratio
    can never change a witness.  The regression pins rely on this.

    ``seed`` is the incumbent weight the search starts from (-1.0: none,
    as every weight is non-negative).  Any seed strictly below the
    optimum is sound for the same reason: until the first optimum in DFS
    order is reached the incumbent stays below the optimum, so the
    branch holding it is never pruned, and after it nothing improves
    strictly.  A seed at or above the optimum would prune every leaf;
    float rounding between the caller's weight sum and the search's is
    the only way that can happen, and then nothing beats the seed and
    the search runs again unseeded.  A seed can cost time but never
    changes the answer.
    """
    n = len(weights)
    if n == 0:
        return 0.0, 0
    best_weight = seed
    best_set = 0
    nodes_expanded = 0
    bound_prunes = 0

    def search(
        candidates: int,
        current_weight: float,
        current_set: int,
        cliques: List[int],
        built_at: float,
    ) -> None:
        nonlocal best_weight, best_set, nodes_expanded, bound_prunes
        nodes_expanded += 1
        if candidates.bit_count() <= built_at:
            cliques, bound = _clique_cover(candidates, weights, masks)
            if current_weight + bound <= best_weight:
                bound_prunes += 1
                return
            built_at = candidates.bit_count() * _COVER_REBUILD_RATIO
        low = candidates & -candidates
        v = low.bit_length() - 1
        # Branch 1: include v (drop v and its neighbors from candidates).
        child = candidates & ~(low | masks[v])
        child_weight = current_weight + weights[v]
        if not child:
            if child_weight > best_weight:
                best_weight = child_weight
                best_set = current_set | low
        else:
            need = best_weight - child_weight
            bound = 0.0
            for clique_mask in cliques:
                alive = clique_mask & child
                if alive:
                    bound += weights[(alive & -alive).bit_length() - 1]
                    if bound > need:
                        break
            if bound > need:
                search(child, child_weight, current_set | low, cliques, built_at)
            else:
                bound_prunes += 1
        # Branch 2: exclude v.
        child = candidates ^ low
        if not child:
            if current_weight > best_weight:
                best_weight = current_weight
                best_set = current_set
        else:
            need = best_weight - current_weight
            bound = 0.0
            for clique_mask in cliques:
                alive = clique_mask & child
                if alive:
                    bound += weights[(alive & -alive).bit_length() - 1]
                    if bound > need:
                        break
            if bound > need:
                search(child, current_weight, current_set, cliques, built_at)
            else:
                bound_prunes += 1

    # built_at = n forces a cover build at the root.
    search((1 << n) - 1, 0.0, 0, [], float(n))
    stats.nodes_expanded += nodes_expanded
    stats.bound_prunes += bound_prunes
    if best_weight <= seed:
        return _solve_ordered_masks(weights, masks, stats)
    return best_weight, best_set


def max_independent_set_weight(graph: WeightedGraph) -> float:
    """Return only the optimal weight (``OPT`` in the paper)."""
    return max_weight_independent_set(graph).weight


def max_weight_clique(
    graph: WeightedGraph, stats: Optional[BranchAndBoundStats] = None
):
    """Return a maximum-weight clique, via MaxIS on the complement.

    A clique in ``G`` is an independent set in ``G``'s complement, so
    this inherits the exactness (and the test coverage) of the MaxIS
    solver.  Best on *sparse* inputs, where the complement is dense —
    the regime the clique-cover bound likes.
    """
    complement = graph.complement()
    result = max_weight_independent_set(complement, stats=stats)
    # Re-validate against the original graph: the chosen set must be a clique.
    if not graph.is_clique(result.nodes):
        raise AssertionError("complement MaxIS returned a non-clique")
    return result
