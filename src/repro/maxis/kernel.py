"""Kernelization: exactness-preserving weighted-MaxIS reduction rules.

A standalone reduction that no solver calls: the rules below never fire
on the gadget graphs (minimum degree at least 3, twin-free interiors),
so :func:`~repro.maxis.exact.max_weight_independent_set` searches the
graph as it is.  :func:`kernelize` shrinks an instance by classic
weighted-MaxIS reduction rules.  Every rule is *exactness-preserving*:
an optimal witness on the kernel lifts back to an optimal witness on the
original graph via the fold log.  The rules (``w`` denotes node weight,
``N`` / ``N[]`` open / closed neighborhoods):

degree-0 (isolated ``v``)
    Include ``v``.  Weights are non-negative, so adding an isolated node
    never hurts.

degree-1 (``v`` with single neighbor ``u``)
    If ``w(v) >= w(u)``: include ``v``, drop ``u`` (swap argument: any
    solution using ``u`` does no better with ``v`` swapped in).
    Otherwise *fold*: remove ``v`` and reduce ``w(u) -= w(v)``.  Lift:
    if ``u`` is in the kernel solution keep it, else add ``v``.

weight-dominated neighbor (adjacent ``u``, ``v`` with ``N[u] ⊆ N[v]``
and ``w(u) >= w(v)``)
    Remove ``v``: any solution containing ``v`` excludes all of
    ``N(v) ⊇ N(u)``, so swapping ``v`` for ``u`` never loses weight.
    Applied in two tiers: *twins* — nodes with identical closed
    neighborhoods (every clique that forms a module, in particular every
    isolated clique) collapse to their heaviest member via one O(n)
    hash pass — and the general strict-subset scan, which is
    quadratic-ish and therefore gated to instances of at most
    ``SUBSET_SWEEP_LIMIT`` live nodes (strictness is complete: a closed
    neighborhood contained in an equal-sized one *is* it, i.e. a twin).

degree-2 fold (``v`` with non-adjacent neighbors ``u``, ``x``)
    If ``w(v) >= w(u) + w(x)``: include ``v``, drop ``u`` and ``x``.
    Else if ``w(v) >= max(w(u), w(x))``: fold ``{v, u, x}`` into a fresh
    :class:`FoldedVertex` ``v'`` with ``w(v') = w(u) + w(x) - w(v) > 0``
    and ``N(v') = (N(u) ∪ N(x)) \\ {v, u, x}``.  Lift: ``v'`` chosen
    means "take both endpoints" (``u`` and ``x``), ``v'`` unchosen means
    "take the center" (``v``).  Adjacent ``u``, ``x`` (a triangle) is
    left to the domination rule.

Processing is driven by :meth:`WeightedGraph.nodes_by_degree` buckets —
only the degree ≤ 2 buckets seed the work queue; higher-degree nodes
enter it when an event drops their residual degree — and alternates
degree-rule passes with domination passes until a fixed point.  Two
logs are kept:

* a *semantic* fold log (include / fold1 / fold2 ops) replayed in
  reverse by :meth:`Kernelization.lift` to turn a kernel witness into an
  original-graph witness, and
* a *primitive* journal (remove / reweight / create mutations) replayed
  in reverse by :meth:`Kernelization.revert` to reconstruct the original
  graph exactly — the round-trip invariant the property tests pin.

The kernel operates directly on the graph's cached
:meth:`~WeightedGraph.solver_index_form` with copy-on-write state, so a
non-reducible instance (the dense gadget regime) costs a few linear
scans and no copies.  Finished kernelizations are themselves cached in
the graph's mutation-invalidated :meth:`~WeightedGraph.derived_cache`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from ..graphs import Node, WeightedGraph
from ..obs import get_recorder

_obs = get_recorder()

#: Live-node ceiling for the general strict-subset domination scan.  The
#: scan touches every (node, neighbor) pair with bigint subset tests;
#: beyond this size the O(n) twin tier keeps the clique-collapse payoff
#: while the scan's cost would exceed what it saves on our instance
#: families (the dense gadget graphs have no strict-subset dominations).
SUBSET_SWEEP_LIMIT = 32

_KERNELIZATION_CACHE_KEY = "maxis.kernelization"


# ----------------------------------------------------------------------
# Kernel data types
# ----------------------------------------------------------------------


class FoldedVertex:
    """Label of a vertex created by a degree-2 fold.

    A dedicated type (rather than e.g. a tuple) cannot collide with user
    node labels.  Folded vertices never appear in lifted witnesses — the
    fold log always resolves them back to original nodes.
    """

    __slots__ = ("seq",)

    def __init__(self, seq: int) -> None:
        self.seq = seq

    def __repr__(self) -> str:
        return f"FoldedVertex({self.seq})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FoldedVertex) and other.seq == self.seq

    def __hash__(self) -> int:
        return hash((FoldedVertex, self.seq))


class KernelStats:
    """Per-rule reduction counts for one kernelization."""

    __slots__ = (
        "initial_nodes",
        "reduced_nodes",
        "degree0_includes",
        "degree1_includes",
        "degree1_folds",
        "degree2_includes",
        "degree2_folds",
        "dominated_removed",
        "created_vertices",
    )

    def __init__(self) -> None:
        self.initial_nodes = 0
        self.reduced_nodes = 0
        self.degree0_includes = 0
        self.degree1_includes = 0
        self.degree1_folds = 0
        self.degree2_includes = 0
        self.degree2_folds = 0
        self.dominated_removed = 0
        self.created_vertices = 0

    @property
    def removed_nodes(self) -> int:
        """Net node count removed by the kernel."""
        return self.initial_nodes - self.reduced_nodes

    @property
    def folds(self) -> int:
        """Total fold operations (degree-1 + degree-2)."""
        return self.degree1_folds + self.degree2_folds

    def as_dict(self) -> Dict[str, int]:
        out = {name: getattr(self, name) for name in self.__slots__}
        out["removed_nodes"] = self.removed_nodes
        out["folds"] = self.folds
        return out

    def __repr__(self) -> str:
        return (
            f"KernelStats(removed_nodes={self.removed_nodes}, "
            f"folds={self.folds}, dominated={self.dominated_removed})"
        )


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Kernelization:
    """The reduced instance plus everything needed to undo the reduction.

    Produced by :func:`kernelize`; exposes the kernel for solving
    (:meth:`reduced_index_form` / :meth:`reduced_graph`), witness lifting
    (:meth:`lift`), and exact reconstruction of the input
    (:meth:`revert`).  Internal state starts as *references* to the
    graph's cached index form and is copied on the first mutating rule,
    so kernelizing a non-reducible instance allocates almost nothing.
    """

    __slots__ = (
        "graph",
        "stats",
        "_labels",
        "_weights",
        "_adj",
        "_alive",
        "_owned",
        "_log",
        "_journal",
        "_reduced_form",
    )

    def __init__(
        self,
        graph: WeightedGraph,
        labels: List[Node],
        weights: List[float],
        masks: List[int],
    ) -> None:
        self.graph = graph
        self.stats = KernelStats()
        self._labels = labels
        self._weights = weights
        self._adj = masks
        self._owned = False
        self._alive = (1 << len(labels)) - 1
        # Semantic ops for lift(): ("include", v) / ("fold1", v, u) /
        # ("fold2", v, u, x, folded_label).
        self._log: List[Tuple] = []
        # Primitive mutations for revert(): ("remove", label, weight,
        # neighbor_labels) / ("reweight", label, old_weight) /
        # ("create", label).
        self._journal: List[Tuple] = []
        self._reduced_form = None
        self.stats.initial_nodes = len(labels)
        self.stats.reduced_nodes = len(labels)

    def _materialize(self) -> None:
        # Copy-on-write: fold rules mutate the label/weight/adjacency
        # lists, which may still be the graph's cached index form.
        if not self._owned:
            self._labels = list(self._labels)
            self._weights = list(self._weights)
            self._adj = list(self._adj)
            self._owned = True

    # -- queries -------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        """True when no reduction rule fired (kernel == original)."""
        return not self._journal

    def alive_indices(self) -> List[int]:
        return [i for i in range(len(self._labels)) if (self._alive >> i) & 1]

    @property
    def num_reduced_nodes(self) -> int:
        return self._alive.bit_count()

    def reduced_index_form(
        self,
    ) -> Tuple[List[Node], List[float], List[int]]:
        """Export the kernel in branch-and-bound order.

        Nodes come out heaviest-first (ties: higher residual degree,
        then kernel index) with adjacency masks built directly against
        the new indices.  For an identity kernel the graph's own index
        form is returned unchanged — zero copies.  The export is cached
        on the kernelization.
        """
        form = self._reduced_form
        if form is not None:
            return form
        if not self._journal:
            form = (self._labels, self._weights, self._adj)
            self._reduced_form = form
            return form
        alive = self._alive
        adj = self._adj
        weights = self._weights
        order = sorted(
            self.alive_indices(),
            key=lambda i: (-weights[i], -(adj[i] & alive).bit_count()),
        )
        position = {i: p for p, i in enumerate(order)}
        out_labels = [self._labels[i] for i in order]
        out_weights = [weights[i] for i in order]
        out_masks = []
        for i in order:
            mask = 0
            remaining = adj[i] & alive
            while remaining:
                low = remaining & -remaining
                mask |= 1 << position[low.bit_length() - 1]
                remaining ^= low
            out_masks.append(mask)
        form = (out_labels, out_weights, out_masks)
        self._reduced_form = form
        return form

    def reduced_graph(self) -> WeightedGraph:
        """Return the kernel as a standalone :class:`WeightedGraph`."""
        out = WeightedGraph()
        alive = self._alive
        for i in _iter_bits(alive):
            out.add_node(self._labels[i], weight=self._weights[i])
        for i in _iter_bits(alive):
            for j in _iter_bits(self._adj[i] & alive):
                if j > i:
                    out.add_edge(self._labels[i], self._labels[j])
        return out

    # -- lifting and reverting -----------------------------------------

    def lift(self, reduced_nodes) -> List[Node]:
        """Lift a kernel witness to an original-graph witness.

        Replays the semantic fold log in reverse; each op turns an
        optimal independent set of its post-state into an optimal
        independent set of its pre-state, so an optimal kernel witness
        lifts to an optimal witness on the original graph.  The returned
        list follows the original graph's node insertion order, making
        lifted witnesses byte-stable.
        """
        chosen: Set[Node] = set(reduced_nodes)
        for op in reversed(self._log):
            kind = op[0]
            if kind == "include":
                chosen.add(op[1])
            elif kind == "fold1":
                _, center, neighbor = op
                if neighbor not in chosen:
                    chosen.add(center)
            else:  # fold2
                _, center, left, right, folded = op
                if folded in chosen:
                    chosen.discard(folded)
                    chosen.add(left)
                    chosen.add(right)
                else:
                    chosen.add(center)
        return [node for node in self.graph.nodes() if node in chosen]

    def revert(self) -> WeightedGraph:
        """Rebuild the original graph from the kernel plus the journal.

        Starts from :meth:`reduced_graph` and undoes every primitive
        mutation in reverse order.  The result compares equal
        (weights and edge set) to the input graph — the round-trip
        invariant of the property suite.
        """
        out = self.reduced_graph()
        for entry in reversed(self._journal):
            kind = entry[0]
            if kind == "create":
                out.remove_node(entry[1])
            elif kind == "reweight":
                out.set_weight(entry[1], entry[2])
            else:  # remove
                _, label, weight, neighbor_labels = entry
                out.add_node(label, weight=weight)
                for neighbor in neighbor_labels:
                    out.add_edge(label, neighbor)
        return out

    # -- reduction machinery -------------------------------------------

    def _remove(self, i: int, queue: List[int], queued: Set[int]) -> None:
        neighbor_mask = self._adj[i] & self._alive
        self._journal.append(
            (
                "remove",
                self._labels[i],
                self._weights[i],
                [self._labels[j] for j in _iter_bits(neighbor_mask)],
            )
        )
        self._alive &= ~(1 << i)
        for j in _iter_bits(neighbor_mask):
            if j not in queued:
                queued.add(j)
                queue.append(j)

    def _include(self, i: int, queue: List[int], queued: Set[int]) -> None:
        self._log.append(("include", self._labels[i]))
        neighbor_mask = self._adj[i] & self._alive
        self._remove(i, queue, queued)
        for j in _iter_bits(neighbor_mask):
            self._remove(j, queue, queued)

    def _fold_degree_one(
        self, i: int, j: int, queue: List[int], queued: Set[int]
    ) -> None:
        self._materialize()
        self._log.append(("fold1", self._labels[i], self._labels[j]))
        folded_weight = self._weights[i]
        self._remove(i, queue, queued)
        self._journal.append(("reweight", self._labels[j], self._weights[j]))
        self._weights[j] -= folded_weight
        for neighbor in _iter_bits(self._adj[j] & self._alive):
            if neighbor not in queued:
                queued.add(neighbor)
                queue.append(neighbor)

    def _fold_degree_two(
        self, i: int, j: int, k: int, queue: List[int], queued: Set[int]
    ) -> None:
        self._materialize()
        folded_label = FoldedVertex(self.stats.created_vertices)
        self.stats.created_vertices += 1
        folded_weight = self._weights[j] + self._weights[k] - self._weights[i]
        self._log.append(
            ("fold2", self._labels[i], self._labels[j], self._labels[k], folded_label)
        )
        self._remove(i, queue, queued)
        self._remove(j, queue, queued)
        self._remove(k, queue, queued)
        fresh = len(self._labels)
        neighbor_mask = (self._adj[j] | self._adj[k]) & self._alive
        self._labels.append(folded_label)
        self._weights.append(folded_weight)
        self._adj.append(neighbor_mask)
        for b in _iter_bits(neighbor_mask):
            self._adj[b] |= 1 << fresh
        self._alive |= 1 << fresh
        self._journal.append(("create", folded_label))
        if fresh not in queued:
            queued.add(fresh)
            queue.append(fresh)

    def _try_degree_rules(
        self, i: int, queue: List[int], queued: Set[int]
    ) -> bool:
        """Apply the degree-0/1/2 rule matching ``i``'s residual degree."""
        neighbor_mask = self._adj[i] & self._alive
        degree = neighbor_mask.bit_count()
        if degree == 0:
            self._include(i, queue, queued)
            self.stats.degree0_includes += 1
            return True
        if degree == 1:
            j = neighbor_mask.bit_length() - 1
            if self._weights[i] >= self._weights[j]:
                self._include(i, queue, queued)
                self.stats.degree1_includes += 1
            else:
                self._fold_degree_one(i, j, queue, queued)
                self.stats.degree1_folds += 1
            return True
        if degree == 2:
            j = (neighbor_mask & -neighbor_mask).bit_length() - 1
            k = neighbor_mask.bit_length() - 1
            if (self._adj[j] >> k) & 1:
                return False  # triangle: leave to the domination rule
            if self._weights[i] >= self._weights[j] + self._weights[k]:
                self._include(i, queue, queued)
                self.stats.degree2_includes += 1
                return True
            if self._weights[i] >= max(self._weights[j], self._weights[k]):
                self._fold_degree_two(i, j, k, queue, queued)
                self.stats.degree2_folds += 1
                return True
        return False

    def _domination_pass(self, queue: List[int], queued: Set[int]) -> bool:
        """One pass of the weight-dominated-neighbor rule (both tiers)."""
        removed_any = False
        weights = self._weights
        adj = self._adj
        # Tier 1 — twins: group live nodes by closed neighborhood; each
        # group is a clique module and collapses to its heaviest member
        # (ties: highest index survives, deterministically).
        groups: Dict[int, List[int]] = {}
        remaining = self._alive
        while remaining:
            low = remaining & -remaining
            v = low.bit_length() - 1
            remaining ^= low
            closed = (adj[v] & self._alive) | low
            group = groups.get(closed)
            if group is None:
                groups[closed] = [v]
            else:
                group.append(v)
        for group in groups.values():
            if len(group) < 2:
                continue
            keep = group[0]
            for member in group[1:]:
                if weights[member] >= weights[keep]:
                    keep = member
            for member in group:
                if member != keep:
                    self._remove(member, queue, queued)
                    self.stats.dominated_removed += 1
                    removed_any = True
        # Tier 2 — strict subsets, gated by instance size.  Strictly
        # smaller degree is required (equal-size containment is equality
        # and tier 1 already handled it), which prunes most pairs before
        # the bigint subset test.  Masks are read live so removals made
        # earlier in the scan are respected.
        if self._alive.bit_count() <= SUBSET_SWEEP_LIMIT:
            remaining = self._alive
            while remaining:
                low = remaining & -remaining
                v = low.bit_length() - 1
                remaining ^= low
                if not (self._alive >> v) & 1:
                    continue
                open_v = adj[v] & self._alive
                closed_v = open_v | low
                degree_v = open_v.bit_count()
                weight_v = weights[v]
                candidates = open_v
                while candidates:
                    ulow = candidates & -candidates
                    u = ulow.bit_length() - 1
                    candidates ^= ulow
                    if weights[u] < weight_v:
                        continue
                    closed_u = (adj[u] & self._alive) | ulow
                    if closed_u.bit_count() > degree_v:
                        continue  # not strictly smaller => not a strict subset
                    if not (closed_u & ~closed_v):
                        self._remove(v, queue, queued)
                        self.stats.dominated_removed += 1
                        removed_any = True
                        break
        return removed_any

    def _run(self, index: Dict[Node, int]) -> None:
        # Seed the work queue from the graph's degree buckets: only the
        # degree <= 2 buckets can fire a degree rule; everything else
        # joins the queue when an event drops its residual degree.
        queue: List[int] = []
        queued: Set[int] = set()
        buckets = self.graph.nodes_by_degree()
        for degree in (0, 1, 2):
            for node in buckets.get(degree, ()):
                i = index[node]
                queued.add(i)
                queue.append(i)
        cursor = 0
        while True:
            while cursor < len(queue):
                i = queue[cursor]
                cursor += 1
                queued.discard(i)
                if (self._alive >> i) & 1:
                    self._try_degree_rules(i, queue, queued)
            if not self._domination_pass(queue, queued):
                break
        self.stats.reduced_nodes = self.num_reduced_nodes


def kernelize(graph: WeightedGraph) -> Kernelization:
    """Reduce ``graph`` with the rules above and return the fold state.

    Raises :class:`ValueError` on negative node weights (checked before
    any index structure is touched).  The finished kernelization is
    memoized in the graph's mutation-invalidated derived cache — rules
    are deterministic, so reuse is invisible; a reuse emits the
    ``maxis.kernel.reuses`` counter instead of the reduction counters.
    """
    cache = graph.derived_cache()
    kern = cache.get(_KERNELIZATION_CACHE_KEY)
    if kern is not None:
        if _obs.enabled:
            _obs.incr("maxis.kernel.reuses")
        return kern
    for weight in graph.weights().values():
        if weight < 0:
            raise ValueError("negative node weights are not supported")
    labels, weights, masks, index = graph.solver_index_form()
    with _obs.span("maxis.kernel.reduce", n=len(labels)):
        kern = Kernelization(graph, labels, weights, masks)
        kern._run(index)
    if _obs.enabled:
        _obs.incr("maxis.kernel.reductions")
        _obs.incr("maxis.kernel.removed_nodes", kern.stats.removed_nodes)
        _obs.incr("maxis.kernel.folds", kern.stats.folds)
    cache[_KERNELIZATION_CACHE_KEY] = kern
    return kern
