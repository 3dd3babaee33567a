"""The linear construction (Section 4): fixed graph ``G`` and family ``G_x``.

``G`` contains ``t`` copies ``H^1 .. H^t`` of the base graph.  Between
copies, for every ``h``, the cliques ``C_h^i`` and ``C_h^j`` are joined
by *all* edges except the natural perfect matching (Figure 2) — so
matched positions remain mutually independent across copies, which is
what makes ``∪_i Code^i_m`` independent (Property 1).

The family ``G_x``: node ``v^i_m`` has weight ``ell`` when ``x^i_m = 1``
and weight 1 otherwise; everything else has weight 1.  The gap predicate
(Claims 3 and 5) distinguishes OPT >= ``t(2 ell + alpha)`` from
OPT <= ``(t+1) ell + alpha t^2``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from ..codes import CodeMapping, code_mapping_for_parameters
from ..commcc import BitString, promise_pairwise_disjointness
from ..framework.family import LowerBoundFamily
from ..framework.gap import GapPredicate
from ..graphs import Node, WeightedGraph
from .base_graph import BaseGraphLayout, add_base_graph
from .node_ids import linear_clique_node, linear_code_node
from .parameters import GadgetParameters


class LinearConstruction:
    """The fixed graph ``G = (V, E)`` of Section 4.1.

    Weights in the fixed graph are all 1; the family applies the
    input-dependent weights on top.
    """

    def __init__(
        self,
        params: GadgetParameters,
        code: Optional[CodeMapping] = None,
        enforce_code_distance: bool = True,
        remove_matching: bool = True,
    ) -> None:
        """Build the fixed graph ``G``.

        The two keyword flags exist for *ablation studies only* — they
        deliberately break the construction to demonstrate which design
        choice carries which property:

        * ``enforce_code_distance=False`` accepts a code-mapping whose
          distance is below ``ell`` (breaks Property 2 / Claim 4's cap);
        * ``remove_matching=False`` wires full bicliques between
          ``C_h^i`` and ``C_h^j`` (breaks Property 1 — the intersecting
          witness stops being independent).
        """
        self.params = params
        self.code = code or code_mapping_for_parameters(params.ell, params.alpha)
        self.graph = WeightedGraph()
        self.layouts: List[BaseGraphLayout] = [
            add_base_graph(
                self.graph,
                params,
                self.code,
                a_namer=lambda m, i=i: linear_clique_node(i, m),
                c_namer=lambda h, r, i=i: linear_code_node(i, h, r),
                enforce_code_distance=enforce_code_distance,
            )
            for i in range(params.t)
        ]
        self._add_intercopy_wiring(remove_matching)
        self._partition = [set(layout.all_nodes()) for layout in self.layouts]

    def _add_intercopy_wiring(self, remove_matching: bool) -> None:
        """Figure 2: complete bipartite minus perfect matching, per ``h``."""
        q = self.params.q
        t = self.params.t
        for h in range(q):
            for i in range(t):
                clique_i = self.layouts[i].code_cliques[h]
                for j in range(i + 1, t):
                    clique_j = self.layouts[j].code_cliques[h]
                    for r in range(q):
                        for s in range(q):
                            if r != s or not remove_matching:
                                self.graph.add_edge(clique_i[r], clique_j[s])

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def a_node(self, player: int, index: int) -> Node:
        """``v^i_m`` (0-based)."""
        return self.layouts[player].a_node(index)

    def code_set(self, player: int, index: int) -> List[Node]:
        """``Code^i_m``."""
        return self.layouts[player].code_set(index)

    def player_nodes(self, player: int) -> List[Node]:
        """``V^i``."""
        return self.layouts[player].all_nodes()

    def partition(self) -> List[Set[Node]]:
        """The fixed partition ``[V^1, ..., V^t]``."""
        return [set(part) for part in self._partition]

    def expected_cut_size(self) -> int:
        """Closed form for the measured cut: ``C(t,2) * q^2 (q-1)``.

        Per copy pair and per ``h`` the wiring has ``q(q-1)`` edges, and
        there are ``q`` values of ``h`` and ``t(t-1)/2`` pairs.  (The
        paper's Theorem 1 proof states ``t^2 log^2 k``; see DESIGN.md for
        the discrepancy note.)
        """
        q = self.params.q
        t = self.params.t
        return (t * (t - 1) // 2) * q * q * (q - 1)

    def groups(self) -> Dict[str, List[Node]]:
        """Labelled node groups for rendering: ``A^i`` and ``Code^i``."""
        groups: Dict[str, List[Node]] = {}
        for i, layout in enumerate(self.layouts):
            groups[f"A^{i}"] = list(layout.a_nodes)
            groups[f"Code^{i}"] = layout.all_code_nodes()
        return groups

    # ------------------------------------------------------------------
    # The family
    # ------------------------------------------------------------------

    def apply_inputs(self, inputs: Sequence[BitString]) -> WeightedGraph:
        """Return ``G_x``: the fixed graph with input-dependent weights.

        ``w(v^i_m) = ell`` iff ``x^i_m = 1``; all other weights are 1.
        """
        if len(inputs) != self.params.t:
            raise ValueError(
                f"expected {self.params.t} inputs, got {len(inputs)}"
            )
        graph = self.graph.copy()
        for i, string in enumerate(inputs):
            if string.length != self.params.k:
                raise ValueError(
                    f"input {i} has length {string.length}, expected {self.params.k}"
                )
            for m in range(self.params.k):
                if string[m]:
                    graph.set_weight(self.a_node(i, m), self.params.ell)
        return graph


class LinearMaxISFamily(LowerBoundFamily):
    """The (1/2 + eps)-approximate MaxIS family of Theorem 1.

    ``f`` is promise pairwise disjointness; ``P`` is the gap predicate
    with the Claim 3 / Claim 5 thresholds.  ``P`` is true on the *low*
    side, matching ``f = TRUE`` on pairwise disjoint inputs.

    For ``t = 2`` the tighter warm-up threshold of Claim 2
    (``3 ell + 2 alpha + 1``) is available via ``warmup=True``,
    reproducing Lemma 1's (3/4 + eps) family.
    """

    def __init__(
        self,
        params: GadgetParameters,
        code: Optional[CodeMapping] = None,
        warmup: bool = False,
    ) -> None:
        if warmup and params.t != 2:
            raise ValueError("the warm-up thresholds require t = 2")
        self.construction = LinearConstruction(params, code=code)
        self.params = params
        self.num_players = params.t
        self.input_length = params.k
        low = (
            params.two_party_low_threshold()
            if warmup
            else params.linear_low_threshold()
        )
        self.gap = GapPredicate(
            low_threshold=low,
            high_threshold=params.linear_high_threshold(),
        )

    def build(self, inputs: Sequence[BitString]) -> WeightedGraph:
        self.check_inputs(inputs)
        return self.construction.apply_inputs(inputs)

    def partition(self) -> List[Set[Node]]:
        return self.construction.partition()

    def function_value(self, inputs: Sequence[BitString]) -> bool:
        self.check_inputs(inputs)
        return promise_pairwise_disjointness(inputs)

    def predicate(self, graph: WeightedGraph) -> bool:
        return self.gap.evaluate(graph)
