"""The quadratic construction (Section 5): fixed graph ``F`` and family ``F_x``.

``F`` is two copies ``G^1, G^2`` of the linear fixed construction, so
player ``i`` owns ``V^i = V^(i,1) ∪ V^(i,2)`` — one base-graph copy in
each ``G^b``.  Weights are *fixed*: every ``A`` node weighs ``ell``,
every code node weighs 1.  The input dependence moves to *edges*: player
``i``'s string has length ``k^2``, indexed by pairs ``(m1, m2)``, and
the edge ``{v^(i,1)_{m1}, v^(i,2)_{m2}}`` is present iff
``x^i_(m1,m2) = 0`` (Figure 6).  Because a string of length ``k^2`` is
encoded into a graph of ``Theta(k)`` nodes, the resulting round lower
bound is near-quadratic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from ..codes import CodeMapping, code_mapping_for_parameters
from ..commcc import BitString, index_pair_to_flat, promise_pairwise_disjointness
from ..framework.family import LowerBoundFamily
from ..framework.gap import GapPredicate
from ..graphs import Node, WeightedGraph
from .base_graph import BaseGraphLayout, add_base_graph
from .node_ids import quad_clique_node, quad_code_node
from .parameters import GadgetParameters

_COPIES = (0, 1)


class QuadraticConstruction:
    """The fixed graph ``F = (V_F, E_F, w_F)`` of Section 5.1."""

    def __init__(
        self, params: GadgetParameters, code: Optional[CodeMapping] = None
    ) -> None:
        self.params = params
        self.code = code or code_mapping_for_parameters(params.ell, params.alpha)
        self.graph = WeightedGraph()
        # layouts[b][i] is the base-graph copy H^(i, b) living in G^b.
        self.layouts: List[List[BaseGraphLayout]] = [
            [
                add_base_graph(
                    self.graph,
                    params,
                    self.code,
                    a_namer=lambda m, i=i, b=b: quad_clique_node(i, b, m),
                    c_namer=lambda h, r, i=i, b=b: quad_code_node(i, b, h, r),
                )
                for i in range(params.t)
            ]
            for b in _COPIES
        ]
        self._add_intercopy_wiring()
        self._apply_fixed_weights()
        self._partition = [
            set(self.layouts[0][i].all_nodes()) | set(self.layouts[1][i].all_nodes())
            for i in range(params.t)
        ]

    def _add_intercopy_wiring(self) -> None:
        """Figure 2 wiring inside each ``G^b``, across players ``i != j``."""
        q = self.params.q
        t = self.params.t
        for b in _COPIES:
            for h in range(q):
                for i in range(t):
                    clique_i = self.layouts[b][i].code_cliques[h]
                    for j in range(i + 1, t):
                        clique_j = self.layouts[b][j].code_cliques[h]
                        for r in range(q):
                            for s in range(q):
                                if r != s:
                                    self.graph.add_edge(clique_i[r], clique_j[s])

    def _apply_fixed_weights(self) -> None:
        """``w_F``: weight ``ell`` on every ``A`` node, 1 elsewhere."""
        for b in _COPIES:
            for layout in self.layouts[b]:
                for node in layout.a_nodes:
                    self.graph.set_weight(node, self.params.ell)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def a_node(self, player: int, copy: int, index: int) -> Node:
        """``v^(i, b)_m`` (0-based; the paper's copy ``b+1``)."""
        return self.layouts[copy][player].a_node(index)

    def code_set(self, player: int, copy: int, index: int) -> List[Node]:
        """``Code^(i, b)_m``."""
        return self.layouts[copy][player].code_set(index)

    def player_nodes(self, player: int) -> List[Node]:
        """``V^i = V^(i,1) ∪ V^(i,2)``."""
        return (
            self.layouts[0][player].all_nodes()
            + self.layouts[1][player].all_nodes()
        )

    def partition(self) -> List[Set[Node]]:
        """The fixed partition ``[V^1, ..., V^t]``."""
        return [set(part) for part in self._partition]

    def expected_cut_size(self) -> int:
        """Twice the linear construction's cut (one per copy of ``G``)."""
        q = self.params.q
        t = self.params.t
        return 2 * (t * (t - 1) // 2) * q * q * (q - 1)

    def groups(self) -> Dict[str, List[Node]]:
        """Labelled node groups for rendering."""
        groups: Dict[str, List[Node]] = {}
        for b in _COPIES:
            for i in range(self.params.t):
                layout = self.layouts[b][i]
                groups[f"A^({i},{b})"] = list(layout.a_nodes)
                groups[f"Code^({i},{b})"] = layout.all_code_nodes()
        return groups

    # ------------------------------------------------------------------
    # The family
    # ------------------------------------------------------------------

    def apply_inputs(self, inputs: Sequence[BitString]) -> WeightedGraph:
        """Return ``F_x``: add ``{v^(i,1)_{m1}, v^(i,2)_{m2}}`` iff the bit is 0."""
        params = self.params
        if len(inputs) != params.t:
            raise ValueError(f"expected {params.t} inputs, got {len(inputs)}")
        expected_length = params.k * params.k
        graph = self.graph.copy()
        for i, string in enumerate(inputs):
            if string.length != expected_length:
                raise ValueError(
                    f"input {i} has length {string.length}, expected k^2 = "
                    f"{expected_length}"
                )
            for m1 in range(params.k):
                left = self.a_node(i, 0, m1)
                for m2 in range(params.k):
                    if not string[index_pair_to_flat(m1, m2, params.k)]:
                        graph.add_edge(left, self.a_node(i, 1, m2))
        return graph


class QuadraticMaxISFamily(LowerBoundFamily):
    """The (3/4 + eps)-approximate MaxIS family of Theorem 2.

    The default thresholds are the paper's Claim 6 / Claim 7 values.
    Claim 7's upper bound ``3(t+1) ell + 3 alpha t^3`` is loose: at
    feasible instance sizes it exceeds the Claim 6 threshold, making the
    *claimed* gap vacuous even though the *measured* gap is wide.  Pass
    ``low_threshold`` explicitly (e.g. a measured calibration) to obtain
    a working predicate at small scale; benches report both.
    """

    def __init__(
        self,
        params: GadgetParameters,
        code: Optional[CodeMapping] = None,
        low_threshold: Optional[float] = None,
        high_threshold: Optional[float] = None,
    ) -> None:
        self.construction = QuadraticConstruction(params, code=code)
        self.params = params
        self.num_players = params.t
        self.input_length = params.k * params.k
        self.gap = GapPredicate(
            low_threshold=(
                params.quadratic_low_threshold()
                if low_threshold is None
                else low_threshold
            ),
            high_threshold=(
                params.quadratic_high_threshold()
                if high_threshold is None
                else high_threshold
            ),
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
