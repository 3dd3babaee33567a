"""The base graph ``H`` of Section 4.1 (Figure 1).

``H`` consists of one clique ``A`` of size ``k`` and the *code gadget*:
``ell + alpha`` cliques ``C_1 .. C_{ell+alpha}``, each of size
``ell + alpha``.  For every index ``m``, ``Code_m`` is the set of code
nodes spelling the codeword ``C(m)`` (one node per clique ``C_h``, at
position ``w_h``), and ``v_m`` is connected to all of ``Code \\ Code_m``.

The builder is copy-agnostic: callers supply node-naming callbacks, so
the same code assembles the copies ``H^i`` of the linear construction
and ``H^(i, b)`` of the quadratic one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..codes import CodeMapping
from ..graphs import Node, WeightedGraph
from .parameters import GadgetParameters

ANodeNamer = Callable[[int], Node]
CNodeNamer = Callable[[int, int], Node]


class BaseGraphLayout:
    """Node-group bookkeeping for one copy of ``H``.

    Attributes
    ----------
    a_nodes:
        ``A = [v_0, ..., v_{k-1}]`` in index order.
    code_cliques:
        ``code_cliques[h] = [sigma_(h,0), ..., sigma_(h,q-1)]``.
    """

    def __init__(
        self,
        params: GadgetParameters,
        code: CodeMapping,
        a_nodes: List[Node],
        code_cliques: List[List[Node]],
    ) -> None:
        self.params = params
        self.code = code
        self.a_nodes = a_nodes
        self.code_cliques = code_cliques

    def a_node(self, index: int) -> Node:
        """``v_m`` for 0-based ``m``."""
        return self.a_nodes[index]

    def code_node(self, clique: int, position: int) -> Node:
        """``sigma_(h, r)`` for 0-based ``h`` and ``r``."""
        return self.code_cliques[clique][position]

    def all_code_nodes(self) -> List[Node]:
        """Every node of the code gadget, clique-major order."""
        return [node for clique in self.code_cliques for node in clique]

    def code_set(self, index: int) -> List[Node]:
        """``Code_m`` — the nodes spelling the codeword ``C(m)``.

        One node per clique ``C_h``, at the position given by the
        codeword symbol.
        """
        word = self.code.codeword(index)
        return [
            self.code_cliques[h][word[h]] for h in range(self.params.q)
        ]

    def all_nodes(self) -> List[Node]:
        """Every node of this copy of ``H``."""
        return list(self.a_nodes) + self.all_code_nodes()

    def groups(self) -> Dict[str, List[Node]]:
        """Labelled groups for rendering (``A``, ``C_h``)."""
        groups: Dict[str, List[Node]] = {"A": list(self.a_nodes)}
        for h, clique in enumerate(self.code_cliques):
            groups[f"C_{h}"] = list(clique)
        return groups


def add_base_graph(
    graph: WeightedGraph,
    params: GadgetParameters,
    code: CodeMapping,
    a_namer: ANodeNamer,
    c_namer: CNodeNamer,
    enforce_code_distance: bool = True,
) -> BaseGraphLayout:
    """Add one copy of ``H`` to ``graph`` and return its layout.

    All nodes get weight 1 — weights are assigned later, by the family
    (linear: from the input strings; quadratic: fixed weight ``ell`` on
    ``A`` nodes).  ``enforce_code_distance=False`` skips the
    distance-vs-``ell`` check, for ablation studies that deliberately
    use a weak code.
    """
    _check_code(params, code, enforce_code_distance)
    q = params.q
    a_nodes = [a_namer(m) for m in range(params.k)]
    code_cliques = [[c_namer(h, r) for r in range(q)] for h in range(q)]
    layout = BaseGraphLayout(params, code, a_nodes, code_cliques)

    for node in layout.all_nodes():
        graph.add_node(node, weight=1)

    # E(A): the k-clique.
    for i in range(params.k):
        for j in range(i + 1, params.k):
            graph.add_edge(a_nodes[i], a_nodes[j])

    # E(C_h): each code clique.
    for clique in code_cliques:
        for i in range(q):
            for j in range(i + 1, q):
                graph.add_edge(clique[i], clique[j])

    # v_m -- (Code \ Code_m): connect each clique node to every code node
    # except the ones spelling its own codeword.
    for m in range(params.k):
        word = code.codeword(m)
        v = a_nodes[m]
        for h in range(q):
            for r in range(q):
                if r != word[h]:
                    graph.add_edge(v, code_cliques[h][r])
    return layout


def build_base_graph(
    params: GadgetParameters, code: CodeMapping
) -> Tuple[WeightedGraph, BaseGraphLayout]:
    """Build a standalone ``H`` (Figure 1) with plain node names.

    ``A`` nodes are ``("A", 0, m)`` and code nodes ``("C", 0, h, r)`` —
    i.e. the player-0 copy of the linear construction.
    """

    def a_namer(m: int) -> Node:
        return ("A", 0, m)

    def c_namer(h: int, r: int) -> Node:
        return ("C", 0, h, r)

    graph = WeightedGraph()
    layout = add_base_graph(graph, params, code, a_namer=a_namer, c_namer=c_namer)
    return graph, layout


def _check_code(
    params: GadgetParameters, code: CodeMapping, enforce_distance: bool = True
) -> None:
    if code.block_length != params.q:
        raise ValueError(
            f"code block length {code.block_length} != ell + alpha = {params.q}"
        )
    if code.alphabet_size != params.q:
        raise ValueError(
            f"code alphabet size {code.alphabet_size} != ell + alpha = {params.q}"
        )
    if code.num_codewords < params.k:
        raise ValueError(
            f"code has {code.num_codewords} codewords but k = {params.k}"
        )
    if enforce_distance and code.guaranteed_distance < params.ell:
        raise ValueError(
            f"code distance {code.guaranteed_distance} < ell = {params.ell}"
        )
