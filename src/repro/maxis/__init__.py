"""Maximum-weight independent set: exact solvers and approximations."""

from .approx import (
    best_greedy,
    greedy_by_degree,
    greedy_by_weight,
    greedy_by_weight_degree_ratio,
    improve_by_swaps,
    local_optima_over_partition,
    random_maximal_independent_set,
)
from .brute_force import (
    brute_force_max_weight_independent_set,
    count_independent_sets,
)
from .exact import (
    BranchAndBoundStats,
    max_independent_set_weight,
    max_weight_clique,
    max_weight_independent_set,
)
from .kernel import (
    FoldedVertex,
    Kernelization,
    KernelStats,
    kernelize,
)
from .result import IndependentSetResult, approximation_ratio
from .vertex_cover import (
    VertexCoverResult,
    complement_identity_check,
    is_vertex_cover,
    matching_vertex_cover,
    min_weight_vertex_cover,
)

__all__ = [
    "BranchAndBoundStats",
    "FoldedVertex",
    "IndependentSetResult",
    "KernelStats",
    "Kernelization",
    "VertexCoverResult",
    "approximation_ratio",
    "best_greedy",
    "brute_force_max_weight_independent_set",
    "complement_identity_check",
    "count_independent_sets",
    "greedy_by_degree",
    "greedy_by_weight",
    "greedy_by_weight_degree_ratio",
    "improve_by_swaps",
    "is_vertex_cover",
    "kernelize",
    "local_optima_over_partition",
    "matching_vertex_cover",
    "max_independent_set_weight",
    "max_weight_clique",
    "max_weight_independent_set",
    "min_weight_vertex_cover",
    "random_maximal_independent_set",
]
