"""The paper's lower-bound constructions (Sections 4 and 5, Remark 1)."""

from .base_graph import BaseGraphLayout, add_base_graph, build_base_graph
from .claim7_analysis import (
    Claim7Breakdown,
    analyze_claim7_case2,
    build_case2_independent_set,
    case2_applies,
)
from .linear import LinearConstruction, LinearMaxISFamily
from .node_ids import (
    copy_of,
    is_clique_node,
    is_code_node,
    linear_clique_node,
    linear_code_node,
    player_of,
    quad_clique_node,
    quad_code_node,
)
from .parameters import (
    GadgetParameters,
    feasible_parameter_sweep,
    figure_parameters,
    smallest_meaningful_linear_parameters,
    t_for_epsilon_linear,
    t_for_epsilon_quadratic,
)
from .quadratic import QuadraticConstruction, QuadraticMaxISFamily
from .unweighted import (
    UnweightedExpansion,
    UnweightedLinearMaxISFamily,
    UnweightedQuadraticMaxISFamily,
)
from .witnesses import (
    check_property1,
    check_property2,
    check_property3,
    corollary2_bound,
    heaviest_claim6_set,
    heaviest_property1_set,
    linear_intersecting_witness,
    property1_witness,
    property2_matching_size,
    property3_overlap_count,
    quadratic_intersecting_witness,
    two_party_intersecting_witness,
)

__all__ = [
    "BaseGraphLayout",
    "Claim7Breakdown",
    "GadgetParameters",
    "LinearConstruction",
    "LinearMaxISFamily",
    "QuadraticConstruction",
    "QuadraticMaxISFamily",
    "UnweightedExpansion",
    "UnweightedLinearMaxISFamily",
    "UnweightedQuadraticMaxISFamily",
    "add_base_graph",
    "analyze_claim7_case2",
    "build_case2_independent_set",
    "build_base_graph",
    "case2_applies",
    "check_property1",
    "check_property2",
    "check_property3",
    "copy_of",
    "corollary2_bound",
    "feasible_parameter_sweep",
    "figure_parameters",
    "heaviest_claim6_set",
    "heaviest_property1_set",
    "is_clique_node",
    "is_code_node",
    "linear_clique_node",
    "linear_code_node",
    "linear_intersecting_witness",
    "player_of",
    "property1_witness",
    "property2_matching_size",
    "property3_overlap_count",
    "quad_clique_node",
    "quad_code_node",
    "quadratic_intersecting_witness",
    "smallest_meaningful_linear_parameters",
    "t_for_epsilon_linear",
    "t_for_epsilon_quadratic",
    "two_party_intersecting_witness",
]
