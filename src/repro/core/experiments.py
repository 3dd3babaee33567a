"""End-to-end experiment pipelines for Theorems 1 and 2 and Lemma 1.

Each experiment assembles the full chain the paper's proof describes:

1. pick parameters and build the construction,
2. sample inputs from both promise sides,
3. solve MaxIS exactly on every instance (the gap measurement), each
   search starting from the paper's own set on that side,
4. check the claimed thresholds,
5. measure the cut and evaluate Corollary 1's round lower bound.

Reports carry every measured quantity so benches and examples just
format them.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from ..commcc import (
    BitString,
    flat_to_index_pair,
    pairwise_disjoint_inputs,
    uniquely_intersecting_inputs,
)
from ..framework import RoundLowerBound, cut_size
from ..gadgets import (
    GadgetParameters,
    LinearMaxISFamily,
    QuadraticMaxISFamily,
    heaviest_claim6_set,
    heaviest_property1_set,
    linear_intersecting_witness,
    quadratic_intersecting_witness,
)
from ..maxis import max_weight_independent_set
from ..obs import get_recorder

_obs = get_recorder()


def _common_index(inputs: Sequence[BitString]) -> int:
    """The index set in every string: the single bit of their AND."""
    common = -1
    for string in inputs:
        common &= string.mask
    return common.bit_length() - 1


class GapMeasurement:
    """Exact optima measured on both promise sides, versus the thresholds."""

    def __init__(
        self,
        intersecting_optima: Sequence[float],
        disjoint_optima: Sequence[float],
        high_threshold: float,
        low_threshold: float,
    ) -> None:
        if not intersecting_optima or not disjoint_optima:
            raise ValueError("need at least one sample per promise side")
        self.intersecting_optima = list(intersecting_optima)
        self.disjoint_optima = list(disjoint_optima)
        self.high_threshold = high_threshold
        self.low_threshold = low_threshold

    @property
    def min_intersecting(self) -> float:
        return min(self.intersecting_optima)

    @property
    def max_disjoint(self) -> float:
        return max(self.disjoint_optima)

    @property
    def measured_ratio(self) -> float:
        """``max disjoint OPT / min intersecting OPT`` — the real gap.

        Any algorithm with approximation factor above this ratio
        separates the two sides on these instances.
        """
        return self.max_disjoint / self.min_intersecting

    @property
    def claimed_ratio(self) -> float:
        """``low threshold / high threshold`` — the paper's certified gap."""
        return self.low_threshold / self.high_threshold

    @property
    def high_side_holds(self) -> bool:
        """Every intersecting instance reaches the claimed high threshold."""
        return self.min_intersecting >= self.high_threshold

    @property
    def low_side_holds(self) -> bool:
        """Every disjoint instance respects the claimed ceiling."""
        return self.max_disjoint <= self.low_threshold

    @property
    def claims_hold(self) -> bool:
        return self.high_side_holds and self.low_side_holds

    def __repr__(self) -> str:
        return (
            f"GapMeasurement(intersecting >= {self.min_intersecting}, "
            f"disjoint <= {self.max_disjoint}, measured ratio "
            f"{self.measured_ratio:.4f}, claimed {self.claimed_ratio:.4f})"
        )


class ExperimentReport:
    """Everything one experiment instance measured."""

    def __init__(
        self,
        name: str,
        params: GadgetParameters,
        num_nodes: int,
        num_edges: int,
        cut: int,
        expected_cut: int,
        gap: GapMeasurement,
        round_bound: RoundLowerBound,
    ) -> None:
        self.name = name
        self.params = params
        self.num_nodes = num_nodes
        self.num_edges = num_edges
        self.cut = cut
        self.expected_cut = expected_cut
        self.gap = gap
        self.round_bound = round_bound

    def summary_rows(self) -> List[Tuple[str, object]]:
        """Label/value pairs for report rendering."""
        return [
            ("experiment", self.name),
            ("parameters", repr(self.params)),
            ("nodes n", self.num_nodes),
            ("edges", self.num_edges),
            ("cut (measured)", self.cut),
            ("cut (closed form)", self.expected_cut),
            ("high threshold (claimed)", self.gap.high_threshold),
            ("low threshold (claimed)", self.gap.low_threshold),
            ("min OPT, intersecting side", self.gap.min_intersecting),
            ("max OPT, disjoint side", self.gap.max_disjoint),
            ("claimed gap ratio", round(self.gap.claimed_ratio, 4)),
            ("measured gap ratio", round(self.gap.measured_ratio, 4)),
            ("claims hold", self.gap.claims_hold),
            ("Corollary 1 round bound", round(self.round_bound.value, 4)),
        ]

    def __repr__(self) -> str:
        return f"ExperimentReport({self.name}, n={self.num_nodes}, {self.gap!r})"


class LinearLowerBoundExperiment:
    """Theorem 1's pipeline at concrete parameters.

    ``warmup=True`` switches to Lemma 1's two-party thresholds
    (requires ``t = 2``).
    """

    def __init__(
        self,
        params: GadgetParameters,
        warmup: bool = False,
        seed: int = 0,
    ) -> None:
        self.params = params
        with _obs.span("experiment.build", experiment="linear", t=params.t):
            self.family = LinearMaxISFamily(params, warmup=warmup)
        self.warmup = warmup
        self.seed = seed

    def run(self, num_samples: int = 5) -> ExperimentReport:
        """Sample both promise sides, solve exactly, evaluate the bound."""
        rng = random.Random(self.seed)
        params = self.params
        construction = self.family.construction

        with _obs.span("experiment.run", experiment="linear", t=params.t):
            intersecting: List[float] = []
            disjoint: List[float] = []
            for _ in range(num_samples):
                with _obs.span("experiment.sample"):
                    inputs = uniquely_intersecting_inputs(params.k, params.t, rng=rng)
                    graph = self.family.build(inputs)
                    # Claims 1 and 3: Property 1's set at the common index.
                    witness = linear_intersecting_witness(
                        construction, _common_index(inputs)
                    )
                with _obs.span("experiment.solve"):
                    intersecting.append(
                        max_weight_independent_set(graph, incumbent=witness).weight
                    )
                with _obs.span("experiment.sample"):
                    inputs = pairwise_disjoint_inputs(params.k, params.t, rng=rng)
                    graph = self.family.build(inputs)
                    # The heaviest Property 1 set: a lower bound on OPT.
                    witness = heaviest_property1_set(construction, graph)
                with _obs.span("experiment.solve"):
                    disjoint.append(
                        max_weight_independent_set(graph, incumbent=witness).weight
                    )

            with _obs.span("experiment.check"):
                gap = GapMeasurement(
                    intersecting,
                    disjoint,
                    high_threshold=self.family.gap.high_threshold,
                    low_threshold=self.family.gap.low_threshold,
                )
            with _obs.span("experiment.cut"):
                fixed = construction.graph
                cut = cut_size(fixed, construction.partition())
                round_bound = RoundLowerBound(
                    k=params.k,
                    t=params.t,
                    cut=cut,
                    num_nodes=fixed.num_nodes,
                    input_length=params.k,
                )
        name = "Lemma 1 (two-party warm-up)" if self.warmup else "Theorem 1 (linear)"
        return ExperimentReport(
            name=name,
            params=params,
            num_nodes=fixed.num_nodes,
            num_edges=fixed.num_edges,
            cut=cut,
            expected_cut=construction.expected_cut_size(),
            gap=gap,
            round_bound=round_bound,
        )


class QuadraticLowerBoundExperiment:
    """Theorem 2's pipeline at concrete parameters.

    The claimed Claim 7 threshold is reported as-is; because it is loose
    at feasible sizes, the report's *measured* ratio is the number whose
    trend toward 3/4 reproduces the theorem's shape.
    """

    def __init__(self, params: GadgetParameters, seed: int = 0) -> None:
        self.params = params
        with _obs.span("experiment.build", experiment="quadratic", t=params.t):
            self.family = QuadraticMaxISFamily(params)
        self.seed = seed

    def run(self, num_samples: int = 3) -> ExperimentReport:
        rng = random.Random(self.seed)
        params = self.params
        construction = self.family.construction
        length = params.k * params.k

        with _obs.span("experiment.run", experiment="quadratic", t=params.t):
            intersecting: List[float] = []
            disjoint: List[float] = []
            for _ in range(num_samples):
                with _obs.span("experiment.sample"):
                    inputs = uniquely_intersecting_inputs(length, params.t, rng=rng)
                    graph = self.family.build(inputs)
                    # Claim 6: the set at the common pair (m1, m2).
                    witness = quadratic_intersecting_witness(
                        construction,
                        *flat_to_index_pair(_common_index(inputs), params.k),
                    )
                with _obs.span("experiment.solve"):
                    intersecting.append(
                        max_weight_independent_set(graph, incumbent=witness).weight
                    )
                with _obs.span("experiment.sample"):
                    inputs = pairwise_disjoint_inputs(length, params.t, rng=rng)
                    graph = self.family.build(inputs)
                    # The heaviest Claim 6 set, conflicts dropped: a
                    # lower bound on OPT.
                    witness = heaviest_claim6_set(construction, graph)
                with _obs.span("experiment.solve"):
                    disjoint.append(
                        max_weight_independent_set(graph, incumbent=witness).weight
                    )

            with _obs.span("experiment.check"):
                gap = GapMeasurement(
                    intersecting,
                    disjoint,
                    high_threshold=self.family.gap.high_threshold,
                    low_threshold=self.family.gap.low_threshold,
                )
            with _obs.span("experiment.cut"):
                fixed = construction.graph
                cut = cut_size(fixed, construction.partition())
                round_bound = RoundLowerBound(
                    k=params.k,
                    t=params.t,
                    cut=cut,
                    num_nodes=fixed.num_nodes,
                    input_length=length,
                )
        return ExperimentReport(
            name="Theorem 2 (quadratic)",
            params=params,
            num_nodes=fixed.num_nodes,
            num_edges=fixed.num_edges,
            cut=cut,
            expected_cut=construction.expected_cut_size(),
            gap=gap,
            round_bound=round_bound,
        )
