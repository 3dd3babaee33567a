"""The full reproduction suite, runnable in one call.

``run_reproduction_suite`` executes every experiment family at feasible
parameters — claims, gaps, round bounds, the Theorem 5 simulation — and
returns a structured result that can be rendered as text or JSON.  This
is the ``python -m repro report`` entry point, and the programmatic
"reproduce the paper" button.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Iterator, List, Optional, Tuple

from ..analysis import (
    linear_gap_ratio_asymptotic,
    quadratic_gap_ratio_asymptotic,
    render_key_values,
    render_table,
)
from ..commcc import pairwise_disjoint_inputs, uniquely_intersecting_inputs
from ..congest import FullGraphCollection
from ..framework import SimulationReport, simulate_congest_via_players
from ..gadgets import (
    GadgetParameters,
    LinearMaxISFamily,
    smallest_meaningful_linear_parameters,
)
from ..maxis import max_independent_set_weight
from ..obs import get_recorder
from .claims import verify_all_linear, verify_all_quadratic

_obs = get_recorder()
from .experiments import (
    ExperimentReport,
    LinearLowerBoundExperiment,
    QuadraticLowerBoundExperiment,
)
from .serialize import claim_check_to_dict, report_to_dict


class SuiteResult:
    """Everything the suite measured, with render/JSON accessors."""

    def __init__(self) -> None:
        self.claim_checks: List = []
        self.linear_reports: List[ExperimentReport] = []
        self.quadratic_reports: List[ExperimentReport] = []
        self.simulation_rows: List[List] = []

    @property
    def all_claims_hold(self) -> bool:
        checks_ok = all(check.holds for check in self.claim_checks)
        gaps_ok = all(
            report.gap.claims_hold
            for report in self.linear_reports + self.quadratic_reports
        )
        return checks_ok and gaps_ok

    def to_dict(self) -> Dict:
        """Flatten for JSON consumers."""
        return {
            "all_claims_hold": self.all_claims_hold,
            "claims": [claim_check_to_dict(check) for check in self.claim_checks],
            "linear": [report_to_dict(report) for report in self.linear_reports],
            "quadratic": [
                report_to_dict(report) for report in self.quadratic_reports
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Render the whole suite as a report document."""
        parts = ["REPRODUCTION SUITE", "=" * 18, ""]

        rows = [
            [check.name, check.measured, f"{check.direction} {check.bound}", check.holds]
            for check in self.claim_checks
        ]
        parts.append(
            render_table(
                ["statement", "measured", "paper bound", "holds"],
                rows,
                title="Properties and claims",
            )
        )

        rows = [
            [
                report.params.t,
                report.num_nodes,
                round(report.gap.measured_ratio, 4),
                round(linear_gap_ratio_asymptotic(report.params.t), 4),
                report.gap.claims_hold,
            ]
            for report in self.linear_reports
        ]
        parts.append("")
        parts.append(
            render_table(
                ["t", "n", "measured ratio", "asymptotic", "claims hold"],
                rows,
                title="Theorem 1 (gap -> 1/2)",
            )
        )

        rows = [
            [
                report.params.t,
                report.num_nodes,
                round(report.gap.measured_ratio, 4),
                round(quadratic_gap_ratio_asymptotic(report.params.t), 4),
                report.gap.claims_hold,
            ]
            for report in self.quadratic_reports
        ]
        parts.append("")
        parts.append(
            render_table(
                ["t", "n", "measured ratio", "asymptotic", "claims hold"],
                rows,
                title="Theorem 2 (gap -> 3/4)",
            )
        )

        if self.simulation_rows:
            parts.append("")
            parts.append(
                render_table(
                    ["side", "rounds", "cut", "bits", "ceiling", "consistent"],
                    self.simulation_rows,
                    title="Theorem 5 simulation",
                )
            )

        parts.append("")
        parts.append(
            render_key_values([["ALL CLAIMS HOLD", self.all_claims_hold]], indent="")
        )
        return "\n".join(parts)


def theorem5_pair(seed: int = 0) -> Iterator[Tuple[bool, SimulationReport]]:
    """Run the Theorem 5 warm-up simulation on both promise sides.

    Yields ``(intersecting, report)`` for seeded intersecting inputs,
    then disjoint ones (drawn from one rng in that order), at the
    paper's figure parameters, decided by full graph collection.  The
    one builder behind :func:`simulation_check_rows` and the
    ``simulate`` and ``telemetry`` commands.
    """
    params = GadgetParameters(ell=2, alpha=1, t=2)
    family = LinearMaxISFamily(params, warmup=True)
    low = family.gap.low_threshold
    rng = random.Random(seed)
    for intersecting in (True, False):
        gen = (
            uniquely_intersecting_inputs
            if intersecting
            else pairwise_disjoint_inputs
        )
        inputs = gen(params.k, params.t, rng=rng)
        report = simulate_congest_via_players(
            family,
            inputs,
            FullGraphCollection.factory(
                lambda graph: max_independent_set_weight(graph) <= low
            ),
        )
        yield intersecting, report


def simulation_check_rows(seed: int = 0) -> List[List]:
    """One summary row per side of :func:`theorem5_pair`.

    Rows are (side, rounds, cut, bits, ceiling, consistent) — the
    "Theorem 5 simulation" table of the suite report.  Shared by the
    suite, the ``simulate`` CLI command's profile phase, and the
    profiled theorem sweeps.
    """
    return [
        [
            "inter" if intersecting else "disj",
            report.rounds,
            report.cut_edges,
            report.blackboard_bits,
            report.analytic_bit_bound,
            report.is_consistent,
        ]
        for intersecting, report in theorem5_pair(seed)
    ]


def run_reproduction_suite(
    max_t: int = 4,
    num_samples: int = 2,
    seed: int = 0,
    include_simulation: bool = True,
) -> SuiteResult:
    """Run the whole reproduction at feasible scale.

    ``max_t`` bounds the player sweeps; ``num_samples`` controls inputs
    per promise side.  Runtime is a few seconds at the defaults.
    """
    result = SuiteResult()

    with _obs.span("suite.claims"):
        result.claim_checks.extend(
            verify_all_linear(GadgetParameters(ell=4, alpha=1, t=3), num_samples)
        )
        result.claim_checks.extend(
            verify_all_quadratic(GadgetParameters(ell=2, alpha=1, t=2), num_samples)
        )

    with _obs.span("suite.linear"):
        for t in range(2, max_t + 1):
            params = smallest_meaningful_linear_parameters(t)
            result.linear_reports.append(
                LinearLowerBoundExperiment(params, seed=seed).run(num_samples)
            )

    with _obs.span("suite.quadratic"):
        for ell, t in [(2, 2), (2, 3)]:
            if t > max_t:
                continue
            params = GadgetParameters(ell=ell, alpha=1, t=t)
            result.quadratic_reports.append(
                QuadraticLowerBoundExperiment(params, seed=seed).run(
                    max(1, num_samples // 2)
                )
            )

    if include_simulation:
        with _obs.span("suite.simulation"):
            result.simulation_rows.extend(simulation_check_rows(seed))
    return result
