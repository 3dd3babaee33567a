"""The declarative paper-statement registry.

One :class:`PaperStatement` per statement of the paper, each mapped to
the executable :class:`CheckRef`\\ s that realise it — the verifier
functions in :mod:`repro.core.claims`, the framework/gadget APIs, and
the benchmarks whose published manifests carry measured evidence.  The
dashboard's coverage matrix is rendered straight from this table, so a
statement with no checks ("unmapped") is a loud, visible gap rather
than a silent omission; CI asserts there are none.

The registry is cross-checked against the ``@verifies`` annotations on
the claim verifiers (:func:`repro.core.claims.claim_verifiers`) by
:func:`validate`: every annotated verifier must appear here under the
statements it declares, and every Property/Claim row must cite at
least one annotated verifier — the two sources of truth cannot drift
apart without a test failing.

Statement ids are the canonical short forms used across the repo and
docs (``"Theorem 1"``, ``"Property 2"``, ``"Figure 5"``); see
``docs/PAPER_MAP.md`` for the prose index this table executes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class CheckRef:
    """One executable check backing a paper statement.

    ``kind`` classifies the check surface: ``"verifier"`` (a
    ``@verifies``-annotated function in ``core/claims.py``), ``"api"``
    (a framework/gadget/commcc entry point exercised by tests), or
    ``"bench"`` (a benchmark that publishes a run manifest).  ``ref``
    is the dotted path or bench name; ``manifest`` names the
    ``benchmarks/results/<manifest>.json`` run manifest that carries
    this check's measured evidence, when one exists.
    """

    __slots__ = ("kind", "ref", "manifest")

    _KINDS = ("verifier", "api", "bench")

    def __init__(self, kind: str, ref: str, manifest: Optional[str] = None) -> None:
        if kind not in self._KINDS:
            raise ValueError(f"check kind must be one of {self._KINDS}, got {kind!r}")
        self.kind = kind
        self.ref = ref
        self.manifest = manifest

    def __repr__(self) -> str:
        return f"CheckRef({self.kind}:{self.ref})"


class PaperStatement:
    """One statement of the paper and the checks that realise it."""

    __slots__ = ("statement_id", "kind", "section", "title", "checks")

    def __init__(
        self,
        statement_id: str,
        kind: str,
        section: str,
        title: str,
        checks: Tuple[CheckRef, ...],
    ) -> None:
        self.statement_id = statement_id
        self.kind = kind
        self.section = section
        self.title = title
        self.checks = checks

    def manifest_names(self) -> List[str]:
        """The run-manifest names cited by this statement's checks."""
        names: List[str] = []
        for check in self.checks:
            if check.manifest and check.manifest not in names:
                names.append(check.manifest)
        return names

    def __repr__(self) -> str:
        return f"PaperStatement({self.statement_id}: {len(self.checks)} checks)"


def _verifier(name: str, manifest: Optional[str] = None) -> CheckRef:
    return CheckRef("verifier", f"repro.core.claims.{name}", manifest=manifest)


def _api(ref: str, manifest: Optional[str] = None) -> CheckRef:
    return CheckRef("api", ref, manifest=manifest)


def _bench(name: str) -> CheckRef:
    return CheckRef("bench", name, manifest=name)


#: Every statement of the paper, in its order of appearance: the five
#: theorems, the three structural properties, the seven claims, the
#: warm-up lemma, the unweighted-conversion remark, and the six
#: figures.  23 statements total.
STATEMENTS: Tuple[PaperStatement, ...] = (
    PaperStatement(
        "Theorem 1",
        "theorem",
        "§4",
        "Ω(n / log³ n) rounds for (1/2 + ε)-approximate MaxIS",
        (
            _api("repro.framework.theorem1_asymptotic_rounds"),
            _bench("theorem1_linear_gap"),
            _bench("theorem1_all_claims"),
            _bench("theorem1_round_bound"),
        ),
    ),
    PaperStatement(
        "Theorem 2",
        "theorem",
        "§5",
        "Ω(n² / log³ n) rounds for (3/4 + ε)-approximate MaxIS",
        (
            _api("repro.framework.RoundLowerBound"),
            _bench("theorem2_quadratic_gap"),
            _bench("theorem2_all_claims"),
            _bench("theorem2_round_bound"),
        ),
    ),
    PaperStatement(
        "Theorem 3",
        "theorem",
        "§2",
        "Promise pairwise disjointness needs Ω(k / t log t) bits",
        (
            _api("repro.commcc.pairwise_disjointness_cc_lower_bound"),
            _bench("theorem3_cc_protocols"),
        ),
    ),
    PaperStatement(
        "Theorem 4",
        "theorem",
        "§2",
        "Code mappings with distance d = M − L exist (Reed–Solomon)",
        (
            _api("repro.codes.ReedSolomonCode"),
            _bench("theorem4_codes"),
        ),
    ),
    PaperStatement(
        "Theorem 5",
        "theorem",
        "§3",
        "A T-round CONGEST algorithm yields a 2T·|cut|·B-bit protocol",
        (
            _api("repro.framework.simulate_congest_via_players"),
            _bench("theorem5_simulation"),
        ),
    ),
    PaperStatement(
        "Property 1",
        "property",
        "§4.1",
        "Each Code_m extends to an independent set across copies",
        (
            _verifier("verify_property1", manifest="properties_1_2_3"),
            _api("repro.gadgets.check_property1"),
        ),
    ),
    PaperStatement(
        "Property 2",
        "property",
        "§4.1",
        "Distinct-index code sets are joined by a matching of size ≥ l",
        (
            _verifier("verify_property2", manifest="properties_1_2_3"),
            _api("repro.gadgets.property2_matching_size"),
        ),
    ),
    PaperStatement(
        "Property 3",
        "property",
        "§4.1",
        "An independent set shares ≤ α positions across two code sets",
        (
            _verifier("verify_property3", manifest="properties_1_2_3"),
            _api("repro.gadgets.property3_overlap_count"),
        ),
    ),
    PaperStatement(
        "Claim 1",
        "claim",
        "§4.2",
        "t = 2, intersecting inputs: an IS of weight 4l + 2α exists",
        (_verifier("verify_claim1", manifest="theorem1_all_claims"),),
    ),
    PaperStatement(
        "Claim 2",
        "claim",
        "§4.2",
        "t = 2, disjoint inputs: OPT ≤ 3l + 2α + 1",
        (_verifier("verify_claim2", manifest="theorem1_all_claims"),),
    ),
    PaperStatement(
        "Claim 3",
        "claim",
        "§4.3",
        "Intersecting inputs: an IS of weight t(2l + α) exists",
        (_verifier("verify_claim3", manifest="theorem1_all_claims"),),
    ),
    PaperStatement(
        "Claim 4",
        "claim",
        "§4.3",
        "Chosen v-nodes confine the IS to ≤ l + αt² code-set weight",
        (_verifier("verify_claim4", manifest="theorem1_all_claims"),),
    ),
    PaperStatement(
        "Claim 5",
        "claim",
        "§4.3",
        "Disjoint inputs: OPT ≤ (t+1)l + αt²",
        (_verifier("verify_claim5", manifest="theorem1_all_claims"),),
    ),
    PaperStatement(
        "Claim 6",
        "claim",
        "§5",
        "Commonly-set pair: an IS of weight t(4l + 2α) exists in F",
        (_verifier("verify_claim6", manifest="theorem2_all_claims"),),
    ),
    PaperStatement(
        "Claim 7",
        "claim",
        "§5",
        "Disjoint inputs: OPT(F) ≤ 3(t+1)l + 3αt³",
        (
            _verifier("verify_claim7", manifest="theorem2_all_claims"),
            _bench("claim7_case_analysis"),
        ),
    ),
    PaperStatement(
        "Lemma 1",
        "lemma",
        "§4.2",
        "The t = 2 gadget separates thresholds with ratio → 3/4",
        (
            _api("repro.gadgets.LinearMaxISFamily", manifest="lemma1_two_party_gap"),
            _bench("lemma1_two_party_gap"),
        ),
    ),
    PaperStatement(
        "Remark 1",
        "remark",
        "§4.4",
        "Weighted constructions convert to unweighted families",
        (
            _api("repro.gadgets.UnweightedExpansion", manifest="remark1_unweighted"),
            _bench("remark1_families"),
            _bench("remark1_unweighted"),
        ),
    ),
    PaperStatement(
        "Figure 1",
        "figure",
        "§4.1",
        "The base graph H with its code gadget",
        (_bench("fig1_base_graph"),),
    ),
    PaperStatement(
        "Figure 2",
        "figure",
        "§4.1",
        "t copies of H with inter-copy wiring",
        (_bench("fig2_intercopy_wiring"),),
    ),
    PaperStatement(
        "Figure 3",
        "figure",
        "§4.1",
        "Property 1 witness on three players",
        (_bench("fig3_three_player_property1"),),
    ),
    PaperStatement(
        "Figure 4",
        "figure",
        "§5",
        "The quadratic construction's first copy V₁",
        (_bench("fig4_quadratic_v1"),),
    ),
    PaperStatement(
        "Figure 5",
        "figure",
        "§5",
        "The full two-copy construction F",
        (_bench("fig5_full_construction_f"),),
    ),
    PaperStatement(
        "Figure 6",
        "figure",
        "§5",
        "Input edges from k²-bit strings (edge iff bit = 0)",
        (_bench("fig6_input_edges"),),
    ),
)


def all_statements() -> Tuple[PaperStatement, ...]:
    """Every registered paper statement, in order of appearance."""
    return STATEMENTS


def statement_ids() -> List[str]:
    """The canonical statement ids, in registry order."""
    return [statement.statement_id for statement in STATEMENTS]


def get_statement(statement_id: str) -> PaperStatement:
    """Look one statement up by id (``KeyError`` if unknown)."""
    for statement in STATEMENTS:
        if statement.statement_id == statement_id:
            return statement
    raise KeyError(
        f"unknown paper statement {statement_id!r}; known: {statement_ids()}"
    )


def unmapped_statements() -> List[str]:
    """Statement ids with zero executable checks (must stay empty)."""
    return [s.statement_id for s in STATEMENTS if not s.checks]


def validate() -> List[str]:
    """Cross-check the registry against the ``@verifies`` annotations.

    Returns a list of human-readable problems (empty when consistent):
    duplicate statement ids, unmapped statements, annotated verifiers
    citing unknown statements, verifiers missing from the rows of the
    statements they declare, and Property/Claim rows with no annotated
    verifier behind them.
    """
    from ..core.claims import claim_verifiers

    problems: List[str] = []
    ids = statement_ids()
    if len(set(ids)) != len(ids):
        dupes = sorted({sid for sid in ids if ids.count(sid) > 1})
        problems.append(f"duplicate statement ids: {dupes}")
    for sid in unmapped_statements():
        problems.append(f"{sid} has no executable checks")

    registered: Dict[str, List[str]] = {}
    for statement in STATEMENTS:
        for check in statement.checks:
            if check.kind == "verifier":
                name = check.ref.rsplit(".", 1)[-1]
                registered.setdefault(name, []).append(statement.statement_id)

    annotations = claim_verifiers()
    known = set(ids)
    for verifier, declared in sorted(annotations.items()):
        for sid in declared:
            if sid not in known:
                problems.append(
                    f"verifier {verifier} declares unknown statement {sid!r}"
                )
            elif sid not in registered.get(verifier, []):
                problems.append(
                    f"verifier {verifier} declares {sid!r} but the registry "
                    f"row for {sid!r} does not cite it"
                )
    for verifier, cited in sorted(registered.items()):
        if verifier not in annotations:
            problems.append(
                f"registry cites verifier {verifier} which carries no "
                f"@verifies annotation"
            )
            continue
        for sid in cited:
            if sid not in annotations[verifier]:
                problems.append(
                    f"registry maps {sid!r} to {verifier} but the verifier "
                    f"does not declare it"
                )
    for statement in STATEMENTS:
        if statement.kind in ("property", "claim") and not any(
            check.kind == "verifier" for check in statement.checks
        ):
            problems.append(
                f"{statement.statement_id} is a {statement.kind} with no "
                f"core.claims verifier"
            )
    return problems
