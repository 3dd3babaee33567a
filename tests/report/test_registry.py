"""Tests for the paper-statement registry behind the coverage matrix."""

import re
from fractions import Fraction

import pytest

from repro.gadgets import GadgetParameters
from repro.report import registry


class TestShape:
    def test_twenty_three_statements(self):
        # Theorems 1-5, Properties 1-3, Claims 1-7, Lemma 1, Remark 1,
        # Figures 1-6.
        assert len(registry.all_statements()) == 23

    def test_every_statement_of_the_paper_is_present(self):
        ids = set(registry.statement_ids())
        expected = (
            {f"Theorem {i}" for i in range(1, 6)}
            | {f"Property {i}" for i in range(1, 4)}
            | {f"Claim {i}" for i in range(1, 8)}
            | {"Lemma 1", "Remark 1"}
            | {f"Figure {i}" for i in range(1, 7)}
        )
        assert ids == expected

    def test_ids_are_unique(self):
        ids = registry.statement_ids()
        assert len(set(ids)) == len(ids)

    def test_get_statement_round_trip(self):
        for sid in registry.statement_ids():
            assert registry.get_statement(sid).statement_id == sid

    def test_get_statement_unknown_raises(self):
        with pytest.raises(KeyError):
            registry.get_statement("Theorem 99")


class TestCoverageInvariant:
    def test_no_statement_is_unmapped(self):
        assert registry.unmapped_statements() == []

    def test_every_statement_has_an_executable_check(self):
        for statement in registry.all_statements():
            assert statement.checks, statement.statement_id

    def test_every_statement_cites_a_manifest(self):
        # Every row must be verifiable from published run manifests.
        for statement in registry.all_statements():
            assert statement.manifest_names(), statement.statement_id

    def test_registry_is_consistent_with_verifier_annotations(self):
        assert registry.validate() == []

    def test_every_annotated_verifier_appears_in_the_registry(self):
        from repro.core.claims import claim_verifiers

        cited = set()
        for statement in registry.all_statements():
            for check in statement.checks:
                if check.kind == "verifier":
                    cited.add(check.ref.rsplit(".", 1)[-1])
        assert set(claim_verifiers()) == cited

    def test_verifier_refs_resolve_to_real_functions(self):
        import repro.core.claims as claims

        for statement in registry.all_statements():
            for check in statement.checks:
                if check.kind == "verifier":
                    name = check.ref.rsplit(".", 1)[-1]
                    fn = getattr(claims, name)
                    assert statement.statement_id in fn.paper_statements


class TestCheckRef:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            registry.CheckRef("vibe", "repro.core.claims.verify_claim1")

    def test_bench_checks_carry_their_manifest(self):
        for statement in registry.all_statements():
            for check in statement.checks:
                if check.kind == "bench":
                    assert check.manifest == check.ref


class TestRatioSummaries:
    """Every ratio a summary states is the limit of ``gadgets/parameters.py``.

    The threshold ratios tend to their limits as ``ell`` grows past
    ``alpha * t`` and, for the theorems, as ``t`` grows; at the sizes
    below they are within 1e-3 of it.
    """

    RATIO = re.compile(r"(?:\(|→ )(\d+)/(\d+)")

    LIMITS = {
        "Theorem 1": (
            GadgetParameters(ell=10**12, alpha=1, t=10**4),
            GadgetParameters.linear_gap_ratio,
        ),
        "Theorem 2": (
            GadgetParameters(ell=10**16, alpha=1, t=10**4),
            GadgetParameters.quadratic_gap_ratio,
        ),
        "Lemma 1": (
            GadgetParameters(ell=10**12, alpha=1, t=2),
            lambda p: p.two_party_low_threshold() / p.linear_high_threshold(),
        ),
    }

    def _stated(self, statement):
        return [
            Fraction(int(num), int(den))
            for num, den in self.RATIO.findall(statement.title)
        ]

    def test_exactly_these_summaries_state_a_ratio(self):
        stating = {
            statement.statement_id
            for statement in registry.all_statements()
            if self._stated(statement)
        }
        assert stating == set(self.LIMITS)

    @pytest.mark.parametrize("statement_id", sorted(LIMITS))
    def test_stated_ratio_is_the_formulas_limit(self, statement_id):
        (stated,) = self._stated(registry.get_statement(statement_id))
        params, ratio = self.LIMITS[statement_id]
        assert ratio(params) == pytest.approx(float(stated), abs=1e-3)
