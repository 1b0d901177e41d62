import tracemalloc
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substochastic import (
    CyrStructural,
    DivergingSeries,
    FamilyFacts,
    MetadataError,
    PruittVector,
    Tag,
    TruncationFamily,
    WeightedDigraph,
    classify_recurrence,
    cyr_criterion,
    min_cycle_transversal,
    green_partial_sums,
    perron_root,
    truncate,
    verify_pruitt,
)
from substochastic import classify, families
from substochastic.constructions import (
    a_power,
    build_example1,
    build_example2,
    build_prop1,
    f_geometric,
    f_power,
    family_from_config,
)
from substochastic.spectral import EdgeOperator, solve_shifted

from conftest import dense_matrix, loop, seeded_digraph, two_cycle


def half_loop_family() -> TruncationFamily:
    return TruncationFamily(
        "half-loop",
        lambda n: WeightedDigraph(n, {(0, 0): F(1, 2)}),
        FamilyFacts(spectral_limit=F(1, 2), return_vertex=0),
    )


class TestPruittCertificate:
    """The all-ones vector and the resolvent vector (lam I - A)^{-1} 1, checked by ``verify_pruitt``.

    ``solve_shifted(d, 1, 1/lam)`` is lam times the resolvent vector, and a
    positive multiple certifies exactly when the vector does.
    """

    def test_truthly_substochastic_all_ones(self):
        d = truncate(build_example1(f=f_geometric()), 6)
        ok, strict = verify_pruitt(d, [F(1)] * 6, 1)
        assert ok and d.out_weight(strict) < 1

    def test_stochastic_irreducible_has_none_at_one(self):
        # xi = (x, y) needs y <= x and x <= y with one strict: infeasible
        d = two_cycle(F(1), F(1))
        assert verify_pruitt(d, [F(1)] * 2, 1) == (False, None)
        with pytest.raises(ZeroDivisionError):  # I - A is singular
            solve_shifted(d, [1, 1])

    def test_loop_at_its_own_radius_has_none(self):
        assert verify_pruitt(loop(F(7, 10)), [F(1)], F(7, 10)) == (False, None)
        with pytest.raises(ZeroDivisionError):
            solve_shifted(loop(F(7, 10)), [1], F(10, 7))

    def test_nonpositive_vector_rejected(self):
        assert verify_pruitt(loop(), [0], 1) == (False, None)

    def test_zero_entry_rejected_though_a_row_is_strict(self):
        # row 0 is strict (1/2 < 1) and the arc-free row 1 holds as 0 <= 0, so
        # only the positivity test rejects the vector
        d = WeightedDigraph(2, {(0, 0): F(1, 2)})
        assert verify_pruitt(d, [F(1), F(0)], 1) == (False, None)

    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_above_radius_certificate_exists_and_verifies_exactly(self, seed):
        d = seeded_digraph(seed, order_max=6, weighting="stochastic")
        lam = F(3, 2)  # strictly above any substochastic radius
        xi, _det = solve_shifted(d, [1] * d.order, 1 / lam)
        ok, strict = verify_pruitt(d, xi, lam)
        assert ok and strict is not None
        assert all(x > 0 for x in xi)


class TestCyrCriterion:
    def test_example1_facts_false(self):
        assert cyr_criterion(build_example1(f=f_geometric()).facts) is False

    def test_example2_facts_true(self):
        assert cyr_criterion(build_example2(a_power(-0.75)).facts) is True

    def test_infinite_transversal_false(self):
        import math

        assert cyr_criterion(FamilyFacts(sct_size=math.inf, l_max=2)) is False

    def test_undeclared_raises(self):
        with pytest.raises(MetadataError):
            cyr_criterion(FamilyFacts())
        with pytest.raises(MetadataError):
            cyr_criterion(FamilyFacts(transversal=frozenset({0})))


class TestGreenSums:
    def test_half_loop_partial_sums_count_steps(self):
        d = WeightedDigraph(1, {(0, 0): F(1, 2)}).to_float()
        sums = green_partial_sums(d, 0, 0.5, 50)
        assert np.allclose(sums, np.arange(1, 52))

    def test_monotone_in_p_and_n(self):
        fam = build_example1(f=f_geometric())
        prev = None
        for n in (4, 8, 16):
            sums = green_partial_sums(truncate(fam, n).to_float(), 0, 1.0, 80)
            assert all(np.diff(sums) >= -1e-15)
            if prev is not None:
                assert all(sums >= prev - 1e-12)
            prev = sums


def dense_green_partial_sums(d: WeightedDigraph, v: int, lam: float, p_max: int) -> np.ndarray:
    """The Green partial sums as computed before the edge operator: dense A^T matvecs."""
    a = dense_matrix(d).T
    x = np.zeros(d.order)
    x[v] = 1.0
    sums = np.empty(p_max + 1)
    sums[0] = 1.0
    for p in range(1, p_max + 1):
        x = (a @ x) / lam
        sums[p] = sums[p - 1] + x[v]
    return sums


class TestGreenSumsOnTheArcArrays:
    @pytest.mark.parametrize(
        "d",
        [
            truncate(build_example1(a=0.5, f=f_power(0.5)), 300),
            truncate(build_example2(a_power(-0.75)), 300).to_float(),
            truncate(build_prop1([1, 2, 3, 4], [F(1, 2), F(2, 3), F(3, 4), F(4, 5)]), 30).to_float(),
        ],
        ids=["example1", "example2", "prop1"],
    )
    def test_matches_the_dense_form(self, d):
        lam = perron_root(d)
        got = green_partial_sums(d, 0, lam, 300)
        want = dense_green_partial_sums(d, 0, lam, 300)
        # nonnegative terms summed in another order
        assert np.allclose(got, want, rtol=d.order * np.finfo(float).eps, atol=0)

    def test_builds_no_dense_matrix_at_n_ten_thousand(self, monkeypatch):
        d = truncate(build_example1(a=0.5, f=f_power(0.5)), 10_000)

        def no_dense(_self):
            raise AssertionError("dense n x n matrix built")

        monkeypatch.setattr(EdgeOperator, "toarray", no_dense)
        tracemalloc.start()
        try:
            sums = green_partial_sums(d, 0, 1.0, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.diff(sums) >= 0)
        assert peak < 8 * 10**6  # a dense matrix would take 800 MB


class TestGrowthAssessment:
    def test_geometric_tail_projection_is_bounded(self):
        # the last decade still adds more than 1e-9 of the total, so only the
        # projected geometric tail of the decade-over-decade ratio decides
        sums = np.cumsum(0.85 ** np.arange(101))
        assert sums[-1] - sums[-11] > 1e-9 * sums[-1]
        assert classify._growth_assessment(sums) == "bounded"


class TestClassifyRecurrence:
    @pytest.mark.parametrize(
        "f, verdict, confidence",
        [(f_geometric(), "recurrent", "numerical"), (f_power(0.5), "unknown", None)],
        ids=["geometric", "power"],
    )
    def test_undeclared_radius_is_estimated_from_the_ladder(self, f, verdict, confidence):
        fam = build_example1(f=f)
        assert fam.facts.spectral_limit is None
        result = classify_recurrence(fam)
        assert (result.verdict, result.confidence) == (verdict, confidence)
        assert result.notes[0].startswith("radius estimated (extrapolated): ")

    def test_estimate_above_the_declared_class_bound_is_flagged(self):
        # Aitken on the ladder at orders 2, 3, 10 overshoots to 1.35587, above
        # the bound 1 of the declared class; the note does not change the verdict
        fam = build_example1(f=f_geometric())
        assert fam.facts.weighting_class.implies(Tag.SUBSTOCHASTIC)
        result = classify_recurrence(fam, n_max=10)
        assert result.verdict == "unknown"
        assert result.notes[:2] == (
            "radius estimated (extrapolated): 1.35587145429",
            "radius estimate 1.35587145429 exceeds 1, the truthly-substochastic class bound",
        )

    def test_estimate_within_the_class_bound_is_not_flagged(self):
        result = classify_recurrence(build_example1(f=f_geometric()), n_max=20)
        assert result.notes == ("radius estimated (extrapolated): 0.891399992937",)

    def test_example2_certified_recurrent_by_structure(self):
        verdict = classify_recurrence(build_example2(a_power(-0.75)))
        assert verdict.verdict == "recurrent"
        assert verdict.confidence == "certified"
        assert verdict.evidence == CyrStructural(1, 2)
        assert verdict.notes == ()

    @pytest.mark.parametrize(
        "wrong, named",
        [({"l_max": 1}, "declared l_max 1"),
         ({"transversal": frozenset({1})}, "declared transversal [1]")],
        ids=["l_max", "transversal"],
    )
    def test_declared_facts_failing_on_the_truncation_are_unknown(self, wrong, named):
        fam = build_example2(a_power(-0.75)).with_facts(**wrong)
        assert cyr_criterion(fam.facts)
        verdict = classify_recurrence(fam, n_max=30)
        assert (verdict.verdict, verdict.evidence, verdict.confidence) == ("unknown", None, None)
        assert len(verdict.notes) == 1
        assert verdict.notes[0].startswith("declared facts fail: n=30: ")
        assert named in verdict.notes[0]

    def test_declared_sct_size_is_checked_on_the_truncation(self):
        # disjoint 2-cycles (0, 1), (2, 3), ...: the order-40 truncation needs 20 vertices
        pairs = TruncationFamily(
            "pairs",
            lambda n: WeightedDigraph(n, {(u, u ^ 1): F(1, 2) for u in range(n - n % 2)}),
            FamilyFacts(sct_size=1, l_max=2),
        )
        assert min_cycle_transversal(truncate(pairs, 40)).size == 20
        verdict = classify_recurrence(pairs, n_max=40)
        assert (verdict.verdict, verdict.evidence, verdict.confidence) == ("unknown", None, None)
        assert verdict.notes == (
            "declared facts fail: n=40: 2 vertex-disjoint cycles exceed declared sct_size 1",)

    def test_declared_transversal_smaller_than_sct_size_is_unknown(self):
        fam = build_example2(a_power(-0.75)).with_facts(sct_size=2)
        verdict = classify_recurrence(fam, n_max=30)
        assert (verdict.verdict, verdict.evidence, verdict.confidence) == ("unknown", None, None)
        assert verdict.notes == ("declared facts fail: declared transversal [0] "
                                 "has fewer vertices than declared sct_size 2",)

    def test_unsettled_longest_cycle_is_unknown(self, monkeypatch):
        # the search runs out of cycles before it settles l_max = 2: no certificate
        monkeypatch.setattr(families, "L_MAX_BUDGET", 5)
        verdict = classify_recurrence(build_example2(a_power(-0.75)), n_max=30)
        assert (verdict.verdict, verdict.evidence, verdict.confidence) == ("unknown", None, None)
        assert verdict.notes == (
            "declared facts fail: n=30: declared l_max 2 unsettled after 5 cycles",)

    def test_half_loop_recurrent_by_divergence(self):
        verdict = classify_recurrence(half_loop_family(), n_max=12, p_max=1000)
        assert verdict.verdict == "recurrent"
        assert verdict.confidence == "numerical"
        assert isinstance(verdict.evidence, DivergingSeries)
        # the scaled powers are exactly 1, so the sums grow exactly linearly
        sums = verdict.evidence.partial_sums
        assert sums[-1] == pytest.approx(1001.0)

    def test_prop1_unit_radius_transient_certified(self):
        fam = build_prop1(lambda k: 1, lambda k: 1 - F(1, 2**k), declared_lambda=1)
        verdict = classify_recurrence(fam, n_max=40, p_max=2000)
        assert verdict.verdict == "transient"
        assert verdict.confidence == "certified"
        assert isinstance(verdict.evidence, PruittVector)
        assert verdict.evidence.xi == "ones"

    def test_never_transient_when_structure_says_empty(self):
        # metadata satisfying the structural criterion short-circuits
        fam = build_example2(a_power(-0.75))
        assert classify_recurrence(fam).verdict == "recurrent"

    def test_negative_vertex_rejected(self):
        # -1 would silently read the last vertex of each truncation
        fam = build_example1(F(1, 2), f_power(0.5))
        with pytest.raises(ValueError, match="out of range"):
            classify_recurrence(fam, n_max=20, p_max=100, vertex=-1)

    @pytest.mark.parametrize("p_max", [0, -5])
    def test_p_max_below_one_rejected(self, p_max):
        # 0 indexed past a one-term series and -5 reached numpy's negative shape
        fam = build_example1(F(1, 2), f_geometric())
        with pytest.raises(ValueError, match="p_max must be >= 1"):
            classify_recurrence(fam, n_max=30, p_max=p_max)

    def test_one_truncation_and_one_green_sum_run(self):
        fam = family_from_config("corollary1")
        with mock.patch.object(classify, "truncate", wraps=classify.truncate) as cuts, \
             mock.patch.object(classify, "green_partial_sums",
                               wraps=classify.green_partial_sums) as runs:
            verdict = classify_recurrence(fam, n_max=40)
        assert verdict.verdict == "transient"
        assert (cuts.call_count, runs.call_count) == (1, 1)

    def test_radius_at_most_zero_is_unknown_before_any_green_sum(self):
        fam = build_prop1([2, 3], [F(1, 3), F(1, 3)], declared_lambda=0)
        with mock.patch.object(classify, "green_partial_sums") as runs:
            verdict = classify_recurrence(fam, n_max=20, p_max=100)
        assert (verdict.verdict, verdict.evidence, verdict.confidence) == ("unknown", None, None)
        assert verdict.notes == ("structural facts incomplete: maximum cycle length not declared",
                                 "radius estimate <= 0")
        assert runs.call_count == 0

    def test_fewer_than_twenty_green_terms_are_inconclusive(self):
        # the half loop's sums 1, 2, 3, ... diverge from 20 powers on; 19 settle nothing
        assert classify_recurrence(half_loop_family(), n_max=12, p_max=20).verdict == "recurrent"
        verdict = classify_recurrence(half_loop_family(), n_max=12, p_max=19)
        assert (verdict.verdict, verdict.evidence, verdict.confidence) == ("unknown", None, None)
        assert verdict.notes == (
            "structural facts incomplete: cycle-transversal size not declared",)

    def test_unknown_without_certificate(self):
        # bounded sums but no declared presentation class: stays unknown
        fam = TruncationFamily(
            "anon-loop",
            lambda n: WeightedDigraph(n, {(0, 0): F(1, 2)}),
            FamilyFacts(spectral_limit=F(1), return_vertex=0),
        )
        verdict = classify_recurrence(fam, n_max=10, p_max=500)
        assert verdict.verdict == "unknown"

    def test_all_ones_is_checked_at_the_declared_radius(self):
        # the Green sums are bounded at 1, and the all-ones vector passes at 2 but
        # not at 1 (row 1 sums to 3/2): the declaration is false, so no verdict
        fam = TruncationFamily(
            "false-ones",
            lambda n: WeightedDigraph(n, {(u, u + 1): w for u, w in ((0, F(1, 2)), (1, F(3, 2)))
                                          if u + 1 < n}),
            FamilyFacts(weighting_class=Tag.TRUTHLY_SUBSTOCHASTIC, spectral_limit=1,
                        return_vertex=0),
        )
        d = truncate(fam, 10)
        assert verify_pruitt(d, [F(1)] * 10, 1) == (False, None)
        assert verify_pruitt(d, [F(1)] * 10, 2)[0]
        verdict = classify_recurrence(fam, n_max=10, p_max=100)
        assert (verdict.verdict, verdict.evidence, verdict.confidence) == ("unknown", None, None)
        assert verdict.notes[-1] == "declared all-ones certificate failed re-verification"
