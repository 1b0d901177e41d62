import hashlib
import itertools
import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substochastic import (
    BudgetExceededError,
    Tag,
    WeightedDigraph,
    charpoly,
    check_boyle_handelman,
    check_diag_transversal_bound,
    check_ksv,
    check_sigma_bound,
    check_trace_bounds,
    check_transversal_product,
    check_zeta_identity,
    classify_weighting,
    det_i_minus,
    min_cycle_transversal,
    perron_bounds,
    random_strong_digraph,
    resolvent_diagonal,
    run_suite,
    scan_argmax_conjecture,
    truncate,
)
from substochastic import cycles, inequalities, spectral
from substochastic.cycles import TransversalResult
from substochastic.constructions import build_example1, f_geometric
from substochastic.inequalities import SUITES, InequalityReport, fingerprint, instance_stream

from conftest import (
    acyclic3,
    brute_cycles,
    brute_reachable,
    k3,
    loop,
    oracle_scan_argmax_conjecture,
    seeded_digraph,
    triangle,
    two_cycle,
)

import random


class TestRandomGenerator:
    def test_deterministic_stream(self):
        a = [d.to_json() for _, d in instance_stream(5, 8, 6)]
        b = [d.to_json() for _, d in instance_stream(5, 8, 6)]
        assert a == b

    def test_strong_and_exact(self):
        for _, d in instance_stream(9, 15, 7):
            assert brute_reachable(d)
            assert d.is_exact

    def test_weighting_classes_as_requested(self):
        rng = random.Random(3)
        truthly = random_strong_digraph(rng, 6, weighting="truthly")
        assert classify_weighting(truthly).tag.implies(Tag.TRUTHLY_SUBSTOCHASTIC)
        strictly = random_strong_digraph(rng, 6, weighting="strictly")
        assert classify_weighting(strictly).tag is Tag.STRICTLY_SUBSTOCHASTIC
        stoch = random_strong_digraph(rng, 6, weighting="stochastic")
        assert classify_weighting(stoch).tag is Tag.STOCHASTIC

    # every arc and weight in insertion order: the seeded stream that the
    # verify suites and the benchmark pool draw from must not change
    STREAM_DIGESTS = {
        0: "9640b40843a986feaeddbbd6085f6dbd3be22c432e9ab311270aa488c32d60c4",
        1: "9388538d6bb7e73b7e48c875df943aa87578c8340babede02f67dc01ca1ea93c",
    }

    @pytest.mark.parametrize("seed", sorted(STREAM_DIGESTS))
    def test_stream_is_pinned(self, seed):
        h = hashlib.sha256()
        for _, d in instance_stream(seed, 200, 12):
            h.update(repr((d.order, list(d.arcs.items()))).encode())
        assert h.hexdigest() == self.STREAM_DIGESTS[seed]


class TestBoyleHandelman:
    def test_loop_equality(self):
        # det = 0.3, r = 1, 1 - 0.7 = 0.3
        rep = check_boyle_handelman(loop(F(7, 10)))
        assert rep.ok and rep.min_margin == 0

    def test_symmetric_two_cycle_equality(self):
        # det = 3/4, r = 2, spectrum {1/2, -1/2}: 1 - (1/2)^2 = 3/4
        d = two_cycle(F(1, 2), F(1, 2))
        assert det_i_minus(d) == F(3, 4)
        assert len(charpoly(d)) - 1 == 2
        rep = check_boyle_handelman(d)
        assert rep.ok and rep.min_margin == 0

    def test_hundred_truthly_instances_no_violation(self):
        rep = run_suite("boyle-handelman", count=100, seed=11, order_max=6)
        assert rep.ok
        assert rep.instances_tested == 100


class TestKsv:
    def test_loop_chain_tight(self):
        rep = check_ksv(loop(F(7, 10)))
        assert rep.ok and rep.min_margin == 0

    def test_acyclic_order3(self):
        # det = 1, radius = 0: 1 <= 1 <= 3
        rep = check_ksv(acyclic3())
        assert rep.ok and rep.min_margin == 0

    def test_random_suite(self):
        rep = run_suite("ksv", count=60, seed=13, order_max=8)
        assert rep.ok


@pytest.mark.parametrize("d", [two_cycle(F(1, 2), F(1, 3)), triangle(F(1, 2), F(1, 3), F(1, 5))],
                         ids=["two-cycle", "triangle"])
@pytest.mark.parametrize("check, sym", [(check_ksv, "n"), (check_boyle_handelman, "r")],
                         ids=["ksv", "boyle-handelman"])
def test_single_cycle_is_an_equality_within_the_bracket(d, check, sym):
    # one r-cycle of weight w: det(I - A) = 1 - w = 1 - radius^r exactly, and
    # radius = w^(1/r) is irrational, so the bracket cannot separate the two
    rep = check(d)
    assert rep.notes == [f"{fingerprint(d)}: det = 1-radius^{sym} within bracket width"]
    assert rep.ok and rep.min_margin == 0 and isinstance(rep.min_margin, F)


class TestEmptyDigraph:
    """Order 0: det(I - A) = 1 and the exponent is 0 for both chains."""

    def test_ksv_takes_the_degree_zero_branch(self):
        rep = check_ksv(WeightedDigraph(0, {}))
        assert rep.ok and rep.min_margin == 0
        assert rep.notes == []

    def test_boyle_handelman_matches_ksv(self):
        empty = WeightedDigraph(0, {})
        bh, ksv = check_boyle_handelman(empty), check_ksv(empty)
        assert bh.ok and ksv.ok
        assert bh.min_margin == ksv.min_margin == 0


class TestTraceBounds:
    def test_single_vertex_no_arcs_all_equal(self):
        d = WeightedDigraph(1, {})
        rep = check_trace_bounds(d)
        assert rep.ok and rep.min_margin == 0

    def test_loop_all_three_coincide(self):
        rep = check_trace_bounds(loop(F(7, 10)))
        assert rep.ok
        assert resolvent_diagonal(loop(F(7, 10)))[0] == F(10, 3)

    def test_random_suite_margins_reported(self):
        rep = run_suite("lemma-a1", count=60, seed=17, order_max=9)
        assert rep.ok
        assert rep.min_margin is not None and rep.min_margin >= 0


class TestDiagTransversalBound:
    def test_singleton_member_equality(self):
        d = loop(F(7, 10))
        rep = check_diag_transversal_bound(d, frozenset({0}))
        assert rep.ok and rep.min_margin == 0

    def test_example1_truncation_hub_dominates(self):
        fam = build_example1(f=f_geometric())
        d = truncate(fam, 5)
        diag = resolvent_diagonal(d)
        assert max(diag) == diag[0]
        rep = check_diag_transversal_bound(d, frozenset({0}))
        assert rep.ok

    def test_unverified_transversal_rejected(self):
        with pytest.raises(ValueError):
            check_diag_transversal_bound(loop(F(1, 2)), frozenset())

    def test_random_suite(self):
        rep = run_suite("lemma-a2", count=60, seed=19, order_max=9)
        assert rep.ok


class TestTransversalProduct:
    def test_single_vertex_whole_set_equality(self):
        rep = check_transversal_product(loop(F(7, 10)), frozenset({0}))
        assert rep.ok and rep.min_margin == 0

    def test_example1_cramer_telescopes_exactly(self):
        # removing the hub leaves an acyclic digraph, so 1/det == G(0,0)
        fam = build_example1(f=f_geometric())
        d = truncate(fam, 4)
        assert 1 / det_i_minus(d) == resolvent_diagonal(d)[0]
        rep = check_transversal_product(d, frozenset({0}))
        assert rep.ok and rep.min_margin == 0

    def test_random_suite(self):
        rep = run_suite("a1-product", count=60, seed=23, order_max=9)
        assert rep.ok


class TestSigmaBound:
    def test_k1_follows_from_diag_bound(self):
        fam = build_example1(f=f_geometric())
        d = truncate(fam, 5)
        rep = check_sigma_bound(d, frozenset({0}), 1)
        assert rep.ok

    def test_k_equal_h_reproduces_product_bound(self):
        d = seeded_digraph(41, order_max=6)
        w = min_cycle_transversal(d)
        rep_sigma = check_sigma_bound(d, w, w.size)
        rep_prod = check_transversal_product(d, w)
        assert rep_sigma.ok == rep_prod.ok

    def test_out_of_range_k(self):
        with pytest.raises(ValueError):
            check_sigma_bound(loop(F(1, 2)), frozenset({0}), 2)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("seed", range(6))
    def test_sigma_k_is_the_sum_over_k_subsets(self, seed, mode):
        d = seeded_digraph(seed, order_max=8)
        d = d if mode == "exact" else d.to_float()
        w = sorted(min_cycle_transversal(d).vertices)
        diag = resolvent_diagonal(d)
        for k in range(1, len(w) + 1):
            rep = check_sigma_bound(d, w, k)
            want = sum(math.prod(diag[x] for x in sub) for sub in itertools.combinations(w, k))
            sigma = rep.min_margin + max(diag)  # the margin is sigma_k - max G(v, v)
            assert type(rep.min_margin) is type(diag[0])
            assert sigma == want if mode == "exact" else sigma == pytest.approx(want, rel=1e-12)

    def test_random_suite_all_k(self):
        rep = run_suite("sigma-k", count=50, seed=29, order_max=9)
        assert rep.ok

    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_suite_with_k_checks_sigma_min_k_w(self, k):
        rep = run_suite("sigma-k", count=20, seed=29, order_max=9, sigma_k=k)
        expected = InequalityReport("sigma-k")
        sizes = set()
        for _i, d in instance_stream(29, 20, 9):
            w = min_cycle_transversal(d)
            sizes.add(w.size)
            expected.absorb(check_sigma_bound(d, w, min(k, w.size)))
        assert min(sizes) < 2 < max(sizes)  # min(k, |W|) clips on some instances only
        assert rep.instances_tested == 20
        assert (rep.violations, rep.min_margin, rep.notes) == (
            expected.violations, expected.min_margin, expected.notes)

    @pytest.mark.parametrize("suite", [s for s in SUITES if s != "sigma-k"])
    def test_k_rejected_for_the_other_suites(self, suite):
        with pytest.raises(ValueError, match="sigma-k suite only"):
            run_suite(suite, count=1, sigma_k=2)


class TestZetaIdentity:
    def test_acyclic_both_sides_one(self):
        rep = check_zeta_identity(acyclic3(), 0, [F(1, 3), F(2)])
        assert rep.ok and rep.min_margin == 0

    def test_loop_minor_is_empty_determinant(self):
        rep = check_zeta_identity(loop(F(1, 2)), 0, [F(1, 3), F(1, 2), F(2)])
        assert rep.ok and rep.min_margin == 0

    def test_singular_sample_skipped_with_note(self):
        rep = check_zeta_identity(loop(F(1, 2)), 0, [F(2)])
        assert rep.ok  # z = 2 makes I - zS singular for weight 1/2
        assert any("singular" in n for n in rep.notes)

    def test_one_full_elimination_per_sample(self):
        # the solve gives det(I - zS) too; only the minor takes its own determinant
        d = seeded_digraph(4, order_max=6)
        with mock.patch.object(spectral, "solve_exact", wraps=spectral.solve_exact) as solves, \
             mock.patch.object(spectral, "det_exact", wraps=spectral.det_exact) as dets:
            rep = check_zeta_identity(d, 0, [F(1, 3), F(1, 2)])
        assert rep.ok and not rep.notes
        assert solves.call_count == 2 and dets.call_count == 2
        assert all(len(call.args[0]) == d.order - 1 for call in dets.call_args_list)

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_random_exact_equality(self, seed):
        d = seeded_digraph(seed, order_max=6)
        rep = check_zeta_identity(d, seed % d.order, [F(1, 3), F(1, 2), F(2)])
        assert rep.ok

    def test_float_mode_rejected(self):
        with pytest.raises(TypeError):
            check_zeta_identity(loop(0.5), 0, [F(1, 2)])

    @pytest.mark.parametrize("v", [-1, 3], ids=["negative", "order"])
    def test_vertex_out_of_range_rejected(self, v):
        # -1 would remove no row from the minor and report a false violation;
        # 3 is past the last row
        with pytest.raises(ValueError, match="out of range"):
            check_zeta_identity(acyclic3(), v, [F(1, 3)])


class TestChainConsistency:
    @given(st.integers(0, 150))
    @settings(max_examples=40, deadline=None)
    def test_bh_refines_ksv(self, seed):
        # det <= 1 - rho^r <= 1 - rho^n <= n (1 - rho), evaluated at the
        # certified upper bracket
        d = seeded_digraph(seed, order_max=6)
        det = det_i_minus(d)
        r = len(charpoly(d)) - 1
        n = d.order
        _, hi = perron_bounds(d)
        assert det <= 1 - hi**r + F(1, 10**15)
        assert 1 - hi**r <= 1 - hi**n
        assert 1 - hi**n <= n * (1 - hi)

    @given(st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_full_chain_with_known_transversal(self, seed):
        d = seeded_digraph(seed, order_max=6)
        w = min_cycle_transversal(d)
        cycles = brute_cycles(d)
        if not cycles:
            return
        l_max = max(map(len, cycles))
        diag = resolvent_diagonal(d)
        det = det_i_minus(d)
        prod = F(1)
        for x in w.vertices:
            prod *= diag[x]
        _, hi = perron_bounds(d)
        assert 1 / prod <= det
        assert det <= w.size * l_max * (1 - hi) + F(1, 10**12)


class TestConjectureScan:
    def test_example1_hub_attains_max(self):
        fam = build_example1(f=f_geometric())
        rec = scan_argmax_conjecture(truncate(fam, 5))
        assert rec.argmax == (0,)
        assert not rec.counterexamples

    def test_single_vertex_trivially_true(self):
        rec = scan_argmax_conjecture(loop(F(1, 2)))
        assert not rec.counterexamples

    def test_findings_are_reported_not_raised(self):
        rep = run_suite("conjecture", count=30, seed=7, order_max=8)
        assert rep.ok  # proved lemmas never violated
        # counterexamples, if any, land in findings with full data
        for f in rep.findings:
            assert f["counterexamples"]

    # The pruned transversal search against the subset loop it replaced: the
    # whole record, so argmax, the count and the order of counterexamples.

    def test_matches_the_subset_oracle_on_the_certify_pool(self):
        for _i, d in instance_stream(7919, 1000, 12):
            assert scan_argmax_conjecture(d) == oracle_scan_argmax_conjecture(d)

    @given(st.integers(0, 10**6), st.integers(2, 12), st.sampled_from(["exact", "float"]))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_subset_oracle_on_the_stream(self, seed, order_max, mode):
        [(_i, d)] = instance_stream(seed, 1, order_max, mode=mode)
        assert scan_argmax_conjecture(d) == oracle_scan_argmax_conjecture(d)

    @pytest.mark.parametrize("order", range(6, 15))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_subset_oracle_on_sparse_digraphs(self, order, seed):
        d = random_strong_digraph(random.Random(f"sparse-scan:{seed}"), order, arc_prob=2.5 / order)
        assert scan_argmax_conjecture(d) == oracle_scan_argmax_conjecture(d)

    @pytest.mark.parametrize("d, argmax, checked, counterexamples", [
        (loop(F(1, 2)), (0,), 1, []),
        # every vertex looped: W = V is the one transversal
        (WeightedDigraph(3, {(0, 0): F(1, 2), (1, 1): F(1, 4), (2, 2): F(1, 4),
                             (0, 1): F(1, 4), (1, 2): F(1, 4), (2, 0): F(1, 4)}), (0,), 1, []),
        # acyclic: the empty set is a transversal, and it avoids the argmax
        (acyclic3(), (0, 1, 2), 4, [()]),
        # every vertex in the argmax: no transversal can avoid it
        (k3(), (0, 1, 2), 4, []),
    ], ids=["loop", "all-looped", "acyclic", "all-argmax"])
    def test_edge_cases_match_the_subset_oracle(self, d, argmax, checked, counterexamples):
        rec = scan_argmax_conjecture(d)
        assert (rec.argmax, rec.transversals_checked, rec.counterexamples) == (
            argmax, checked, counterexamples)
        assert rec == oracle_scan_argmax_conjecture(d)

    def test_an_upper_bound_transversal_raises(self, monkeypatch):
        # the scan reads the size as the minimum; a search out of budget has not proved it
        monkeypatch.setattr(inequalities, "min_cycle_transversal",
                            lambda d: TransversalResult(frozenset({0, 1}), 2, "upper-bound"))
        with pytest.raises(BudgetExceededError, match="^minimum transversal size 2 is an upper "
                           "bound only$"):
            scan_argmax_conjecture(k3())

    def test_order_20_scan_tests_no_subset(self, monkeypatch):
        # 203,490 subsets of sizes 12 and 13, too many for the oracle here
        [(_i, d)] = instance_stream(0, 1, 20)
        assert (d.order, min_cycle_transversal(d).size) == (20, 12)

        def refuse(*args):
            raise AssertionError("the scan tested a subset")

        monkeypatch.setattr(cycles, "is_cycle_transversal", refuse)
        monkeypatch.setattr(inequalities, "is_cycle_transversal", refuse)
        rec = scan_argmax_conjecture(d)
        assert (rec.transversals_checked, rec.counterexamples) == (65, [])


class TestVerifiedTransversal:
    def test_each_vertex_set_is_peeled_once(self):
        d = seeded_digraph(15, order_max=9)
        w = min_cycle_transversal(d)
        assert w.size == 5
        with mock.patch.object(inequalities, "is_cycle_transversal",
                               wraps=inequalities.is_cycle_transversal) as peels:
            for k in range(1, w.size + 1):
                check_sigma_bound(d, w, k)
            check_diag_transversal_bound(d, w)
            check_transversal_product(d, sorted(w.vertices))
        assert peels.call_count == 1

    def test_a_set_that_is_not_a_transversal_is_rejected_every_time(self):
        d = k3()
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^\[0\] is not a cycle transversal$"):
                check_diag_transversal_bound(d, {0})


class TestSuiteTable:
    def test_each_suite_counts_one_instance_per_digraph(self):
        for suite in SUITES:
            assert run_suite(suite, count=3, seed=2, order_max=5).instances_tested == 3

    def test_checks_are_looked_up_when_a_suite_runs(self, monkeypatch):
        import substochastic.inequalities as ineq

        seen = []
        monkeypatch.setattr(ineq, "check_ksv", lambda d: seen.append(d) or InequalityReport("ksv"))
        run_suite("ksv", count=2, seed=0)
        assert len(seen) == 2


class TestModeAgreement:
    def test_exact_and_float_margins_agree_in_sign(self):
        names = ("boyle-handelman", "ksv", "lemma-a1")
        for name in names:
            exact = run_suite(name, count=50, seed=31, order_max=6, mode="exact")
            floated = run_suite(name, count=50, seed=31, order_max=6, mode="float")
            assert exact.ok and floated.ok
            assert (exact.min_margin >= 0) == (floated.min_margin >= -1e-9)
