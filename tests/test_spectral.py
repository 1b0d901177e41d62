import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substochastic import (
    BudgetExceededError,
    SpectralRadiusError,
    WeightedDigraph,
    charpoly,
    coates_charpoly,
    collatz_wielandt_brackets,
    cycle_length_extremes,
    det_i_minus,
    min_cycle_transversal,
    perron_bounds,
    perron_ladder,
    perron_root,
    resolvent_diag,
    spectral_report,
    sup_cycle_gain,
    truncate,
)
from substochastic.constructions import (
    a_power,
    build_example1,
    build_example2,
    f_geometric,
    f_power,
)
from substochastic.families import TruncationFamily, family_to_float
from substochastic.rational import poly_eval
from substochastic.spectral import _SPARSE_THRESHOLD, _component_operator

from conftest import (
    acyclic3,
    eig_radius,
    k3,
    leibniz_det,
    loop,
    seeded_digraph,
    triangle,
    two_cycle,
)


class TestPerronRoot:
    def test_loop(self):
        assert perron_root(loop(F(7, 10))) == pytest.approx(0.7, rel=1e-12)

    def test_symmetric_two_cycle_is_half(self):
        # eigenvalues of the antidiagonal 2x2 are +-sqrt(pq)
        assert perron_root(two_cycle(F(1, 2), F(1, 2))) == pytest.approx(0.5, rel=1e-12)

    def test_example2_order_three_hits_one(self):
        # b_3^2 = 0.36 + 0.64 = 1, cross-checked against the dense eigensolver
        fam = build_example2([F(3, 5), F(4, 5)])
        d = truncate(fam, 3)
        assert eig_radius(d) == pytest.approx(1.0, abs=1e-12)
        assert perron_root(d) == pytest.approx(1.0, rel=1e-10)

    def test_acyclic_is_zero(self):
        assert perron_root(acyclic3()) == 0.0

    def test_reducible_takes_component_max(self):
        d = WeightedDigraph(3, {(0, 0): F(1, 4), (1, 2): F(1, 2), (2, 1): F(9, 10)})
        assert perron_root(d) == pytest.approx(math.sqrt(0.45), rel=1e-10)

    @given(st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_dense_eigensolver(self, seed):
        d = seeded_digraph(seed, order_max=7)
        assert perron_root(d) == pytest.approx(eig_radius(d), abs=1e-9)

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_bracket_sandwich_certificate(self, seed):
        d = seeded_digraph(seed, order_max=7)
        lo, hi = collatz_wielandt_brackets(d, tol=1e-12)
        assert lo <= eig_radius(d) + 1e-9
        assert hi >= eig_radius(d) - 1e-9
        assert hi - lo <= 1e-12 * max(hi, 1e-300)


class TestEdgeOperator:
    """Components of order >= _SPARSE_THRESHOLD use the numpy edge-list operator."""

    N = _SPARSE_THRESHOLD + 44

    @pytest.fixture(
        params=[
            lambda: build_example1(a=0.5, f=f_power(0.5)),
            lambda: build_example2(a_power(-0.75)),
        ],
        ids=["example1", "example2"],
    )
    def big(self, request):
        return truncate(family_to_float(request.param()), self.N)

    def test_matvec_and_dense_form_match_i_plus_a(self, big):
        op = _component_operator(big, list(range(big.order)))
        assert not isinstance(op, np.ndarray)
        dense = np.eye(big.order) + big.to_numpy()
        assert np.array_equal(op.toarray(), dense)
        x = np.linspace(0.5, 2.0, big.order)
        # positive terms summed in another order: n ulps bound the difference
        assert np.allclose(op @ x, dense @ x, rtol=big.order * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize("max_iter", [500_000, 1], ids=["power", "dense-eig-fallback"])
    def test_brackets_contain_the_radius(self, big, max_iter):
        lo, hi = collatz_wielandt_brackets(big, tol=1e-12, max_iter=max_iter)
        rho = eig_radius(big)
        assert lo <= rho <= hi
        assert hi - lo <= 1e-12 * hi


class TestExactBrackets:
    def test_loop_collapses_exactly(self):
        assert perron_bounds(loop(F(7, 10))) == (F(7, 10), F(7, 10))

    def test_two_cycle_collapses_to_half(self):
        assert perron_bounds(two_cycle(F(1, 2), F(1, 2))) == (F(1, 2), F(1, 2))

    @given(st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_brackets_contain_the_radius(self, seed):
        d = seeded_digraph(seed, order_max=6)
        lo, hi = perron_bounds(d, width=F(1, 10**15))
        rho = eig_radius(d)
        assert float(lo) <= rho + 1e-9
        assert float(hi) >= rho - 1e-9
        assert hi - lo <= F(1, 10**15)

    def test_requires_exact_weights(self):
        with pytest.raises(TypeError):
            perron_bounds(loop(0.5))


class TestCharpoly:
    def test_loop_linear(self):
        assert coates_charpoly(loop(F(7, 10))) == [F(1), F(-7, 10)]

    def test_triangle_cubic_term_only(self):
        # degree-3 Leibniz expansion of I - zA has one off-diagonal product
        a, b, c = F(1, 2), F(1, 3), F(1, 5)
        assert coates_charpoly(triangle(a, b, c)) == [F(1), 0, 0, -a * b * c]

    def test_example2_is_one_minus_bsq_zsq(self):
        fam = build_example2([F(3, 5), F(4, 5), F(1, 5)])
        for n in (2, 3, 4):
            d = truncate(fam, n)
            coeffs = coates_charpoly(d)
            bsq = sum(F(x) ** 2 for x in ([F(3, 5), F(4, 5), F(1, 5)])[: n - 1])
            assert coeffs == [F(1), 0, -bsq]

    @given(st.integers(0, 300), st.sampled_from([F(1), F(1, 2), F(2)]))
    @settings(max_examples=60, deadline=None)
    def test_coates_matches_leibniz_determinant(self, seed, z):
        d = seeded_digraph(seed, order_max=6)
        rows = d.rows_exact()
        m = [
            [F(int(i == j)) - z * rows[i][j] for j in range(d.order)]
            for i in range(d.order)
        ]
        assert poly_eval(coates_charpoly(d), z) == leibniz_det(m)

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_elimination_equals_coates_coefficientwise(self, seed):
        d = seeded_digraph(seed, order_max=6)
        assert charpoly(d, "elimination") == coates_charpoly(d)

    @given(st.integers(0, 150))
    @settings(max_examples=30, deadline=None)
    def test_degree_bounded_by_transversal_times_longest(self, seed):
        d = seeded_digraph(seed, order_max=6)
        coeffs = coates_charpoly(d)
        degree = len(coeffs) - 1
        ext = cycle_length_extremes(d)
        fvs = min_cycle_transversal(d).size
        bound = 0 if ext.l_max is None else fvs * ext.l_max
        assert degree <= min(d.order, bound)

    def test_union_budget_exhaustion_raises(self):
        with pytest.raises(BudgetExceededError):
            coates_charpoly(k3(), budget=2)

    def test_float_weights_give_float_coefficients(self):
        coeffs = coates_charpoly(loop(0.7))
        assert coeffs[1] == pytest.approx(-0.7)


class TestDeterminant:
    def test_acyclic_is_one(self):
        assert det_i_minus(acyclic3()) == F(1)

    def test_loop(self):
        assert det_i_minus(loop(F(7, 10))) == F(3, 10)

    def test_two_cycle(self):
        assert det_i_minus(two_cycle(F(1, 2), F(1, 2))) == F(3, 4)

    @given(st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_charpoly_at_one(self, seed):
        d = seeded_digraph(seed, order_max=6)
        assert det_i_minus(d) == sum(coates_charpoly(d))

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_float_matches_exact_within_tolerance(self, seed):
        d = seeded_digraph(seed, order_max=7)
        assert det_i_minus(d.to_float()) == pytest.approx(float(det_i_minus(d)), abs=1e-9)


class TestResolvent:
    def test_loop_geometric_series(self):
        assert resolvent_diag(loop(F(7, 10)), 0) == F(10, 3)

    def test_two_cycle_closed_form(self):
        assert resolvent_diag(two_cycle(F(1, 2), F(1, 2)), 0) == F(4, 3)

    def test_acyclic_no_return(self):
        for v in range(3):
            assert resolvent_diag(acyclic3(), v) == F(1)

    def test_radius_at_least_one_raises(self):
        with pytest.raises(SpectralRadiusError):
            resolvent_diag(loop(F(1)), 0)

    @given(st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_neumann_partial_sums_converge_to_it(self, seed):
        d = seeded_digraph(seed, order_max=6)
        lam = perron_root(d)
        g = float(resolvent_diag(d, 0))
        # partial sums with the geometric tail bound
        a = d.to_numpy()
        x = [0.0] * d.order
        x[0] = 1.0
        total, p_cap = 1.0, 60
        import numpy as np

        vec = np.array(x)
        for _ in range(p_cap):
            vec = a.T @ vec
            total += vec[0]
        tail = lam ** (p_cap + 1) / max(1e-15, 1 - lam) * 10
        assert abs(g - total) <= tail + 1e-9


class TestSpectralReport:
    def test_report_fields(self):
        rep = spectral_report(two_cycle(F(1, 2), F(1, 2)))
        assert rep.charpoly == (F(1), 0, F(-1, 4))
        assert rep.nonzero_eig_count == 2
        assert rep.det_at_one == F(3, 4)
        assert rep.perron_root == pytest.approx(0.5, rel=1e-10)


class TestLadder:
    def test_leading_equals_sup_exact_for_sorted_star(self):
        fam = build_example2(a_power(-0.75))
        lead = perron_ladder(fam, [2, 3, 4], mode="leading")
        sup = perron_ladder(fam, [2, 3, 4], mode="sup_exact", window=8)
        for n in (2, 3, 4):
            assert lead.values[n] == pytest.approx(sup.values[n], abs=1e-9)

    def test_lambda_one_is_zero_without_hub_loop(self):
        fam = build_example2(a_power(-0.75))
        spec = perron_ladder(fam, [1], mode="leading")
        assert spec.values[1] == 0.0

    def test_example2_closed_form_small(self):
        fam = build_example2(a_power(-0.75))
        spec = perron_ladder(fam, [2, 10, 60], mode="leading")
        for n in (2, 10, 60):
            assert spec.values[n] == pytest.approx(
                fam.facts.perron_closed_form(n), rel=1e-10
            )
        assert spec.limit_method == "closed-form"

    def test_values_nondecreasing_and_limit_dominates(self):
        fam = build_example1(f=f_geometric())
        spec = perron_ladder(fam, [2, 4, 8, 16], mode="leading")
        vals = [spec.values[n] for n in (2, 4, 8, 16)]
        assert vals == sorted(vals)
        assert spec.limit_estimate >= max(vals) - 1e-12

    def test_extrapolated_tag_without_closed_form(self):
        fam = TruncationFamily(
            "plain-loop", lambda n: WeightedDigraph(n, {(0, 0): F(1, 2)})
        )
        spec = perron_ladder(fam, [2, 3, 4], mode="leading")
        assert spec.limit_method in ("extrapolated", "supremum-of-computed")

    def test_witness_mode_lower_bounds_leading(self):
        fam = build_example2(a_power(-0.75))
        wit = perron_ladder(fam, [3], mode="witness")
        lead = perron_ladder(fam, [3], mode="leading")
        assert wit.values[3] <= lead.values[3] + 1e-12

    def test_sup_exact_budget_guard(self):
        fam = build_example2(a_power(-0.75))
        with pytest.raises(BudgetExceededError):
            perron_ladder(fam, [16], mode="sup_exact", window=20)


class TestOmegaPerronInterplay:
    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_cycle_gain_never_exceeds_perron(self, seed):
        d = seeded_digraph(seed, order_max=6)
        g = sup_cycle_gain(d, proper_only=False)
        assert g.value <= perron_root(d) + 1e-9

    def test_omega_monotone_in_length_cap(self):
        fam = build_example1(f=f_geometric())
        d = truncate(fam, 10)
        vals = [
            sup_cycle_gain(d, max_length=n, proper_only=False).value
            for n in range(1, 11)
        ]
        assert vals == sorted(vals)
