import hashlib
import itertools
import math
import random
from fractions import Fraction as F
from unittest import mock

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
    det_i_minus,
    min_cycle_transversal,
    perron_bounds,
    perron_ladder,
    perron_root,
    resolvent_diagonal,
    sup_cycle_gain,
    truncate,
)
from substochastic import rational, spectral
from substochastic.constructions import (
    BUILTIN_FAMILIES,
    a_power,
    build_example1,
    build_example2,
    f_geometric,
    f_power,
    family_from_config,
)
from substochastic.cycles import peel_transversal
from substochastic.digraph import strong_components, strongly_connected_components
from substochastic.classify import verify_pruitt
from substochastic.families import TruncationFamily, family_to_float
from substochastic.inequalities import (
    InequalityReport,
    check_zeta_identity,
    instance_stream,
    random_strong_digraph,
)
from substochastic.spectral import (
    _ROUTE_MAX_W,
    _ROUTE_PREFIX,
    _SPARSE_THRESHOLD,
    _transversal_route,
    det_shifted,
    edge_operator,
    exact_shifted,
    solve_shifted,
)

from conftest import (
    CORPORA,
    acyclic3,
    brute_cycles,
    corpus,
    dense_matrix,
    eig_radius,
    k3,
    leibniz_det,
    loop,
    oracle_collatz_wielandt_brackets,
    oracle_det,
    oracle_edge_operator,
    oracle_elimination_charpoly,
    oracle_inverse,
    oracle_perron_bounds,
    oracle_shifted,
    oracle_solve,
    poly_eval,
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

    def test_matvec_rmatvec_and_dense_form_match_a(self, big):
        op = edge_operator(big)
        dense = dense_matrix(big)
        assert np.array_equal(op.toarray(), dense)
        x = np.linspace(0.5, 2.0, big.order)
        # positive terms summed in another order: n ulps bound the difference
        rtol = big.order * np.finfo(float).eps
        assert np.allclose(op @ x, dense @ x, rtol=rtol, atol=0)
        assert np.allclose(op.rmatvec(x), dense.T @ x, rtol=rtol, atol=0)

    @pytest.mark.parametrize("max_iter", [500_000, 1], ids=["power", "one-step-then-route"])
    def test_brackets_contain_the_radius(self, big, max_iter):
        lo, hi = collatz_wielandt_brackets(big, tol=1e-12, max_iter=max_iter)
        rho = eig_radius(big)
        assert lo <= rho <= hi
        assert hi - lo <= 1e-12 * hi


def operator_outcome(build, d, vertices=None):
    """The shape and the three arrays with their dtypes, or the ValueError text."""
    try:
        op = build(d, vertices)
    except ValueError as exc:
        return "error", str(exc)
    return op.shape, *((a.dtype, a.tolist()) for a in (op.rows, op.cols, op.vals))


class TestArcArrays:
    """Operators sliced from the memoised arc arrays against the per-call arc loop."""

    @pytest.mark.parametrize("which", CORPORA)
    def test_whole_digraph_and_each_component_as_the_oracle(self, which):
        for d in corpus(which):
            for vertices in (None, *strong_components(d)):
                assert operator_outcome(edge_operator, d, vertices) == operator_outcome(
                    oracle_edge_operator, d, vertices)

    def test_empty_digraph_and_empty_vertex_set(self):
        d = WeightedDigraph(2, {(0, 1): 0.5})
        for g, vertices in ((WeightedDigraph(0, {}), None), (d, []), (d, [1])):
            assert operator_outcome(edge_operator, g, vertices) == operator_outcome(
                oracle_edge_operator, g, vertices)


@pytest.mark.parametrize("weight, shown", [(F(10**400), "1e400"), (F(1, 10**400), "1e-400")],
                         ids=["overflow", "underflow"])
class TestWeightOutsideTheFloatRange:
    """An exact weight no float holds is named by every conversion; the exact bracket holds."""

    @staticmethod
    def wide(weight) -> WeightedDigraph:
        return WeightedDigraph(3, {(0, 0): F(1, 3), (1, 2): weight, (2, 1): F(1, 2)})

    @pytest.mark.parametrize("convert", [
        lambda d: d.to_float(), edge_operator,
        lambda d: edge_operator(d, [1, 2]), perron_root,
    ], ids=["to_float", "edge_operator", "edge_operator-comp", "perron_root"])
    def test_conversion_names_the_arc_and_weight(self, weight, shown, convert):
        with pytest.raises(ValueError, match=f"^arc 2->3 has weight {shown}, outside the float range$"):
            convert(self.wide(weight))

    def test_each_vertex_set_names_its_own_first_arc(self, weight, shown):
        # two such arcs in two components: a vertex set without them still
        # gets its operator, and one with them names its first in d.arcs order
        d = WeightedDigraph(5, {(0, 0): F(1, 3), (1, 2): weight, (2, 1): F(1, 2),
                                (4, 3): weight, (3, 4): F(1, 2), (0, 3): F(1, 4)})
        for vertices in (None, [0], [0, 3], [1, 2], [3, 4], [4, 3, 0], [2, 4, 1, 3]):
            got = operator_outcome(edge_operator, d, vertices)
            assert got == operator_outcome(oracle_edge_operator, d, vertices)
        assert operator_outcome(edge_operator, d, [3, 4]) == (
            "error", f"arc 5->4 has weight {shown}, outside the float range")

    def test_exact_bracket_still_returned(self, weight, shown):
        lo, hi = perron_bounds(self.wide(weight))
        # the radius is the larger of 1/3 and sqrt(weight / 2)
        rho_sq = max(F(1, 9), weight / 2)
        assert 0 < lo <= hi and lo * lo <= rho_sq <= hi * hi


def _sparse_strong_digraph(seed: int, order: int) -> WeightedDigraph:
    """A random Hamiltonian cycle plus order/10 random arcs, float weights in [1/20, 1]."""
    rng = random.Random(f"sparse-strong:{seed}")
    perm = list(range(order))
    rng.shuffle(perm)
    arcs = {(perm[i], perm[(i + 1) % order]): rng.uniform(0.05, 1.0) for i in range(order)}
    for _ in range(order // 10):
        arcs.setdefault((rng.randrange(order), rng.randrange(order)), rng.uniform(0.05, 1.0))
    return WeightedDigraph(order, arcs)


def _successor_lists(d: WeightedDigraph, comp) -> list[list[int]]:
    """Successors within ``comp``, indexed as in ``edge_operator(d, comp)``."""
    op = edge_operator(d, comp)
    succ: list[list[int]] = [[] for _ in range(op.shape[0])]
    for r, c in zip(op.rows.tolist(), op.cols.tolist()):
        succ[r].append(c)
    return succ


def _strong_components(d: WeightedDigraph) -> list[list[int]]:
    succ = {v: list(d.adjacency[v]) for v in range(d.order)}
    return [c for c in strongly_connected_components(succ, range(d.order)) if len(c) > 1]


def assert_contains_numpy_radius(d: WeightedDigraph, lo: float, hi: float) -> None:
    # numpy's radius is off by a few 1e-15 itself (3e-15 on a stochastic
    # digraph of order 11, whose radius is 1), and the loop rounds its
    # quotients on A + I, so the power loop's own brackets miss it by that
    rho = eig_radius(d)
    slack = 64 * np.finfo(float).eps * (1 + rho)
    assert lo - slack <= rho <= hi + slack


def _assert_matches_oracle(d: WeightedDigraph, tol: float = 1e-12) -> tuple[float, float]:
    """The float bracket against the pre-route power loop and the numpy radius.

    Both brackets are sound, so they overlap; where the loop raised, only
    the numpy radius is left to compare with.  A component that the loop
    settles within the route's prefix must give the loop's bracket bit for
    bit.
    """
    operators: list = []
    try:
        olo, ohi = oracle_collatz_wielandt_brackets(d, tol, operators=operators)
    except RuntimeError:  # the loop and its dense fallback both stalled
        olo, ohi = -math.inf, math.inf
    lo, hi = collatz_wielandt_brackets(d, tol)
    assert max(lo, olo) <= min(hi, ohi)
    assert_contains_numpy_radius(d, lo, hi)
    assert hi - lo <= tol * max(hi, 1e-300)
    if all(op.matvecs <= _ROUTE_PREFIX for op in operators):
        assert (lo, hi) == (olo, ohi)
    return lo, hi


FLOAT_FAMILIES = {
    "example1-power": ("example1", {"a": "1/2", "f": {"kind": "power", "epsilon": 0.5}}),
    "example1": ("example1", None),
    "example2": ("example2", None),
    "prop1": ("prop1", None),
    "corollary1": ("corollary1", None),
}


def _float_truncation(name: str, n: int) -> WeightedDigraph:
    family, params = FLOAT_FAMILIES[name]
    return truncate(family_to_float(family_from_config(family, params)), n)


class TestTransversalRoute:
    """Float brackets through a greedy cycle transversal, checked against the power loop."""

    @given(st.integers(0, 10**6),
           st.sampled_from(["truthly", "strictly", "stochastic", "substochastic"]))
    @settings(max_examples=40, deadline=None)
    def test_instance_stream_matches_the_oracle(self, seed, weighting):
        [(_i, d)] = instance_stream(seed, 1, 12, weighting=weighting, mode="float")
        _assert_matches_oracle(d)

    @given(st.integers(0, 10**6))
    @settings(max_examples=6, deadline=None)
    def test_sparse_strong_digraphs_on_the_edge_operator(self, seed):
        d = _sparse_strong_digraph(seed, _SPARSE_THRESHOLD + seed % 64)
        _assert_matches_oracle(d)

    @given(st.sampled_from(sorted(FLOAT_FAMILIES)), st.integers(2, 150))
    @settings(max_examples=25, deadline=None)
    def test_family_truncations_match_the_oracle(self, name, n):
        _assert_matches_oracle(_float_truncation(name, n))

    @given(st.sampled_from(sorted(FLOAT_FAMILIES)), st.integers(2, 150))
    @settings(max_examples=25, deadline=None)
    def test_route_alone_certifies_family_components(self, name, n):
        d = _float_truncation(name, n)
        for comp in _strong_components(d):
            route = _transversal_route(edge_operator(d, comp))
            assert route is not None
            lo, hi, x = route
            assert (x > 0).all() and x.max() == 1.0
            rho = eig_radius(d.induced(comp))
            assert abs(rho - (lo + hi) / 2) <= 1e-12 * rho
            assert hi - lo <= 1e-12 * hi

    @pytest.mark.parametrize("name", ["example1-power", "example1", "example2"])
    @pytest.mark.parametrize("n", [2, 3, 10, 300])
    def test_greedy_transversal_is_the_declared_hub(self, name, n):
        family, params = FLOAT_FAMILIES[name]
        declared = family_from_config(family, params).facts.transversal
        succ = _successor_lists(_float_truncation(name, n), range(n))
        order, transversal = peel_transversal(succ, range(n), _ROUTE_MAX_W)
        assert transversal == sorted(declared) == [0]
        assert sorted(order) == list(range(1, n))

    def test_small_root_meets_the_tolerance_through_the_route(self, monkeypatch):
        # the shifted power loop cannot resolve rho ~ 1.2e-7 to 1e-12 relative
        arcs = {(0, 1): 1e-20, (1, 2): 0.5, (2, 0): 1 / 3, (1, 0): 0.2}
        d = WeightedDigraph(3, arcs)
        results = []
        route = spectral._transversal_route
        monkeypatch.setattr(spectral, "_transversal_route",
                            lambda op: results.append(route(op)) or results[-1])
        lo, hi = collatz_wielandt_brackets(d, tol=1e-12)
        assert results and results[0] is not None
        assert hi - lo <= 1e-12 * hi
        # the root of z^3 = w01 w10 z + w01 w12 w20, exactly, for the float weights
        w = {a: F(v) for a, v in arcs.items()}
        p, q = w[(0, 1)] * w[(1, 0)], w[(0, 1)] * w[(1, 2)] * w[(2, 0)]
        a, b = F(0), F(1)
        for _ in range(120):
            mid = (a + b) / 2
            a, b = (mid, b) if mid**3 - p * mid - q < 0 else (a, mid)
        assert F(lo) <= a and b <= F(hi)

    def test_beaded_chain_the_power_loop_cannot_settle(self):
        # |W| = 34; the loop alone ran 500,000 steps and its dense fallback raised
        d = _float_truncation("corollary1", 600)
        [comp] = _strong_components(d)
        _order, transversal = peel_transversal(_successor_lists(d, comp), range(len(comp)),
                                               _ROUTE_MAX_W)
        assert len(transversal) == 34
        lo, hi = collatz_wielandt_brackets(d, tol=1e-12)
        assert lo <= eig_radius(d) <= hi
        assert hi - lo <= 1e-12 * hi

    def test_first_return_underflow_gives_up_cleanly(self):
        # far-apart beads of corollary1 at n = 1600 have first-return weights
        # below float range, so F is numerically reducible
        d = _float_truncation("corollary1", 1600)
        [comp] = _strong_components(d)
        assert _transversal_route(edge_operator(d, comp)) is None

    def test_cut_short_newton_is_caught_by_the_quotient_check(self, monkeypatch):
        # one Newton step leaves the root far off: the route's bracket is
        # sound but wide, and the loop must finish the job from its vector
        d = _float_truncation("example1-power", 300)
        olo, ohi = oracle_collatz_wielandt_brackets(d)
        monkeypatch.setattr(spectral, "_NEWTON_STEPS", 1)
        lo, hi, _x = _transversal_route(edge_operator(d))
        assert lo <= olo and ohi <= hi
        assert hi - lo > 1e-6 * hi
        lo, hi = collatz_wielandt_brackets(d, tol=1e-12)
        assert max(lo, olo) <= min(hi, ohi)
        assert hi - lo <= 1e-12 * hi

    def test_no_small_transversal_leaves_the_loop_alone(self, monkeypatch):
        # a complete digraph needs order - 1 vertices in any transversal, so
        # the route gives up at once; with one power step the loop has no
        # steps left to resume, and no dense eigensolver stands behind it
        rng = random.Random(7)
        order = _ROUTE_MAX_W + 8
        d = WeightedDigraph(order, {(u, v): rng.uniform(0.1, 1.0)
                                    for u in range(order) for v in range(order)})
        assert _transversal_route(edge_operator(d)) is None
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda m: calls.append(m.shape) or eig(m))
        with pytest.raises(RuntimeError, match=r"did not reach tolerance 1e-12 in 1 steps"):
            collatz_wielandt_brackets(d, tol=1e-12, max_iter=1)
        assert (order, order) not in calls
        lo, hi = collatz_wielandt_brackets(d, tol=1e-12)
        assert_contains_numpy_radius(d, lo, hi)
        assert hi - lo <= 1e-12 * hi

    def test_failure_reports_the_steps_actually_run(self):
        # a component below _SPARSE_THRESHOLD stops its dense loop at 5000
        # steps, not at max_iter's 500,000
        d = random_strong_digraph(random.Random(5), 9)
        with pytest.raises(RuntimeError, match=r"did not reach tolerance -1\.0 in 5000 steps"):
            collatz_wielandt_brackets(d, tol=-1.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_tolerance_is_rejected_before_any_step(self, monkeypatch, tol):
        # no bracket width compares below NaN, so the loop would run its whole
        # budget; an infinite tolerance would accept the first bracket
        monkeypatch.setattr(spectral, "_power_brackets", lambda *a: pytest.fail("stepped"))
        d = random_strong_digraph(random.Random(5), 9).to_float()
        for run in (collatz_wielandt_brackets, perron_root):
            with pytest.raises(ValueError, match="tolerance must be finite"):
                run(d, tol=tol)

    @pytest.mark.xfail(strict=True, raises=RuntimeError,
                       reason="the route's vector is 1e-15 small on the lightest cycle, and "
                              "the loop on A + I contracts by only 1 - 6.7e-4 a step")
    def test_weakly_coupled_cycles_of_near_equal_weight(self):
        # cycles 0-1, 2-3-4 and 5-...-9 of arc weights 0.5, 0.501 and 0.502,
        # joined into one strong component by a ring of 1e-10 arcs
        cycles = {(0, 1): 0.5, (1, 0): 0.5, (2, 3): 0.501, (3, 4): 0.501, (4, 2): 0.501,
                  (5, 6): 0.502, (6, 7): 0.502, (7, 8): 0.502, (8, 9): 0.502, (9, 5): 0.502}
        ring = {(0, 2): 1e-10, (2, 5): 1e-10, (5, 0): 1e-10}
        d = WeightedDigraph(10, cycles | ring)
        assert len(_strong_components(d)) == 1
        assert perron_root(d) == pytest.approx(eig_radius(d), rel=1e-12)


class TestRouteGuards:
    """Each guard of the transversal route, driven where no real input reaches it.

    The route runs on float example1 at n = 50, whose greedy transversal is
    the hub alone, so F(mu) is 1 x 1 and increasing in mu: the sequence of F
    values handed to ``_perron_eig`` shows where each Newton step went.
    """

    @staticmethod
    def route(monkeypatch, fake_call: int, fake):
        """The route with ``fake(rho, vec)`` answering the ``fake_call``-th ``_perron_eig`` call."""
        d = _float_truncation("example1-power", 50)
        real = spectral._perron_eig
        seen = []

        def eig(m):
            seen.append(float(m[0, 0]))
            rho, vec = real(m)
            return fake(rho, vec) if len(seen) == fake_call + 1 else (rho, vec)

        monkeypatch.setattr(spectral, "_perron_eig", eig)
        return d, _transversal_route(edge_operator(d)), seen[::2]  # F, not F^T

    @staticmethod
    def assert_certified(d, route):
        lo, hi, _x = route
        assert hi - lo <= 1e-12 * hi
        assert_contains_numpy_radius(d, lo, hi)

    def test_non_finite_slope_bisects(self, monkeypatch):
        # F at the second step reads as overflowed: that mu becomes the upper
        # end and the third step takes the midpoint, not a Newton step
        d, route, f = self.route(monkeypatch, 2, lambda rho, vec: (math.inf, vec))
        assert f[0] < f[2] < f[1]
        self.assert_certified(d, route)

    def test_step_leaving_the_bracket_bisects(self, monkeypatch):
        # a root 1e6 too large at the second step sends the Newton step far
        # below the lower end; the midpoint takes its place
        d, route, f = self.route(monkeypatch, 2, lambda rho, vec: (rho * 1e6, vec))
        assert f[0] < f[2] < f[1]
        self.assert_certified(d, route)

    def test_no_vector_left_after_the_last_step(self, monkeypatch):
        # the last allowed step bisects after a non-finite slope, so the
        # loop ends without a Perron vector of F
        monkeypatch.setattr(spectral, "_NEWTON_STEPS", 2)
        _d, route, f = self.route(monkeypatch, 2, lambda rho, vec: (math.inf, vec))
        assert len(f) == 2 and route is None

    def test_vector_with_a_zero_entry_is_refused(self):
        # the return 1 -> 2 -> 0 weighs mu^2 1e-400 and underflows, so F is
        # triangular with Perron vector (1, 0): x is zero at vertex 1
        d = WeightedDigraph(3, {(0, 0): 0.5, (1, 1): 0.25, (0, 1): 1.0,
                                (1, 2): 1e-200, (2, 0): 1e-200})
        assert len(_strong_components(d)) == 1
        assert _transversal_route(edge_operator(d)) is None

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_perron_eig_of_a_non_finite_matrix(self, bad):
        rho, vec = spectral._perron_eig(np.array([[0.5, bad], [1.0, 0.0]]))
        assert rho == math.inf and vec.tolist() == [1.0, 1.0]


def _first_return_det(d: WeightedDigraph, order, transversal, z) -> F:
    """det(I_W - F(z)) from ``spectral.first_return`` on the exact weights of ``d``."""
    f_cols, _df_cols = spectral.first_return(d.adjacency, order, transversal, z)
    m = len(transversal)
    return oracle_det([[int(i == j) - f_cols[j][i] for j in range(m)] for i in range(m)])


def _exact_identity_inputs():
    """Exact instance_stream digraphs with |W| <= 6, then family truncations at n <= 40."""
    for _i, d in instance_stream(3, 150, 12):
        peeled = peel_transversal(d.adjacency, range(d.order), 6)
        if peeled is not None:
            yield d, *peeled
    for name in BUILTIN_FAMILIES:
        for n in (2, 7, 20, 40):
            d = truncate(family_from_config(name), n)
            d = WeightedDigraph(d.order, {a: F(w) for a, w in d.arcs.items()})  # lift floats
            yield d, *peel_transversal(d.adjacency, range(d.order), d.order)


class TestFirstReturn:
    """det(I - zA) = det(I_W - F(z)) in Fractions: R is acyclic, so I - z A_RR is unitriangular."""

    ZS = (F(1, 3), F(1, 2), F(2))

    def test_determinant_identity_holds_exactly(self):
        count = 0
        for d, order, transversal in _exact_identity_inputs():
            coeffs = charpoly(d)
            for z in self.ZS:
                assert _first_return_det(d, order, transversal, z) == poly_eval(coeffs, z)
                count += 1
        assert count > 450

    def test_a_transversal_missing_a_cycle_breaks_the_identity(self):
        # mutation: W's first vertex moves to the end of the peel order, so
        # the rest may hold a cycle through it, and rows before it read it unset
        failed = []
        for d, order, transversal in _exact_identity_inputs():
            wrong = _first_return_det(d, [*order, transversal[0]], transversal[1:], F(1, 2))
            failed.append(wrong != poly_eval(charpoly(d), F(1, 2)))
        assert all(failed)

    def test_extension_solves_the_rest_exactly(self):
        # values on W extend over R to x with x_v = z (A x)_v at every v of R
        for d, order, transversal in itertools.islice(_exact_identity_inputs(), 40):
            values = [F(j + 1, 7) for j in range(len(transversal))]
            x = spectral.first_return(d.adjacency, order, transversal, F(1, 2), values)
            assert [x[w] for w in transversal] == values
            for v in order:
                assert x[v] == F(1, 2) * sum(a * x[u] for u, a in d.adjacency[v].items())


def _route_inputs(name: str):
    """The (label, digraph, component) inputs of one pinned group of route runs."""
    if name == "families":
        for family in sorted(FLOAT_FAMILIES):
            for n in [*range(2, 150, 8), 150]:
                d = _float_truncation(family, n)
                for comp in _strong_components(d):
                    yield f"{family}:{n}", d, comp
    elif name == "corollary1-600":
        d = _float_truncation("corollary1", 600)
        for comp in _strong_components(d):
            yield "corollary1:600", d, comp
    else:
        for seed in range(6):
            d = _sparse_strong_digraph(seed, _SPARSE_THRESHOLD + seed * 11)
            for comp in _strong_components(d):
                yield f"sparse:{seed}", d, comp


def _route_digest(name: str) -> str:
    """sha256 over each route run's bracket ends (``float.hex``) and vector bytes."""
    lines = []
    for label, d, comp in _route_inputs(name):
        route = _transversal_route(edge_operator(d, comp))
        if route is None:
            lines.append(f"{label}:None")
        else:
            lo, hi, x = route
            lines.append(f"{label}:{lo.hex()}:{hi.hex()}:"
                         f"{hashlib.sha256(x.tobytes()).hexdigest()}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# Pinned with numpy's LAPACK eigensolver on x86-64: a refactor of the route
# must keep every bracket end and vector bit for bit.
ROUTE_DIGEST_CASES = {
    "families": "1f97bfbf4701fcda2637788fc5ac302f29c80fc17d8ae8c1f8821152e7051047",
    "corollary1-600": "9f869084bf504513cad26cc5235f2df9f4532c947d166996d8877442a2532de2",
    "sparse": "637f335cb96a7a25e695b0904dc91fc9f1eb3804fa07e7e7150ffa3f31273caa",
}


@pytest.mark.parametrize("name", sorted(ROUTE_DIGEST_CASES))
def test_route_output_is_pinned_bit_for_bit(name):
    assert _route_digest(name) == ROUTE_DIGEST_CASES[name]


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

    @staticmethod
    def small_root_digraph():
        # rho ~ 1.19e-7: the power loop on I + A contracts by about 1 - rho per step
        return WeightedDigraph(
            3, {(0, 1): F(1, 10**20), (1, 2): F(1, 2), (2, 0): F(1, 3), (1, 0): F(1, 5)}
        )

    def test_small_root_bracket_is_sound(self):
        d = self.small_root_digraph()
        lo, hi = perron_bounds(d)
        rho = eig_radius(d)
        assert float(lo) <= rho * (1 + 1e-9)
        assert float(hi) >= rho * (1 - 1e-9)
        olo, ohi = oracle_perron_bounds(d)
        assert max(lo, olo) <= min(hi, ohi)

    @pytest.mark.xfail(strict=True, reason="the I + A power loop stops about 3.9e-13 wide")
    def test_small_root_bracket_meets_its_width(self):
        lo, hi = perron_bounds(self.small_root_digraph())
        assert hi - lo <= spectral.BRACKET_WIDTH

    # integer steps to BRACKET_WIDTH on the first 60 components of the certify
    # pool, instance_stream(7919, ., 12); a float seed taken one step later
    # would add one step to each
    POOL_STEPS = [
        19, 52, 33, 14, 29, 16, 24, 22, 24, 17, 30, 18, 30, 17, 22, 22, 29, 35, 27, 22,
        27, 28, 22, 63, 18, 50, 35, 18, 18, 20, 16, 32, 30, 24, 26, 27, 38, 28, 31, 26,
        9, 19, 6, 27, 30, 30, 50, 23, 13, 29, 33, 41, 6, 16, 21, 41, 74, 30, 18, 38,
    ]

    @pytest.mark.parametrize("seed", range(20))
    def test_arcs_leaving_a_component_do_not_change_its_bracket(self, seed):
        # the leaving arcs put 7, 11 and 13 into the rows' denominators L_u; the
        # component's integers, and so its bracket, are those of the component alone
        rng = random.Random(f"leaving:{seed}")
        comp = random_strong_digraph(rng, rng.randint(2, 12))
        k = comp.order
        leaving = {(u, k + rng.randrange(2)): F(1, rng.choice((7, 11, 13)))
                   for u in range(k) if rng.random() < 0.5}
        d = WeightedDigraph(k + 2, {**comp.arcs, **leaving, (k, k + 1): F(1, 3)})
        assert [sorted(c) for c in _strong_components(d) if len(c) > 1] == [list(range(k))]
        assert (spectral._integer_power_brackets(d, list(range(k)), spectral.BRACKET_WIDTH, 20_000)
                == spectral._integer_power_brackets(comp, list(range(k)), spectral.BRACKET_WIDTH,
                                                    20_000))

    def test_step_counts_on_the_certify_pool_are_pinned(self):
        comps = [(d, sorted(c)) for _i, d in instance_stream(7919, 60, 12)
                 for c in _strong_components(d)]
        assert len(comps) == len(self.POOL_STEPS) and sum(self.POOL_STEPS) == 1633
        for (d, comp), steps in zip(comps, self.POOL_STEPS):
            lo, hi = spectral._integer_power_brackets(d, comp, spectral.BRACKET_WIDTH, steps)
            assert hi - lo <= spectral.BRACKET_WIDTH
            lo, hi = spectral._integer_power_brackets(d, comp, spectral.BRACKET_WIDTH, steps - 1)
            assert hi - lo > spectral.BRACKET_WIDTH


def _loops_and_an_empty_row() -> list[WeightedDigraph]:
    """Loops (one with the row's only arc), a sink vertex (an empty row), dyadic floats."""
    return [
        WeightedDigraph(3, {(0, 0): F(1, 2), (0, 1): F(1, 3), (1, 2): F(2, 5),
                            (2, 0): F(3, 7), (2, 2): F(1, 9)}),
        WeightedDigraph(4, {(0, 1): F(1, 2), (1, 0): F(2, 3), (1, 2): F(1, 4),
                            (2, 3): F(1, 5), (2, 2): F(5, 6)}),
        WeightedDigraph(3, {(0, 0): F(3, 4), (1, 2): F(1, 6), (2, 1): F(7, 8)}),
        WeightedDigraph(3, {(0, 1): 0.5, (1, 2): 0.375, (2, 0): 0.25, (1, 1): 0.125,
                            (2, 1): 0.1}),
        WeightedDigraph(4, {(0, 1): 0.75, (1, 0): 0.5, (1, 2): 1e-3, (2, 2): 0.3}),
    ]


INTEGER_ROW_DIGRAPHS = _loops_and_an_empty_row() + [seeded_digraph(s) for s in range(10)]
EXACT_ROW_DIGRAPHS = [d for d in INTEGER_ROW_DIGRAPHS if d.is_exact]
SAMPLES = [0, 1, 2, F(1, 3), F(-5, 2)]


def _lift(d: WeightedDigraph) -> WeightedDigraph:
    """The same digraph with every weight as its exact rational."""
    return WeightedDigraph(d.order, {a: F(w) for a, w in d.arcs.items()})


def _zeta_records(monkeypatch, d, v, samples):
    """(inequality, lhs, rhs, margin) of every comparison ``check_zeta_identity`` records."""
    seen = []
    record = InequalityReport.record

    def spy(self, fp, inequality, lhs, rhs):
        seen.append((inequality, lhs, rhs, rhs - lhs))
        return record(self, fp, inequality, lhs, rhs)

    with monkeypatch.context() as m:
        m.setattr(InequalityReport, "record", spy)
        rep = check_zeta_identity(d, v, samples)
    return seen, rep


def _fraction_zeta_records(d, v, samples):
    """The zeta comparisons as computed on the Fraction matrices of I - zA."""
    seen, notes = [], []
    keep = [i for i in range(d.order) if i != v]
    for z in map(F, samples):
        m = oracle_shifted(d, z)
        det_full = leibniz_det(m)
        if det_full == 0:
            notes.append(f"sample z={z} singular, skipped")
            continue
        det_minor = leibniz_det([[m[i][j] for j in keep] for i in keep])
        lhs = oracle_solve(m, [int(i == v) for i in range(d.order)])[v] * det_full
        seen.append((f"zeta@z={z}", lhs, det_minor, det_minor - lhs))
        seen.append((f"zeta@z={z} (reverse)", det_minor, lhs, lhs - det_minor))
    return seen, notes


class TestIntegerRows:
    """I - zA as integer rows with row scales, and every exact caller of them."""

    @pytest.mark.parametrize("d", INTEGER_ROW_DIGRAPHS, ids=lambda d: f"order{d.order}")
    def test_rows_over_scales_are_the_fraction_matrix(self, d):
        for z in SAMPLES:
            rows, scales = exact_shifted(d, z)
            assert all(type(x) is int for row in rows for x in row)
            assert all(type(s) is int and s > 0 for s in scales)
            assert [[F(x, s) for x in row] for row, s in zip(rows, scales)] == \
                oracle_shifted(d, z)

    def test_empty_row_has_unit_scale(self):
        rows, scales = exact_shifted(INTEGER_ROW_DIGRAPHS[1], 3)
        assert rows[3] == [0, 0, 0, 1] and scales[3] == 1

    @pytest.mark.parametrize("d", INTEGER_ROW_DIGRAPHS, ids=lambda d: f"order{d.order}")
    def test_elimination_matches_coates_and_leibniz(self, d):
        lifted = _lift(d)
        coeffs = charpoly(d, "elimination")
        exact = charpoly(lifted, "elimination")
        assert exact == coates_charpoly(lifted)
        if d.is_exact:
            assert coeffs == exact
        else:  # float digraphs get the exact coefficients rounded once
            assert coeffs == [float(c) for c in exact]
        for z in SAMPLES:
            assert poly_eval(exact, F(z)) == leibniz_det(oracle_shifted(d, z))

    @pytest.mark.parametrize("d", EXACT_ROW_DIGRAPHS, ids=lambda d: f"order{d.order}")
    def test_det_i_minus_as_on_the_fraction_matrix(self, d):
        det = det_i_minus(d)
        assert repr(det) == repr(oracle_det(oracle_shifted(d)))
        assert det == leibniz_det(oracle_shifted(d))
        for z in SAMPLES:
            want = repr(oracle_det(oracle_shifted(d, z)))
            assert repr(det_shifted(d, z)) == want
            if want != "Fraction(0, 1)":  # the solve's determinant, from the same elimination
                assert repr(solve_shifted(d, [1] * d.order, z)[1]) == want

    @pytest.mark.parametrize("d", EXACT_ROW_DIGRAPHS, ids=lambda d: f"order{d.order}")
    def test_resolvent_diagonal_as_on_the_fraction_matrix(self, d):
        inv = oracle_inverse(oracle_shifted(d))
        assert repr(resolvent_diagonal(d)) == repr([inv[i][i] for i in range(d.order)])

    @pytest.mark.parametrize("d", EXACT_ROW_DIGRAPHS, ids=lambda d: f"order{d.order}")
    def test_zeta_records_as_on_the_fraction_matrices(self, monkeypatch, d):
        for v in range(d.order):
            seen, rep = _zeta_records(monkeypatch, d, v, SAMPLES)
            want, notes = _fraction_zeta_records(d, v, SAMPLES)
            assert repr(seen) == repr(want)
            assert rep.min_margin == min((r[3] for r in want), default=None)
            assert [n.split(": ", 1)[1] for n in rep.notes] == notes

    @pytest.mark.parametrize("v", [0, 5], ids=["first", "last"])
    def test_zeta_minor_has_its_own_row_scales(self, monkeypatch, v):
        # only the arcs into v carry sevenths, so the induced minor's rows drop them
        arcs = {(u, (u + 1) % 6): F(1, 3) for u in range(6)}
        arcs.update({(u, v): F(1, 7) for u in (1, 2, 3, 4) if u != v})
        arcs.update({(v, u): F(2, 11) for u in (2, 3)})
        d = WeightedDigraph(6, arcs)
        keep = [u for u in range(6) if u != v]
        _rows, scales = exact_shifted(d)
        _rows, minor_scales = exact_shifted(d.induced(keep))
        assert minor_scales != [scales[u] for u in keep]
        seen, rep = _zeta_records(monkeypatch, d, v, SAMPLES)
        want, notes = _fraction_zeta_records(d, v, SAMPLES)
        assert repr(seen) == repr(want) and len(seen) == 2 * len(SAMPLES)
        assert rep.ok and not rep.notes and not notes

    def test_charpoly_from_the_fewest_primes(self, monkeypatch, crt_primes):
        # no determinant: residues modulo the fewest primes below 2**31 whose
        # product exceeds twice the bound prod_i (L_i + sum_j B_ij)
        monkeypatch.setattr(spectral, "det_exact", lambda rows: pytest.fail("det_exact called"))
        monkeypatch.setattr(rational, "det_exact", lambda rows: pytest.fail("det_exact called"))
        for d in INTEGER_ROW_DIGRAPHS:
            fresh = WeightedDigraph(d.order, d.arcs)
            assert charpoly(fresh) == charpoly(fresh)
            rows = spectral._integer_weights(fresh)
            bound = math.prod(lcm + sum(b for _j, b in arcs) for lcm, arcs in rows)
            primes = crt_primes[-1]
            assert math.prod(primes) > 2 * bound >= math.prod(primes[:-1])
            assert primes == [rational._word_prime(k) for k in range(len(primes))]
        assert len(crt_primes) == len(INTEGER_ROW_DIGRAPHS)

    def test_zeta_on_a_loop_skips_its_singular_sample(self, monkeypatch):
        seen, rep = _zeta_records(monkeypatch, loop(F(1, 2)), 0, [F(1, 3), F(2)])
        assert repr(seen) == repr(_fraction_zeta_records(loop(F(1, 2)), 0, [F(1, 3), F(2)])[0])
        assert len(seen) == 2 and len(rep.notes) == 1

    @pytest.mark.parametrize("lam", [F(1, 2), F(9, 10), F(3, 2), 2])
    @pytest.mark.parametrize("d", EXACT_ROW_DIGRAPHS, ids=lambda d: f"order{d.order}")
    def test_pruitt_vector_as_on_the_fraction_matrix(self, d, lam):
        # lam times the resolvent vector (lam I - A)^{-1} 1, a Pruitt vector
        # exactly when lam exceeds the root: then A xi = lam (xi - 1)
        xi = _resolvent_vector(d, lam)
        try:
            want = oracle_solve(oracle_shifted(d, 1 / F(lam)), [1] * d.order)
        except ZeroDivisionError:
            want = None
        assert repr(xi) == repr(want)
        lo, hi = perron_bounds(d)
        if lam > hi:
            assert verify_pruitt(d, xi, lam) == (True, 0)
        elif lam < lo and xi is not None:
            assert not verify_pruitt(d, xi, lam)[0]

    def test_pruitt_cases_reach_the_solve(self):
        solved = [
            (d, lam) for d in EXACT_ROW_DIGRAPHS for lam in (F(9, 10), F(3, 2), 2)
            if not verify_pruitt(d, [F(1)] * d.order, lam)[0]
            and (xi := _resolvent_vector(d, lam)) is not None and verify_pruitt(d, xi, lam)[0]
        ]
        assert len(solved) >= 5


def _resolvent_vector(d: WeightedDigraph, lam):
    """(I - A/lam)^{-1} 1 from the integer rows, or None where I - A/lam is singular."""
    try:
        return solve_shifted(d, [1] * d.order, 1 / F(lam))[0]
    except ZeroDivisionError:
        return None


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
        assert poly_eval(coates_charpoly(d), z) == leibniz_det(oracle_shifted(d, z))

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
        l_max = max(map(len, brute_cycles(d)), default=0)
        bound = min_cycle_transversal(d).size * l_max
        assert degree <= min(d.order, bound)

    def test_union_budget_exhaustion_raises(self):
        with pytest.raises(BudgetExceededError):
            coates_charpoly(k3(), budget=2)

    def test_unions_beyond_the_budget_raise_after_the_cycles_fit(self):
        # 10 disjoint loops: 10 cycles fit a budget of 100, their 1,023 unions do not
        loops = WeightedDigraph(10, {(v, v): F(1, 2) for v in range(10)})
        with pytest.raises(BudgetExceededError, match=r"^cycle-union budget 100 exhausted "
                           r"after 101 unions \(10 cycles\); partial sums discarded$"):
            coates_charpoly(loops, budget=100)

    def test_budget_equal_to_cycle_count_is_enough(self):
        half = F(1, 2)
        assert coates_charpoly(triangle(half, half, half), budget=1) == [F(1), 0, 0, F(-1, 8)]

    def test_float_weights_give_float_coefficients(self):
        coeffs = coates_charpoly(loop(0.7))
        assert coeffs[1] == pytest.approx(-0.7)

    @pytest.mark.parametrize(
        "order, method, error",
        [(129, "elimination", BudgetExceededError), (3, "leibniz", ValueError)],
        ids=["past-the-cap", "unknown-method"],
    )
    def test_rejected_before_any_elimination(self, monkeypatch, order, method, error):
        monkeypatch.setattr(spectral, "_elimination_charpoly", lambda d: pytest.fail("eliminated"))
        cycle = WeightedDigraph(order, {(v, (v + 1) % order): F(1, 2) for v in range(order)})
        with pytest.raises(error):
            charpoly(cycle, method=method)


@pytest.fixture
def crt_primes(monkeypatch) -> list:
    """The primes of every ``_symmetric_crt`` call, in order."""
    seen = []
    crt = rational._symmetric_crt
    monkeypatch.setattr(rational, "_symmetric_crt",
                        lambda residues, primes: seen.append(primes) or crt(residues, primes))
    return seen


def _assert_charpoly_as_the_oracles(d: WeightedDigraph) -> list:
    """charpoly(d) equals the elimination oracle, element types too, and Coates up to order 8."""
    got = charpoly(d)
    want = oracle_elimination_charpoly(d)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]
    if d.order <= 8:
        exact = coates_charpoly(_lift(d))
        assert got == (exact if d.is_exact else [float(c) for c in exact])
    return got


class TestModularCharpoly:
    """det(I - zA) from residues modulo word-size primes, against the elimination it replaced."""

    @given(st.integers(0, 10**6), st.sampled_from(["exact", "float"]))
    @settings(max_examples=60, deadline=None)
    def test_instance_stream(self, seed, mode):
        (_, d), = instance_stream(seed, 1, 12, mode=mode)
        _assert_charpoly_as_the_oracles(d)

    @given(st.integers(0, 10**6), st.integers(13, 40))
    @settings(max_examples=8, deadline=None)
    def test_random_strong_digraphs(self, seed, order):
        _assert_charpoly_as_the_oracles(random_strong_digraph(random.Random(seed), order))

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_family_truncations(self, name, n):
        _assert_charpoly_as_the_oracles(truncate(family_from_config(name), n))

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_float_example2(self, n):
        d = truncate(family_to_float(family_from_config("example2")), n)
        assert all(type(c) is float for c in _assert_charpoly_as_the_oracles(d))

    @pytest.mark.parametrize(
        "d, want",
        [(WeightedDigraph(1, {(0, 0): F(3, 4)}), [F(1), F(-3, 4)]),
         (acyclic3(), [F(1)]),
         (WeightedDigraph(3, {}), [F(1)]),
         (WeightedDigraph(0, {}), [F(1)]),
         # the bound 2**31 - 2 is below the first prime but not half of it:
         # modulo that prime alone, L = 2**31 - 3 would come back as -2
         (WeightedDigraph(1, {(0, 0): F(1, 2**31 - 3)}), [F(1), F(-1, 2**31 - 3)])],
        ids=["order1-loop", "acyclic", "arc-free", "empty", "twice-the-bound"],
    )
    def test_edge_cases(self, d, want):
        assert _assert_charpoly_as_the_oracles(d) == want

    @pytest.mark.parametrize("n", [1, 7, 40, 128])
    def test_unit_loops_attain_the_bound(self, n):
        # (1 - z)^n: the absolute coefficients sum to 2^n = prod_i (L_i + B_ii),
        # and no column of the diagonal matrix has a pivot
        d = WeightedDigraph(n, {(v, v): F(1) for v in range(n)})
        want = [F((-1) ** k * math.comb(n, k)) for k in range(n + 1)]
        assert charpoly(d) == want
        assert sum(abs(c) for c in want) == 2**n

    def test_a_denominator_equal_to_the_first_prime_skips_it(self, crt_primes):
        first = 2**31 - 1
        d = WeightedDigraph(3, {(0, 1): F(1, first), (1, 0): F(1, 2), (1, 2): F(1, 3),
                                (2, 0): F(first - 1, first), (2, 2): F(1, 5)})
        _assert_charpoly_as_the_oracles(d)
        (primes,) = crt_primes
        assert first not in primes

    def test_primes_in_groups(self, monkeypatch, crt_primes):
        d = truncate(family_to_float(family_from_config("example2")), 12)
        want = oracle_elimination_charpoly(d)
        monkeypatch.setattr(rational, "_GROUP_ENTRIES", 3 * 12 * 12)  # three primes a group
        assert charpoly(d) == want
        (primes,) = crt_primes
        assert len(primes) > 6 and len(primes) % 3  # the last group is short

    @pytest.mark.parametrize("empty", [False, True], ids=["swap", "empty-column"])
    def test_pivots_that_differ_between_primes(self, crt_primes, empty):
        # numerators divisible by 2**31 - 1 vanish modulo the first prime only:
        # there the first column pivots on row 2 or, with rows 2 and 3 zero
        # too, has no pivot
        first = 2**31 - 1
        arcs = {(0, 1): F(1, 2), (0, 2): F(1, 4), (1, 2): F(1, 3), (2, 1): F(1, 7),
                (1, 0): F(first, 2**31), (2, 0): F(1, 3), (3, 0): F(1, 5), (0, 3): F(1, 6)}
        if empty:
            arcs[(2, 0)] = F(first, 2**32)
            arcs[(3, 0)] = F(first, 2**33)
        d = WeightedDigraph(4, arcs)
        _assert_charpoly_as_the_oracles(d)
        (primes,) = crt_primes
        assert primes[0] == first and len(primes) > 1


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
        assert resolvent_diagonal(loop(F(7, 10)))[0] == F(10, 3)

    def test_two_cycle_closed_form(self):
        assert resolvent_diagonal(two_cycle(F(1, 2), F(1, 2)))[0] == F(4, 3)

    def test_acyclic_no_return(self):
        for v in range(3):
            assert resolvent_diagonal(acyclic3())[v] == F(1)

    def test_radius_at_least_one_raises(self):
        with pytest.raises(SpectralRadiusError):
            resolvent_diagonal(loop(F(1)))

    def test_radius_exactly_one_raises_before_the_singular_solve(self):
        # the cycle product 1/2 * 4 * 1/2 is 1, so rho = 1 and I - A is
        # singular; a float bracket 1e-10 wide straddles 1
        d = triangle(F(1, 2), F(4), F(1, 2))
        for _ in range(2):  # the guard's error is not memoised
            with pytest.raises(SpectralRadiusError):
                resolvent_diagonal(d)

    def test_exact_guard_reads_the_memoised_bracket(self):
        d = seeded_digraph(7)
        with mock.patch.object(spectral, "collatz_wielandt_brackets",
                               wraps=spectral.collatz_wielandt_brackets) as floats, \
             mock.patch.object(spectral, "_integer_power_brackets",
                               wraps=spectral._integer_power_brackets) as exact:
            perron_bounds(d)
            for _ in range(3):
                resolvent_diagonal(d)
        assert (floats.call_count, exact.call_count) == (0, 1)

    def test_float_guard_finds_the_root_once(self):
        d = seeded_digraph(7).to_float()
        with mock.patch.object(spectral, "collatz_wielandt_brackets",
                               wraps=spectral.collatz_wielandt_brackets) as roots:
            first = resolvent_diagonal(d)
            for _ in range(3):
                assert resolvent_diagonal(d) == first
        assert roots.call_count == 1

    @given(st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_neumann_partial_sums_converge_to_it(self, seed):
        d = seeded_digraph(seed, order_max=6)
        lam = perron_root(d)
        g = float(resolvent_diagonal(d)[0])
        # partial sums with the geometric tail bound
        a = dense_matrix(d)
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

    def test_two_orders_without_a_closed_form_take_the_supremum(self):
        fam = build_example1(f=f_geometric())
        assert fam.facts.spectral_limit is None
        spec = perron_ladder(fam, [5, 10], mode="leading")
        assert spec.limit_method == "supremum-of-computed"
        assert spec.limit_estimate == max(spec.values.values())

    def test_witness_mode_lower_bounds_leading(self):
        fam = build_example2(a_power(-0.75))
        wit = perron_ladder(fam, [3], mode="witness")
        lead = perron_ladder(fam, [3], mode="leading")
        assert wit.values[3] <= lead.values[3] + 1e-12

    def test_sup_exact_budget_guard(self):
        fam = build_example2(a_power(-0.75))
        with pytest.raises(BudgetExceededError):
            perron_ladder(fam, [16], mode="sup_exact", window=20)

    def test_sup_exact_subset_guard(self):
        # n = 10 passes the order guard; C(30, 10) subsets of the window do not
        fam = build_example2(a_power(-0.75))
        with pytest.raises(BudgetExceededError, match="^sup_exact would enumerate 30045015 subsets$"):
            perron_ladder(fam, [10], mode="sup_exact", window=30)


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
