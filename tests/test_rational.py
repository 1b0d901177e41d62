"""The integer kernel's det, solve, inverse and interpolation against Leibniz
determinants, Cramer's rule, and the Gauss–Jordan elimination and Newton
divided differences they replaced, all over Fraction; the word-size primes and
the symmetric Chinese remaindering of the modular characteristic polynomial;
rational ln bounds."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substochastic import rational
from substochastic.inequalities import instance_stream, random_strong_digraph
from substochastic.rational import (
    _eliminate,
    charpoly_exact,
    det_exact,
    interpolate_exact,
    inverse_exact,
    ln_bounds,
    solve_exact,
)
from substochastic.spectral import exact_shifted, solve_shifted

from conftest import (
    leibniz_det,
    oracle_interpolate,
    oracle_inverse,
    oracle_solve,
    poly_eval,
    run_threads,
)

entries = st.integers(-12, 12)


def as_fractions(result):
    """A kernel's ``(X, p)`` as the Fractions X / p, entry by entry (X a vector or a matrix)."""
    x, p = result
    return [[F(a, p) for a in row] if isinstance(row, list) else F(row, p) for row in x]


def solve(rows, rhs):
    return as_fractions(solve_exact(rows, rhs))


def inverse(rows):
    return as_fractions(inverse_exact(rows))


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 4))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    rhs = [draw(entries) for _ in range(n)]
    return rows, rhs


def with_column(rows, j, col):
    return [[col[i] if k == j else x for k, x in enumerate(row)] for i, row in enumerate(rows)]


@given(square_systems())
@settings(max_examples=150, deadline=None)
def test_solve_matches_cramer(system):
    rows, rhs = system
    det = leibniz_det(rows)
    if det == 0:
        with pytest.raises(ZeroDivisionError):
            solve_exact(rows, rhs)
        return
    want = [leibniz_det(with_column(rows, j, rhs)) / det for j in range(len(rows))]
    assert solve(rows, rhs) == want
    assert solve_exact(rows, rhs)[1] == det


@given(square_systems())
@settings(max_examples=100, deadline=None)
def test_inverse_matches_cramer(system):
    rows, _rhs = system
    n = len(rows)
    det = leibniz_det(rows)
    if det == 0:
        with pytest.raises(ZeroDivisionError):
            inverse_exact(rows)
        return
    # column j of the inverse solves A x = e_j
    want = [
        [leibniz_det(with_column(rows, i, [F(int(k == j)) for k in range(n)])) / det
         for j in range(n)]
        for i in range(n)
    ]
    assert inverse(rows) == want
    assert inverse_exact(rows)[1] == det


def test_pivoting_past_a_zero_leading_entry():
    rows = [[0, 1], [1, 0]]  # one row swap: the determinant is -1
    assert solve_exact(rows, [2, 3]) == ([-3, -2], -1)
    assert inverse_exact(rows) == ([[0, -1], [-1, 0]], -1)


def test_order_zero_solve_and_inverse_are_empty():
    assert solve_exact([], []) == ([], 1)
    assert inverse_exact([]) == ([], 1)


def test_back_substitution_scales_by_the_determinant():
    """det x is integral for det the signed last pivot, not for the last augmented entry."""
    cases = [
        ([[2, 0], [0, 3]], [1, 1]),
        ([[0, 1, 2], [9, 0, 2], [1, 1, 0]], [1, 0, 10]),
    ]
    for rows, rhs in cases:
        n = len(rows)
        sign, m = _eliminate(rows, [[b] for b in rhs])
        assert m[-1][-1] != m[-1][n - 1]
        assert solve_exact(rows, rhs)[1] == sign * m[-1][n - 1] == det_exact(rows)
        sign, m = _eliminate(rows, [[int(i == j) for j in range(n)] for i in range(n)])
        assert m[-1][-1] != m[-1][n - 1]
        assert inverse_exact(rows)[1] == sign * m[-1][n - 1] == det_exact(rows)
        assert outcome(solve, rows, rhs) == outcome(oracle_solve, rows, rhs)
        assert outcome(inverse, rows) == outcome(oracle_inverse, rows)
    assert solve_exact(*cases[0]) == ([3, 2], 6)


def test_mismatched_right_hand_side_rejected():
    with pytest.raises(ValueError):
        solve_exact([[1, 0], [0, 1]], [1])


@st.composite
def det_matrices(draw):
    """Order 0-5, many zeros (so zero leading entries), some forced singular."""
    n = draw(st.integers(0, 5))
    sparse = st.one_of(st.just(0), entries)
    rows = [[draw(sparse) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        k = draw(entries)
        rows[j] = [k * x for x in rows[i]]
    return rows


@given(det_matrices())
@settings(max_examples=200, deadline=None)
def test_det_matches_leibniz(rows):
    det = det_exact(rows)
    assert type(det) is int
    assert det == leibniz_det(rows)


def test_det_of_order_zero_is_one():
    assert det_exact([]) == 1 and type(det_exact([])) is int


def test_det_swaps_flip_the_sign():
    assert det_exact([[0, 1], [1, 0]]) == -1
    assert det_exact([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det_exact([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1


def test_det_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="determinant requires a square matrix"):
        det_exact([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError, match="determinant requires a square matrix"):
        det_exact([[1, 2]])


def outcome(f, *args):
    """The repr (so values and entry types) of the result, or the singular-matrix message."""
    try:
        return repr(f(*args))
    except ZeroDivisionError as exc:
        return str(exc)


SHIFTS = [F(1, 3), F(1, 2), F(1), F(2)]
STREAM = [d for _, d in instance_stream(3, 40, 12)]
LARGE = [random_strong_digraph(random.Random(order), order) for order in (24, 28, 32)]


@pytest.mark.parametrize("d", STREAM + LARGE, ids=lambda d: f"order{d.order}")
def test_solve_and_inverse_match_gauss_jordan(d):
    n = d.order
    rhs = [(i % 3) * (i + 1) - 2 for i in range(n)]
    for z in SHIFTS:
        rows, scales = exact_shifted(d, z)
        assert outcome(solve, rows, rhs) == outcome(oracle_solve, rows, rhs)
        assert outcome(inverse, rows) == outcome(oracle_inverse, rows)
        # and I - zA itself over Fraction, whose inverse is rows^{-1} scales
        shifted = [[F(x, s) for x in row] for row, s in zip(rows, scales)]
        assert outcome(lambda: solve_shifted(d, rhs, z)[0]) == outcome(oracle_solve, shifted, rhs)
        x, p = inverse_exact(rows)
        assert [[F(a * s, p) for a, s in zip(row, scales)] for row in x] == \
            oracle_inverse(shifted)


@st.composite
def mixed_systems(draw):
    """Order 1-8, small and large integers mixed, zero leading entries, some singular."""
    n = draw(st.integers(1, 8))
    cell = st.one_of(st.just(0), st.integers(-5, 5), st.integers(-10**9, 10**9))
    rows = [[draw(cell) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows[0][0] = 0  # the first step must swap rows or find no pivot
    if n >= 2 and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.permutations(range(n)))[:2]
        k = draw(cell)
        rows[j] = [k * x for x in rows[i]]  # rows i and j dependent: singular
    rhs = [draw(cell) for _ in range(n)]
    return rows, rhs


@given(mixed_systems())
@settings(max_examples=250, deadline=None)
def test_integer_back_substitution_matches_gauss_jordan(system):
    rows, rhs = system
    assert outcome(solve, rows, rhs) == outcome(oracle_solve, rows, rhs)
    assert outcome(inverse, rows) == outcome(oracle_inverse, rows)
    if outcome(det_exact, rows) != "0":  # X is integral over the determinant
        x, p = solve_exact(rows, rhs)
        inv, q = inverse_exact(rows)
        assert all(type(a) is int for a in [p, q, *x, *(a for row in inv for a in row)])


@st.composite
def node_values(draw):
    """Values at 0..n, n < 14: arbitrary, all zero, ending in zeros, or of low degree.

    Values of a polynomial of degree below n leave zero top coefficients, which
    the interpolation must trim.
    """
    length = draw(st.integers(1, 14))
    big = st.integers(-10**30, 10**30)
    kind = draw(st.sampled_from(["any", "zero", "trailing", "low-degree"]))
    if kind == "zero":
        return [0] * length
    if kind == "low-degree":
        coeffs = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=length))
        return [poly_eval(coeffs, k) for k in range(length)]
    values = [draw(st.one_of(st.integers(-9, 9), big)) for _ in range(length)]
    if kind == "trailing":
        zeros = draw(st.integers(1, length))
        values[-zeros:] = [0] * zeros
    return values


@given(node_values())
@settings(max_examples=300, deadline=None)
def test_interpolation_matches_divided_differences(values):
    coeffs, den = interpolate_exact(values)
    assert den == math.factorial(len(values) - 1)
    assert repr([F(c, den) for c in coeffs]) == \
        repr(oracle_interpolate(range(len(values)), values))


@given(node_values(), st.integers(1, 10**12))
@settings(max_examples=100, deadline=None)
def test_interpolation_of_rational_values(values, den):
    # integer values over one denominator, as the characteristic polynomial passes them
    coeffs, fact = interpolate_exact(values)
    assert repr([F(c, fact * den) for c in coeffs]) == \
        repr(oracle_interpolate(range(len(values)), [F(v, den) for v in values]))


def test_interpolation_pins():
    assert interpolate_exact([7]) == ([7], 1)
    assert interpolate_exact([0, 0, 0]) == ([0], 2)
    assert interpolate_exact([1, 2, 5, 10]) == ([6, 0, 6], 6)  # 1 + z^2, top term trimmed
    assert interpolate_exact([0, 1, 0]) == ([0, 4, -2], 2)
    assert interpolate_exact([3, 2]) == ([3, -1], 1)
    assert all(type(c) is int for c in interpolate_exact([3, -1, 4, -1, 5])[0])


@pytest.mark.parametrize("bad", [F(1, 2), F(3), 0.5, 2.0], ids=repr)
def test_kernel_rejects_a_non_integer_entry(bad):
    # ``//`` would floor a Fraction or float silently and give a wrong answer
    calls = [
        lambda: det_exact([[1, bad], [0, 1]]),
        lambda: solve_exact([[1, 0], [0, bad]], [1, 1]),
        lambda: solve_exact([[1, 0], [0, 1]], [bad, 1]),
        lambda: inverse_exact([[bad]]),
        lambda: interpolate_exact([1, bad, 3]),
        lambda: charpoly_exact([(2, ((0, 1),)), (bad, ())]),
        lambda: charpoly_exact([(2, ((0, bad),))]),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="the exact kernel takes integers"):
            call()


def _word_primes_by_trial_division(count: int) -> list[int]:
    primes, m = [], 2**31 - 1
    while len(primes) < count:
        if all(m % k for k in range(3, math.isqrt(m) + 1, 2)):
            primes.append(m)
        m -= 2
    return primes


def test_word_primes_descend_from_the_mersenne_prime():
    assert [rational._word_prime(k) for k in range(8)] == _word_primes_by_trial_division(8)


def test_word_primes_shared_across_threads_grow_once(monkeypatch):
    want = _word_primes_by_trial_division(12)
    for _ in range(3):
        monkeypatch.setattr(rational, "_PRIMES", [])
        results = run_threads(lambda i: [rational._word_prime(k) for k in range(12 - 3 * i)])
        assert all(r == want[:len(r)] for r in results)
        assert rational._PRIMES == want


def test_symmetric_residues_at_both_ends():
    primes = _word_primes_by_trial_division(3)
    top = (math.prod(primes) - 1) // 2
    values = [top, -top, 0, 1, -1, top - 1, -top + 1]
    residues = [[x % p for x in values] for p in primes]
    assert rational._symmetric_crt(residues, primes) == values


def test_charpoly_kernel_pins():
    # det(D - zB) for D = diag(2, 3) and B = [[1, 1], [2, 0]]: 6 - 3z - 2z^2
    assert charpoly_exact([(2, ((0, 1), (1, 1))), (3, ((0, 2),))]) == ([6, -3, -2], 6)
    assert charpoly_exact([(5, ()), (7, ())]) == ([35], 35)
    assert charpoly_exact([]) == ([1], 1)


@pytest.mark.parametrize("q", [F(1, 3), F(2, 3), F(1, 1000)])
def test_ln_bounds_below_one_mirror_the_reciprocal(q):
    lo, hi = ln_bounds(q)
    rlo, rhi = ln_bounds(1 / q)
    assert (lo, hi) == (-rhi, -rlo)
    assert lo <= hi < 0
    assert float(lo) == pytest.approx(math.log(q), rel=1e-12)


@pytest.mark.parametrize("q", [0, -1, F(-1, 2)])
def test_ln_bounds_rejects_a_non_positive_argument(q):
    with pytest.raises(ValueError, match="positive argument"):
        ln_bounds(q)
