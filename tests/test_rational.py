"""Exact solve and inverse against a Cramer's-rule oracle on Leibniz determinants."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substochastic.rational import inverse_exact, solve_exact

from conftest import leibniz_det

entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)


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
    assert solve_exact(rows, rhs) == want


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
    assert inverse_exact(rows) == want


def test_pivoting_past_a_zero_leading_entry():
    rows = [[0, 1], [1, 0]]
    assert solve_exact(rows, [F(2), F(3)]) == [3, 2]
    assert inverse_exact(rows) == [[0, 1], [1, 0]]


def test_mismatched_right_hand_side_rejected():
    with pytest.raises(ValueError):
        solve_exact([[1, 0], [0, 1]], [1])
