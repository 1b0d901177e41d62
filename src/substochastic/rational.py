"""Exact rational helpers: weight parsing, rigorous log bounds, exact linear algebra.

Nothing here rounds.  The linear algebra is an integer kernel: one
fraction-free (Bareiss) elimination serves determinants, solves and inverses,
and interpolation at the nodes 0..n runs in integers too.  It takes integers
only (a Fraction or float raises TypeError) and returns integers over one
denominator.  :mod:`substochastic.spectral` clears the denominators of I - zA
into its integer rows and builds the Fractions from the results.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def is_exact_number(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def parse_weight(text: str, mode: str = "exact"):
    """Parse a weight string, either a decimal like ``"0.25"`` or ``"3/4"``.

    In ``exact`` mode the result is a Fraction; in ``float`` mode a float, and
    a nonzero weight that overflows or rounds to zero raises ValueError.
    """
    value = Fraction(text.strip())
    if mode == "exact":
        return value
    if mode == "float":
        try:
            as_float = float(value)
        except OverflowError:
            as_float = None
        if value and not as_float:
            raise ValueError(f"weight {text.strip()} is outside the float range")
        return as_float
    raise ValueError(f"unknown arithmetic mode {mode!r}")


def weight_to_str(w) -> str:
    if isinstance(w, Fraction):
        return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"
    if isinstance(w, int):
        return str(w)
    return repr(float(w))


def safe_log(x) -> float:
    """log of a positive number that may be a Fraction too large for float()."""
    if isinstance(x, Fraction):
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(x)


# ---------------------------------------------------------------------------
# Rigorous rational bounds on natural logarithms.
#
# For q in [1, 2) write y = (q-1)/(q+1) in [0, 1/3); then
#     ln q = 2 * sum_{j>=0} y^(2j+1) / (2j+1),
# every partial sum is a strict lower bound, and the tail after J terms is
# below y^(2J+1) / ((2J+1) (1-y^2)).  Larger q is reduced by powers of two.
# ---------------------------------------------------------------------------


def _atanh_series_bounds(y: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    if y == 0:
        return Fraction(0), Fraction(0)
    total = Fraction(0)
    power = y
    y2 = y * y
    for j in range(terms):
        total += power / (2 * j + 1)
        power *= y2
    tail = power / ((2 * terms + 1) * (1 - y2))
    return 2 * total, 2 * (total + tail)


def ln_bounds(q: Fraction | int) -> tuple[Fraction, Fraction]:
    """Exact rational (lower, upper) bounds on ln(q) for q > 0, from 24 series terms."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("ln_bounds requires a positive argument")
    if q < 1:
        lo, hi = ln_bounds(1 / q)
        return -hi, -lo
    m = 0
    while q >= 2:
        q /= 2
        m += 1
    y = (q - 1) / (q + 1)
    lo, hi = _atanh_series_bounds(y, 24)
    return lo + m * LN2_LO, hi + m * LN2_HI


LN2_LO, LN2_HI = _atanh_series_bounds(Fraction(1, 3), 40)


# ---------------------------------------------------------------------------
# Exact linear algebra over the integers (small orders).
# ---------------------------------------------------------------------------


def _integers(values) -> list[int]:
    """``values`` as a list, raising TypeError on a non-integer: ``//`` would floor it silently."""
    values = list(values)
    for x in values:
        if not isinstance(x, int):
            raise TypeError(f"the exact kernel takes integers, got {type(x).__name__} {x!r}")
    return values


def _eliminate(rows: Sequence[Sequence[int]], right: Sequence[Sequence[int]]):
    """Fraction-free (Bareiss) forward elimination of the integer matrix ``[rows | right]``.

    Every division is exact.  Returns ``(sign, m)``, ``m`` upper triangular in
    its first n columns with ``det(rows) == sign * m[-1][-1]``, or None when
    ``rows`` is singular.
    """
    n = len(rows)
    sign = prev = 1
    m: list[list[int]] = []
    for row, extra in zip(rows, right, strict=True):
        if len(row) != n:
            raise ValueError("determinant requires a square matrix")
        m.append(_integers([*row, *extra]))
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return None
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        top, pivot = m[k], m[k][k]
        for row in m[k + 1:]:
            f, row[k] = row[k], 0
            tail = row[k + 1:]
            if f:
                row[k + 1:] = [(x * pivot - f * y) // prev for x, y in zip(tail, top[k + 1:])]
            else:  # the row is only rescaled: one product fewer per entry
                row[k + 1:] = [x * pivot // prev for x in tail]
        prev = pivot
    return sign, m


def det_exact(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix: the last Bareiss pivot, signed by the row swaps."""
    done = _eliminate(rows, [()] * len(rows))
    if done is None:
        return 0
    sign, m = done
    return sign * m[-1][-1] if m else 1


def _solve_block(rows: Sequence[Sequence[int]], right: Sequence[Sequence[int]]):
    """rows^{-1} right as ``(X, det)``: integer numerators over det(rows).

    det(rows) is the last Bareiss pivot signed by the row swaps, and det
    times the solution is integral (Cramer's rule), so the back substitution
    X_i = (det c_i - sum_{j>i} U_ij X_j) / U_ii divides exactly in integers
    (Nakos, Turner and Williams, 1997).
    """
    done = _eliminate(rows, right)
    if done is None:
        raise ZeroDivisionError("singular matrix in exact elimination")
    (sign, m), n = done, len(rows)
    if not m:
        return [], 1
    det = sign * m[-1][n - 1]
    x: list[list[int]] = [[]] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = [det * c for c in row[n:]]
        for j in range(i + 1, n):
            u = row[j]
            if u:
                acc = [a - u * b for a, b in zip(acc, x[j])]
        pivot = row[i]
        x[i] = [a // pivot for a in acc]
    return x, det


def solve_exact(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[list[int], int]:
    """Solve A x = b over the integers: ``(X, det A)`` with x = X / det A."""
    x, det = _solve_block(rows, [[b] for b in rhs])
    return [xi for (xi,) in x], det


def inverse_exact(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Inverse of an integer matrix: ``(X, det A)`` with A^{-1} = X / det A."""
    n = len(rows)
    return _solve_block(rows, [[int(i == j) for j in range(n)] for i in range(n)])


def interpolate_exact(values: Sequence[int]) -> tuple[list[int], int]:
    """The polynomial p through (k, values[k]), k = 0..n, as ``(C, n!)``: p = C / n!.

    C holds the ascending integer coefficients of n! p(z): forward differences
    of the values, then Horner on the Newton form with the weights n!/k!.
    """
    ys = _integers(values)
    n = len(ys) - 1
    for k in range(1, n + 1):  # ys[k] becomes Delta^k y_0
        for i in range(n, k - 1, -1):
            ys[i] -= ys[i - 1]
    out: list[int] = []
    weight = 1  # n!/k!
    for k in range(n, -1, -1):  # out <- out * (z - k) + (n!/k!) Delta^k y_0
        out = [a - k * b for a, b in zip([0, *out], [*out, 0])]
        out[0] += weight * ys[k]
        weight *= k or 1
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out, weight
