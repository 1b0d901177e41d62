"""Exact rational helpers: weight parsing, rigorous log bounds, exact linear algebra.

Nothing here rounds.  The linear algebra is an integer kernel: one
fraction-free (Bareiss) elimination serves determinants, solves and inverses,
and interpolation at the nodes 0..n runs in integers too.  Characteristic
polynomials come from residues modulo word-size primes (a Hessenberg
reduction of all primes at once in one numpy array) and the Chinese
remainder theorem.  The kernel takes integers only (a Fraction or float
raises TypeError) and returns integers over one denominator.
:mod:`substochastic.spectral` clears the denominators of I - zA into its
integer rows and builds the Fractions from the results.
"""

from __future__ import annotations

import math
import re
import threading
from fractions import Fraction
from typing import Sequence

import numpy as np


def is_exact_number(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


# A weight: an optional sign, then p/q with q > 0 or a decimal with an
# optional exponent, in ASCII digits with no "_" grouping and no inner
# space, optionally surrounded by whitespace.
_WEIGHT = re.compile(
    r"\s*[-+]?(?:[0-9]+/0*[1-9][0-9]*|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)\s*")


def parse_weight(text: str) -> Fraction:
    """Parse a weight string, either a decimal like ``"0.25"`` or ``"3/4"``, exactly.

    Text outside that grammar (``_WEIGHT``) raises ValueError naming it.
    """
    if not _WEIGHT.fullmatch(text):
        raise ValueError(f"weight {text!r} is not a decimal or p/q with q > 0")
    return Fraction(text.strip())


def weight_to_str(w) -> str:
    if isinstance(w, Fraction):
        return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"
    if isinstance(w, int):
        return str(w)
    return repr(float(w))


def safe_log(x) -> float:
    """log of a positive number that may be a Fraction too large for float()."""
    if type(x) is float:  # the common case, before the slower isinstance test of an ABC
        return math.log(x)
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


# ---------------------------------------------------------------------------
# Characteristic polynomials modulo word-size primes.
#
# With D = diag(L) and B integral, det(D - zB) = prod(L) det(I - zM) for
# M = D^{-1} B.  Modulo a prime p that divides no L_i, elementary
# similarities reduce M to upper Hessenberg form H, and the Hessenberg
# recurrence gives det(lambda I - H), whose reversal is det(I - zM).  The
# primes are slices of one int64 array, so the Python-level work is O(n)
# array operations however many primes the bound needs (per group of primes,
# when they are so many that one array would pass 8 MB).  Residues lie below
# 2**31, so every product of two stays below 2**62.
# ---------------------------------------------------------------------------

_PRIMES: list[int] = []  # the primes below 2**31, descending, grown on demand
_PRIMES_LOCK = threading.Lock()
_GROUP_ENTRIES = 2**20  # entries of one (primes, n, n) int64 array: 8 MB


def _is_prime(m: int) -> bool:
    """Miller-Rabin with the bases 2, 3, 5 and 7, deterministic for odd 7 < m < 3,215,031,751."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _word_prime(k: int) -> int:
    """The k-th largest prime below 2**31 (k = 0 is 2**31 - 1).

    The primes are appended under a lock and read without it.
    """
    if k >= len(_PRIMES):
        with _PRIMES_LOCK:
            while k >= len(_PRIMES):
                m = _PRIMES[-1] - 2 if _PRIMES else 2**31 - 1
                while not _is_prime(m):
                    m -= 2
                _PRIMES.append(m)
    return _PRIMES[k]


def _moduli(scale: int, bound: int) -> list[int]:
    """The fewest primes below 2**31 with a product above 2 * bound, none dividing ``scale``."""
    primes, product, k = [], 1, 0
    while product <= 2 * bound:
        p = _word_prime(k)
        k += 1
        if scale % p:
            primes.append(p)
            product *= p
    return primes


def _symmetric_crt(residues: Sequence[Sequence[int]], primes: Sequence[int]) -> list[int]:
    """Per column of ``residues`` (one row per prime), the x with |x| <= (N - 1)/2 it gives.

    N is the product of the distinct odd ``primes``.
    """
    modulus = math.prod(primes)
    weights = [modulus // p * pow(modulus // p, -1, p) for p in primes]
    out = []
    for column in zip(*residues):
        x = sum(r * w for r, w in zip(column, weights, strict=True)) % modulus
        out.append(x - modulus if 2 * x > modulus else x)
    return out


def charpoly_exact(rows: Sequence) -> tuple[list[int], int]:
    """det(I - z D^{-1} B) as ``(C, prod(L))``: C ascends, trailing zeros dropped.

    ``rows`` holds, per row i, ``(L_i, ((j, B_ij), ...))`` with L_i > 0: D is
    diag(L) and B is zero off the listed entries.  C holds the integer
    coefficients c_k of det(D - zB).  Expanding each row of D - zB and
    bounding det(B_SS) by Hadamard gives sum_k |c_k| <= prod_i (L_i +
    sum_j |B_ij|); the c_k are reconstructed from their residues modulo the
    fewest primes whose product exceeds twice that bound.
    """
    n = len(rows)
    lcms = _integers(lcm for lcm, _row in rows)
    arcs = [(i, j, b) for i, (_lcm, row) in enumerate(rows) for j, b in row]
    _integers(b for _i, _j, b in arcs)
    scale = math.prod(lcms)
    primes = _moduli(scale, math.prod(lcm + sum(abs(b) for _j, b in row) for lcm, row in rows))
    # a group of primes at a time bounds the memory: float weights can need hundreds
    group = max(1, _GROUP_ENTRIES // (n * n or 1))
    residues = []
    for k in range(0, len(primes), group):
        residues += _charpoly_residues(n, lcms, arcs, scale, primes[k:k + group]).tolist()
    coeffs = _symmetric_crt(residues, primes)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs, scale


def _charpoly_residues(n: int, lcms: list[int], arcs: list, scale: int, primes: list[int]):
    """Per prime, the ascending residues of det(D - zB): ``arcs`` lists (i, j, B_ij)."""
    p = np.array(primes, dtype=np.int64)
    p1, p2 = p[:, None], p[:, None, None]

    # H = D^{-1} B modulo every prime
    h = np.zeros((len(primes), n, n), dtype=np.int64)
    if arcs:
        i, j, values = zip(*arcs)
        entries = []
        for q in primes:
            inverses = [pow(lcm, -1, q) for lcm in lcms]
            entries.append([b * inverses[k] % q for k, b in zip(i, values)])
        h[:, i, j] = entries

    # Upper Hessenberg form with a unit subdiagonal, one column at a time.
    # Column c keeps its pivot and u below the diagonal: they stand for the
    # unit subdiagonal entry and the zeros under it, and are never read again.
    every = np.arange(len(primes))
    for c in range(n - 2):
        col = h[:, c + 1:, c]  # the pivot, then u
        pivots = col[:, 0].tolist()
        if not all(pivots):  # swap row and column c + 1 with the first nonzero row below
            nonzero = col != 0
            r = nonzero.argmax(axis=1) + (c + 1)
            h[every, c + 1], h[every, r] = h[every, r], h[every, c + 1]
            h[every, :, c + 1], h[every, :, r] = h[every, :, r], h[every, :, c + 1]
            # nothing to pivot on: H is block triangular, and the block above
            # right does not enter the characteristic polynomial
            empty = ~nonzero.any(axis=1)
            h[empty, :c + 1, c + 1:] = 0
            h[empty, c + 1, c] = 1
            pivots = col[:, 0].tolist()
        inverse = np.array([pow(x, -1, q) for x, q in zip(pivots, primes)], dtype=np.int64)
        # similarity by S = diag(1/pivot at c + 1), then by I - u e_{c+1}^T
        h[:, c + 1, c + 1:] = h[:, c + 1, c + 1:] * inverse[:, None] % p1
        h[:, c + 2:, c + 1:] -= col[:, 1:, None] * h[:, c + 1, None, c + 1:]
        h[:, c + 2:, c + 1:] %= p2
        h[:, :, c + 1] = (h[:, :, c + 1:] * col[:, None, :] % p2).sum(axis=2) % p1
    if n > 1:  # the last subdiagonal entry needs no elimination: S alone, even when it is 0
        h[:, :n - 1, n - 1] = h[:, :n - 1, n - 1] * h[:, n - 1, n - 2, None] % p1

    # det(lambda I - H) for a unit subdiagonal: p_{b+1} = lambda p_b - sum_{a <= b} H_ab p_a
    polys = np.zeros((len(primes), n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = [scale % q for q in primes]  # so p_n carries the factor prod(L)
    for b in range(n):
        s = (h[:, :b + 1, b, None] * polys[:, :b + 1, :b + 1] % p2).sum(axis=1)
        polys[:, b + 1, 1:b + 2] = polys[:, b, :b + 1]
        polys[:, b + 1, :b + 1] -= s
        polys[:, b + 1, :b + 1] %= p1

    # det(D - zB) = prod(L) z^n det(I/z - H): p_n reversed
    return polys[:, n, ::-1]
