"""Perron roots, characteristic polynomials of I - zA, resolvents, ladders.

Floating-point Perron roots come from power iteration on A + I (the shift
removes periodicity) with Collatz-Wielandt bracketing as the convergence
certificate.  Exact rational brackets use the same iteration over integers,
valid because min_i (Bx)_i/x_i <= rho(B) <= max_i (Bx)_i/x_i holds for every
positive vector x and nonnegative B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cycles import enumerate_cycles
from .digraph import WeightedDigraph, strongly_connected_components
from .errors import BudgetExceededError, SpectralRadiusError
from .families import TruncationFamily, truncate
from .rational import det_exact, interpolate_exact, inverse_exact, poly_eval, solve_exact

_SPARSE_THRESHOLD = 256


# ---------------------------------------------------------------------------
# Floating Perron root with Collatz-Wielandt certificate
# ---------------------------------------------------------------------------


class _EdgeOperator:
    """I + A on one strong component, held as arrays of its arcs.

    ``op @ x`` is a bincount matvec; ``toarray`` gives the dense matrix for
    the eigensolver fallback.
    """

    def __init__(self, k: int, rows: list[int], cols: list[int], vals: list[float]):
        self.shape = (k, k)
        self.rows = np.array(rows, dtype=np.intp)
        self.cols = np.array(cols, dtype=np.intp)
        self.vals = np.array(vals, dtype=float)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return x + np.bincount(self.rows, weights=self.vals * x.take(self.cols),
                               minlength=self.shape[0])

    def toarray(self) -> np.ndarray:
        m = np.eye(self.shape[0])
        np.add.at(m, (self.rows, self.cols), self.vals)
        return m


def _component_operator(d: WeightedDigraph, comp: list[int]):
    """I + A on a strong component: an edge operator when large, else dense."""
    idx = {v: i for i, v in enumerate(sorted(comp))}
    rows, cols, vals = [], [], []
    for (u, v), w in d.arcs.items():
        if u in idx and v in idx:
            rows.append(idx[u])
            cols.append(idx[v])
            vals.append(float(w))
    op = _EdgeOperator(len(idx), rows, cols, vals)
    return op if len(idx) >= _SPARSE_THRESHOLD else op.toarray()


def _power_brackets(op, tol: float, max_iter: int) -> tuple[float, float]:
    """Brackets for rho(A) where op = A + I on an irreducible component.

    When the iteration stalls (tiny spectral gap) the dominant eigenvector
    from a dense solve seeds one more quotient evaluation; the resulting
    bracket is still a genuine Collatz-Wielandt certificate because the
    bounds hold for every positive vector.
    """
    k = op.shape[0]
    x = np.ones(k)
    lo, hi = 0.0, math.inf
    budget = min(max_iter, 5000) if k < _SPARSE_THRESHOLD else max_iter
    for _ in range(budget):
        y = op @ x
        q = y / x
        lo = float(q.min()) - 1.0
        hi = float(q.max()) - 1.0
        if hi - lo <= tol * max(hi, 1e-300):
            return lo, hi
        x = y / y.max()
    if k <= 2048:
        dense = op if isinstance(op, np.ndarray) else op.toarray()
        eigvals, eigvecs = np.linalg.eig(dense)
        vec = np.abs(np.real(eigvecs[:, int(np.argmax(np.abs(eigvals)))]))
        vec = np.maximum(vec, vec.max() * 1e-280)
        for _ in range(50):
            y = dense @ vec
            q = y / vec
            lo = float(q.min()) - 1.0
            hi = float(q.max()) - 1.0
            if hi - lo <= tol * max(hi, 1e-300):
                return lo, hi
            vec = y / y.max()
    raise RuntimeError(
        f"power iteration did not reach tolerance {tol} in {max_iter} steps "
        f"(bracket [{lo}, {hi}])"
    )


def _max_over_components(d: WeightedDigraph, zero, component_brackets):
    """Brackets for the Perron root of ``d`` as the max over its strong components.

    A single-vertex component contributes its loop weight (``zero`` without
    one); ``component_brackets(comp)`` brackets every larger component.
    """
    comps = strongly_connected_components(
        {v: list(d.adjacency[v]) for v in range(d.order)}, range(d.order)
    )
    lo = hi = zero
    for comp in comps:
        if len(comp) == 1:
            v = comp[0]
            clo = chi = zero + d.arcs.get((v, v), 0)
        else:
            clo, chi = component_brackets(comp)
        lo = max(lo, clo)
        hi = max(hi, chi)
    return lo, hi


def collatz_wielandt_brackets(
    d: WeightedDigraph, tol: float = 1e-12, max_iter: int = 500_000
) -> tuple[float, float]:
    """Floating (lower, upper) brackets around the Perron root of ``d``.

    Reducible digraphs are condensed into strong components and bracketed
    per component.
    """
    return _max_over_components(
        d, 0.0, lambda comp: _power_brackets(_component_operator(d, comp), tol, max_iter)
    )


def perron_root(d: WeightedDigraph, tol: float = 1e-12) -> float:
    """Spectral radius of the weighted adjacency matrix to relative tolerance."""
    lo, hi = collatz_wielandt_brackets(d, tol)
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# Exact rational Perron brackets
# ---------------------------------------------------------------------------


def perron_bounds(
    d: WeightedDigraph, width: Fraction = Fraction(1, 10**18), max_iter: int = 20_000
) -> tuple[Fraction, Fraction]:
    """Exact rational brackets [lo, hi] containing the Perron root.

    The iteration runs over scaled integers; iterates are renormalized by
    right shifts, which preserves positivity and therefore soundness of the
    Collatz-Wielandt bounds.  Brackets are returned once their width drops
    under ``width`` (or after ``max_iter`` steps, still sound but wider).
    The result is memoised on ``d`` per (width, max_iter).
    """
    if not d.is_exact:
        raise TypeError("perron_bounds requires exact rational weights")
    width = Fraction(width)
    return d.memo(("perron_bounds", width, max_iter), lambda: _max_over_components(
        d, Fraction(0), lambda comp: _integer_power_brackets(d, sorted(comp), width, max_iter)
    ))


def _float_perron_vector(k: int, local) -> np.ndarray | None:
    """abs of the float Perron vector of A (that of I + A too), max 1; None if unusable.

    The Perron root is the eigenvalue of largest real part.  Solving A
    rather than I + A keeps the vector accurate when the weights are tiny.
    """
    m = np.zeros((k, k))
    try:
        for i, j, w in local:
            m[i, j] += float(w)
        eigvals, eigvecs = np.linalg.eig(m)
    except (OverflowError, np.linalg.LinAlgError):  # weights beyond float range
        return None
    vec = np.abs(eigvecs[:, int(np.argmax(eigvals.real))])
    top = vec.max()
    return vec / top if np.isfinite(vec).all() and top > 0 else None


def _integer_power_brackets(d, comp, width, max_iter):
    """Collatz-Wielandt brackets on one strong component, in integers.

    B = scale (I + A) has integer entries.  The first step takes x = all
    ones, which brackets a component with equal row sums exactly.  Otherwise
    x restarts from the float Perron vector scaled to about 2^62, and power
    steps renormalized to 160 bits narrow the bracket.  Every positive
    integer x gives the sound bracket min_i, max_i of (Bx)_i / (scale x_i),
    minus 1; the float only chooses x.  The extreme quotients are found and
    the width is tested by integer cross-multiplication, and the two
    Fractions are built once, from the final (x, y = Bx) pair.
    """
    idx = {v: i for i, v in enumerate(comp)}
    k = len(comp)
    local = [(idx[u], idx[v], Fraction(w)) for (u, v), w in d.arcs.items()
             if u in idx and v in idx]
    scale = math.lcm(*(w.denominator for _u, _v, w in local)) if local else 1
    rows: list[list[tuple[int, int]]] = [[(i, scale)] for i in range(k)]  # the +I shift
    for i, j, w in local:
        rows[i].append((j, int(w * scale)))

    x = [1] * k
    steps = max(1, max_iter)
    for step in range(steps):
        y = [sum(e * x[j] for j, e in row) for row in rows]
        lo = hi = 0  # indices of the least and greatest y_i / x_i
        for i in range(1, k):
            if y[i] * x[lo] < y[lo] * x[i]:
                lo = i
            elif y[i] * x[hi] > y[hi] * x[i]:
                hi = i
        # (y_hi/x_hi - y_lo/x_lo) / scale <= width, cleared of denominators;
        # out of steps, the bracket of this (x, y) pair is still sound
        spread = y[hi] * x[lo] - y[lo] * x[hi]
        if (spread * width.denominator <= width.numerator * scale * x[hi] * x[lo]
                or step == steps - 1):
            break
        vec = _float_perron_vector(k, local) if step == 0 else None
        if vec is not None:
            x = [max(1, int(c)) for c in (vec * 2.0**62).tolist()]
        else:
            shift = max(0, max(y).bit_length() - 160)
            x = [max(1, yi >> shift) for yi in y]
    return Fraction(y[lo], scale * x[lo]) - 1, Fraction(y[hi], scale * x[hi]) - 1


# ---------------------------------------------------------------------------
# The matrices cI - zA
# ---------------------------------------------------------------------------


def exact_shifted(d: WeightedDigraph, z=1, c=1) -> list[list[Fraction]]:
    """Rows of cI - zA as Fractions; float weights enter as their exact binary rationals."""
    c, z, n = Fraction(c), Fraction(z), d.order
    m = [[c if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for (u, v), w in d.arcs.items():
        m[u][v] -= z * Fraction(w)
    return m


def float_shifted(d: WeightedDigraph, c: float = 1.0) -> np.ndarray:
    """cI - A as a dense float array."""
    return c * np.eye(d.order) - d.to_numpy()


def _i_minus_a(d: WeightedDigraph):
    """I - A in the digraph's arithmetic."""
    return exact_shifted(d) if d.is_exact else float_shifted(d)


def _check_contractive(d: WeightedDigraph, assume_contractive: bool) -> None:
    """Raise unless rho(A) < 1 is possible (a float bracket; skipped when assumed)."""
    if not assume_contractive:
        lo, _hi = collatz_wielandt_brackets(d, tol=1e-10)
        if lo >= 1:
            raise SpectralRadiusError(f"spectral radius >= 1 (lower bracket {lo})")


# ---------------------------------------------------------------------------
# Characteristic polynomial of I - zA
# ---------------------------------------------------------------------------


def coates_charpoly(d: WeightedDigraph, budget: int = 2_000_000) -> list:
    """Coefficients (ascending in z) of det(I - zA) assembled cycle by cycle.

    Each union of vertex-disjoint cycles U contributes
    (-1)^{count(U)} weight(U) z^{total_length(U)}.  Exact when the weights
    are rational.  Exhausting the union budget aborts; partial sums are not
    valid polynomials and are never returned.
    """
    cycles = []
    stream = enumerate_cycles(d, max_count=budget)
    for c in stream:
        mask = 0
        for v in c.vertices:
            mask |= 1 << v
        cycles.append((mask, c.weight, c.length))
    if stream.truncated:
        raise BudgetExceededError(
            f"cycle enumeration exceeded budget {budget} before union assembly"
        )

    exact = d.is_exact
    coeffs = [Fraction(0) if exact else 0.0] * (d.order + 1)
    coeffs[0] = Fraction(1) if exact else 1.0
    m = len(cycles)
    visited = 0

    def rec(i, mask, weight, length, count):
        nonlocal visited
        for j in range(i, m):
            cmask, cweight, clength = cycles[j]
            if cmask & mask:
                continue
            visited += 1
            if visited > budget:
                raise BudgetExceededError(
                    f"cycle-union budget {budget} exhausted after {visited} unions "
                    f"({m} cycles); partial sums discarded"
                )
            w2 = weight * cweight
            l2 = length + clength
            sign = -1 if (count + 1) % 2 else 1
            coeffs[l2] += sign * w2
            rec(j + 1, cmask | mask, w2, l2, count + 1)

    rec(0, 0, Fraction(1) if exact else 1.0, 0, 0)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def charpoly(d: WeightedDigraph, method: str = "elimination", budget: int = 2_000_000) -> list:
    """det(I - zA) coefficients via Coates unions or elimination.

    The elimination route evaluates the determinant exactly (fraction-free)
    at order+1 integer points and interpolates; float weights are lifted to
    their exact binary rationals first, so both routes are exact and the two
    methods are independent of each other.  The coefficients are memoised on
    ``d`` per method (and per budget for Coates, whose budget can fail a call).
    """
    if method == "coates":
        return list(d.memo(("charpoly", method, budget),
                           lambda: tuple(coates_charpoly(d, budget))))
    if method != "elimination":
        raise ValueError(f"unknown charpoly method {method!r}")
    if d.order > 128:
        raise BudgetExceededError("elimination charpoly capped at order 128")
    return list(d.memo(("charpoly", method), lambda: tuple(_elimination_charpoly(d))))


def _elimination_charpoly(d: WeightedDigraph) -> list:
    points = list(range(d.order + 1))
    values = [det_exact(exact_shifted(d, z)) for z in points]
    coeffs = interpolate_exact(points, values)
    return coeffs if d.is_exact else [float(c) for c in coeffs]


def det_i_minus(d: WeightedDigraph):
    """det(I - A), memoised on ``d``: fraction-free elimination when exact, pivoted LU otherwise."""
    def compute():
        m = _i_minus_a(d)
        return det_exact(m) if d.is_exact else float(np.linalg.det(m))

    return d.memo("det_i_minus", compute)


def resolvent_diag(d: WeightedDigraph, v: int, *, assume_contractive: bool = False):
    """(I - A)^{-1}(v, v) by linear solve; requires spectral radius < 1."""
    if not 0 <= v < d.order:
        raise ValueError(f"vertex {v} out of range")
    _check_contractive(d, assume_contractive)
    m = _i_minus_a(d)
    if d.is_exact:
        return solve_exact(m, [int(i == v) for i in range(d.order)])[v]
    rhs = np.zeros(d.order)
    rhs[v] = 1.0
    return float(np.linalg.solve(m, rhs)[v])


def resolvent_diagonal(d: WeightedDigraph, *, assume_contractive: bool = False) -> list:
    """All diagonal entries of (I - A)^{-1}, memoised on ``d``.

    The contractivity check runs on every call that asks for it; the
    diagonal itself does not depend on it.
    """
    _check_contractive(d, assume_contractive)

    def compute():
        m = _i_minus_a(d)
        if d.is_exact:
            inv = inverse_exact(m)
            return tuple(inv[i][i] for i in range(d.order))
        inv = np.linalg.inv(m)
        return tuple(float(inv[i, i]) for i in range(d.order))

    return list(d.memo("resolvent_diagonal", compute))


@dataclass(frozen=True)
class SpectralReport:
    perron_root: float
    charpoly: tuple
    nonzero_eig_count: int
    det_at_one: object


def spectral_report(d: WeightedDigraph, method: str = "elimination") -> SpectralReport:
    coeffs = charpoly(d, method)
    degree = len(coeffs) - 1 if any(c != 0 for c in coeffs[1:]) else 0
    return SpectralReport(
        perron_root=perron_root(d),
        charpoly=tuple(coeffs),
        nonzero_eig_count=degree,
        det_at_one=poly_eval(coeffs, Fraction(1) if d.is_exact else 1.0),
    )


# ---------------------------------------------------------------------------
# Truncation ladders
# ---------------------------------------------------------------------------


@dataclass
class TruncationSpectrum:
    values: dict[int, float] = field(default_factory=dict)
    methods: dict[int, str] = field(default_factory=dict)
    limit_estimate: float | None = None
    limit_method: str | None = None


def _aitken(v1: float, v2: float, v3: float) -> float | None:
    denom = v3 - 2 * v2 + v1
    if abs(denom) < 1e-300:
        return None
    return v3 - (v3 - v2) ** 2 / denom


def perron_ladder(
    family: TruncationFamily,
    n_values: Sequence[int],
    mode: str = "leading",
    window: int | None = None,
    tol: float = 1e-12,
    subset_budget: int = 200_000,
) -> TruncationSpectrum:
    """Perron roots lambda_n along truncations of a family.

    Modes:
      * ``leading``: Perron root of the order-n leading truncation.
      * ``sup_exact``: certified supremum over all order-n induced
        subdigraphs of the truncation at ``window`` (finite stand-in for the
        infinite supremum; n <= 15).
      * ``witness``: Perron root of the family's declared order-n witness
        submatrix, a certified lower bound on the supremum.
    """
    from itertools import combinations

    spectrum = TruncationSpectrum()
    ns = sorted(set(n_values))
    for n in ns:
        if mode == "leading":
            value = perron_root(truncate(family, n), tol)
            label = "leading"
        elif mode == "sup_exact":
            if n > 15:
                raise BudgetExceededError("sup_exact mode limited to n <= 15")
            big = window if window is not None else max(ns) + 5
            host = truncate(family, max(big, n))
            if math.comb(host.order, n) > subset_budget:
                raise BudgetExceededError(
                    f"sup_exact would enumerate {math.comb(host.order, n)} subsets"
                )
            value = 0.0
            for subset in combinations(range(host.order), n):
                value = max(value, perron_root(host.induced(subset), tol))
            label = f"sup-over-subsets-of-{host.order}"
        elif mode == "witness":
            if family.witness_submatrix is None:
                raise ValueError(f"family {family.name} declares no witness submatrix")
            verts = list(family.witness_submatrix(n))
            host = truncate(family, max(verts) + 1)
            value = perron_root(host.induced(verts), tol)
            label = "witness-lower-bound"
        else:
            raise ValueError(f"unknown ladder mode {mode!r}")
        spectrum.values[n] = value
        spectrum.methods[n] = label

    computed_sup = max(spectrum.values.values(), default=0.0)
    declared = family.facts.spectral_limit
    if declared is not None:
        spectrum.limit_estimate = float(declared)
        spectrum.limit_method = "closed-form"
    elif len(ns) >= 3:
        est = _aitken(*(spectrum.values[n] for n in ns[-3:]))
        if est is not None and est >= computed_sup:
            spectrum.limit_estimate = est
            spectrum.limit_method = "extrapolated"
        else:
            spectrum.limit_estimate = computed_sup
            spectrum.limit_method = "supremum-of-computed"
    else:
        spectrum.limit_estimate = computed_sup
        spectrum.limit_method = "supremum-of-computed"
    return spectrum
