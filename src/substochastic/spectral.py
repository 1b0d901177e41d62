"""Perron roots, characteristic polynomials of I - zA, resolvents, ladders.

Every Perron bracket is a Collatz-Wielandt bracket: min_i (Bx)_i/x_i <=
rho(B) <= max_i (Bx)_i/x_i holds for every positive vector x and
nonnegative B, so the method that chooses x only decides how narrow the
bracket is.  Floating-point roots take x from a short power loop on A + I
(the shift removes periodicity); a component that loop does not settle gets
x from the first-return equation over a greedy cycle transversal, checked
by one quotient evaluation, and otherwise goes back to the loop, which
raises when it runs out of steps.  Exact rational brackets run the power
iteration over integers from a float-seeded vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cycles import _cycle_paths, _numerators, peel_transversal
from .digraph import WeightedDigraph, _integer_weights, float_weight, strong_components
from .errors import BudgetExceededError, SpectralRadiusError
from .families import TruncationFamily, truncate
from .rational import charpoly_exact, det_exact, inverse_exact, solve_exact

_SPARSE_THRESHOLD = 256

# Width of the exact Perron brackets that ``radius_brackets`` certifies with.
BRACKET_WIDTH = Fraction(1, 10**18)

# Power steps taken before the transversal route is tried.  Components that
# converge within them keep the power loop's bracket bit for bit: example2's
# star needs 34-35 steps at every n and the CLI's default example1 108.  On
# small components the route (about 0.7 ms of Python) costs as much as
# another 128 dense steps: over the random strong digraphs of order 2-32
# that certification draws, the 77 components needing 129-192 steps took
# 55 ms through the route against 17 ms through the rest of the loop, and
# the break-even lies near 256.  On example2 at n = 10^4 the route alone is
# about twice as slow as the loop's 35 steps.
_ROUTE_PREFIX = 256

# Largest greedy transversal W the route accepts.  Each Newton step runs one
# plain-Python pass over the arcs per vertex of W, so the route costs about
# |W| times the arcs times ten Newton steps, in Python, against about ten
# numpy nanoseconds per arc and power step for the loop.  The beaded chains
# need |W| = 27 at n = 400, 34 at n = 600 and 48 at n = 1200, where the
# route takes 10-60 ms; at n = 600 the loop alone ran 500,000 steps (11 s)
# and raised.
_ROUTE_MAX_W = 64

# Newton steps are capped far above the handful a root needs; the
# Collatz-Wielandt check, not the step count, decides the result.
_NEWTON_STEPS = 100
_EPS = float(np.finfo(float).eps)
_SQRT_EPS = math.sqrt(_EPS)


# ---------------------------------------------------------------------------
# Floating Perron root with Collatz-Wielandt certificate
# ---------------------------------------------------------------------------


class EdgeOperator:
    """A on a vertex set, held as arrays of its arcs in ``d.arcs`` order.

    ``rows`` and ``cols`` are the arcs' tail and head positions in the
    sorted vertex set and ``vals`` their float weights.  ``op @ x`` is A x
    and ``op.rmatvec(x)`` is A^T x, both bincount matvecs; ``toarray`` gives
    the dense A (the library's only dense builder).
    """

    def __init__(self, k: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
        self.shape = (k, k)
        self.rows = rows
        self.cols = cols
        self.vals = vals

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=self.vals * x.take(self.cols),
                           minlength=self.shape[0])

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.cols, weights=self.vals * x.take(self.rows),
                           minlength=self.shape[0])

    def toarray(self) -> np.ndarray:
        m = np.zeros(self.shape)
        np.add.at(m, (self.rows, self.cols), self.vals)
        return m


def _arc_arrays(d: WeightedDigraph) -> tuple[np.ndarray, np.ndarray]:
    """The ends (u0, v0, u1, v1, ...) and float weights of ``d.arcs`` in order, memoised on ``d``.

    An exact weight outside the float range is NaN here; ``edge_operator``
    names it through ``float_weight`` when its arc is asked for.
    """

    def build():
        m = len(d.arcs)
        ends = np.fromiter(itertools.chain.from_iterable(d.arcs), np.intp, 2 * m)
        try:
            vals = np.fromiter(d.arcs.values(), float, m)
        except OverflowError:
            vals = None
        if vals is None or not vals.all():  # weights are positive: 0.0 is an underflow
            vals = np.fromiter(map(_float_or_nan, d.arcs.items()), float, m)
        return ends, vals

    return d.memo("arc_arrays", build)


def _float_or_nan(item) -> float:
    try:
        return float_weight(*item)
    except ValueError:
        return math.nan


def edge_operator(d: WeightedDigraph, vertices=None) -> EdgeOperator:
    """A on the subdigraph induced on ``vertices`` (default: all), reindexed in sorted order.

    The arcs are sliced from the memoised arc arrays through a vertex-to-position
    lookup, in ``d.arcs`` order.  An exact weight no float holds raises
    ValueError from ``float_weight``, naming the first such arc of the subdigraph.
    """
    ends, vals = _arc_arrays(d)
    verts = np.arange(d.order) if vertices is None else np.array(sorted(vertices), np.intp)
    pos = np.full(d.order, -1, np.intp)
    pos[verts] = np.arange(len(verts))
    at = pos[ends]
    rows, cols = at[0::2], at[1::2]
    inside = np.flatnonzero((rows >= 0) & (cols >= 0))
    vals = vals[inside]
    bad = np.flatnonzero(np.isnan(vals))
    if len(bad):
        arc = next(itertools.islice(d.arcs.items(), int(inside[bad[0]]), None))
        float_weight(*arc)  # raises
    return EdgeOperator(len(verts), rows[inside], cols[inside], vals)


def _converged(lo: float, hi: float, tol: float) -> bool:
    return hi - lo <= tol * max(hi, 1e-300)


def _power_steps(step, x: np.ndarray, count: int, tol: float):
    """Up to ``count`` power steps x -> step(x) with Collatz-Wielandt quotients on A + I.

    Returns ``(lo, hi, x, converged)``; without convergence x is the last
    normalised iterate, from which the loop can resume.
    """
    lo, hi = 0.0, math.inf
    for _ in range(count):
        y = step(x)
        q = y / x
        lo = float(q.min()) - 1.0
        hi = float(q.max()) - 1.0
        if _converged(lo, hi, tol):
            return lo, hi, x, True
        x = y / y.max()
    return lo, hi, x, False


def _power_brackets(op: EdgeOperator, tol: float, max_iter: int) -> tuple[float, float]:
    """Brackets for rho(A) on an irreducible component, A held by ``op``.

    Power steps run on A + I (the shift removes periodicity), densely below
    ``_SPARSE_THRESHOLD`` vertices.  A component not converged after
    ``_ROUTE_PREFIX`` steps (or ``max_iter``, if fewer) tries the transversal
    route, which accepts its vector only through one Collatz-Wielandt check.
    Otherwise the loop resumes, from the route's vector when it has one,
    for the rest of its steps, and a component it does not settle either
    raises RuntimeError with the steps run and the last bracket.  Every
    returned bracket is a Collatz-Wielandt bracket of a positive vector,
    which bounds rho(A) whatever chose the vector.
    """
    k = op.shape[0]
    if k < _SPARSE_THRESHOLD:
        step = (op.toarray() + np.eye(k)).__matmul__
        budget = min(max_iter, 5000)
    else:
        step = lambda x: x + op @ x  # noqa: E731
        budget = max_iter
    prefix = min(budget, _ROUTE_PREFIX)
    lo, hi, x, done = _power_steps(step, np.ones(k), prefix, tol)
    if done:
        return lo, hi
    route = _transversal_route(op)
    if route is not None:
        rlo, rhi, x = route
        if _converged(rlo, rhi, tol):
            # Widen to half the tolerance about the same midpoint.  The float
            # quotients carry rounding of their own, as does any other float
            # estimate of the radius (numpy's eigenvalues on example1 at
            # n = 300 sit 7 ulps above the true root), and a bracket a few
            # ulps wide would exclude them.
            pad = max(0.0, tol * rhi / 2 - (rhi - rlo)) / 2
            return rlo - pad, rhi + pad
    if budget > prefix:  # with no steps left, keep the prefix's last bracket
        lo, hi, _x, done = _power_steps(step, x, budget - prefix, tol)
        if done:
            return lo, hi
    raise RuntimeError(
        f"power iteration did not reach tolerance {tol} in {budget} steps "
        f"(bracket [{lo}, {hi}])"
    )


def _transversal_route(op: EdgeOperator) -> tuple[float, float, np.ndarray] | None:
    """Collatz-Wielandt bracket of a Perron vector built through a cycle transversal.

    With W a greedy cycle transversal (``cycles.peel_transversal``), mu =
    1/lambda and F the first-return matrix of ``first_return``, rho(A) =
    1/mu exactly when rho(F(mu)) = 1.  Newton's method on log rho(F)
    against log mu starts at 1/max row sum, a lower bound on the root;
    rho(F) is log-convex in log mu (Kingman), so after the first step the
    iterates fall monotonically, and they stop when a step stalls at
    rounding level.  The vector is x_W, the Perron vector of F, on W, and
    on R its extension by ``first_return``, so A x = lambda x up to
    rounding.  The bracket is min and max of (A x)_i / x_i, unshifted, so
    that a small root keeps its relative precision.  Returns ``(lo, hi,
    x)``, or None without a small W or a finite positive x.
    """
    k = op.shape[0]
    out: list[dict[int, float]] = [{} for _ in range(k)]
    for r, c, w in zip(op.rows.tolist(), op.cols.tolist(), op.vals.tolist()):
        out[r][c] = w
    peeled = peel_transversal(out, range(k), _ROUTE_MAX_W)
    if peeled is None:
        return None
    order, transversal = peeled

    # Newton in log mu, kept inside [lo_mu, hi_mu] with rho(F) <= 1 at lo_mu
    # and rho(F) > 1 (or overflow) at hi_mu; a step leaving it bisects.  It
    # stops at a step of a few eps, or at a step below sqrt(eps) that did not
    # halve the one before: in the quadratic phase that is rounding noise.
    mu = lo_mu = 1.0 / float((op @ np.ones(k)).max())
    hi_mu = last = math.inf
    right = None
    for _ in range(_NEWTON_STEPS):
        f, df = (np.array(cols).T for cols in first_return(out, order, transversal, mu))
        rho, right = _perron_eig(f)
        _rho, left = _perron_eig(f.T)
        # left @ right is 0 when F underflows to a reducible matrix
        finite = 0 < rho < math.inf and bool(np.isfinite(df).all())
        overlap = float(left @ right) if finite else 0.0
        slope = mu * float(left @ df @ right) / (rho * overlap) if overlap > 0 else 0.0
        if not 0 < slope < math.inf:
            right = None
            if mu == lo_mu:
                return None
            hi_mu, last = mu, math.inf
            mu = lo_mu * math.sqrt(hi_mu / lo_mu)
            continue
        if rho <= 1:
            lo_mu = mu
        else:
            hi_mu = mu
        newton = -math.log(rho) / slope
        size = abs(newton)
        if size <= 4 * _EPS or _SQRT_EPS >= size >= last / 2:
            break
        last = size
        mu = mu * math.exp(min(newton, 64.0))  # at most a factor e^64 upwards
        if not lo_mu < mu < hi_mu:
            mu, last = lo_mu * math.sqrt(hi_mu / lo_mu), math.inf
    if right is None:
        return None

    # The eigensolver gives x_W to eps in absolute terms only, which leaves
    # its tiny entries (1e-16 of the largest on sparse random digraphs)
    # without correct digits.  F x_W = x_W, and a sum of nonnegative terms
    # keeps relative accuracy, so |W| - 1 steps x_W <- F x_W carry the
    # accuracy of the large entries to the small ones, one arc of F a step.
    for _ in range(len(transversal) - 1):
        right = f @ right
        right /= right.max()
    vec = np.array(first_return(out, order, transversal, mu, (right / right.max()).tolist()))
    if not (np.isfinite(vec).all() and (vec > 0).all()):
        return None
    q = (op @ vec) / vec
    return float(q.min()), float(q.max()), vec / vec.max()


def first_return(out, order: Sequence[int], transversal: Sequence[int], z, values=None):
    """First returns to a cycle transversal W through the acyclic rest R, in z's arithmetic.

    ``out[v]`` maps the heads of v's out-arcs to their weights; ``order``
    lists R with each vertex after its heads outside W, as from
    ``cycles.peel_transversal``.  One pass over R, then over W's rows, sets
    h(v) = z sum_u a_vu h(u) and dh/dz from h given on W.  For h the
    indicator of w, W's rows give column w of F(z), Meyer's Perron
    complement: weight * z^length summed over the paths from W to W with
    interior in R.  Returns the columns of F(z) and dF/dz, or with
    ``values`` on W their extension over R.  Sums start from z's zero, so
    Fractions stay exact: det(I_W - F(z)) = det(I - zA) by Schur's formula.
    """
    k, m = len(out), len(transversal)
    rows = [*order, *transversal]
    slots = [*order, *range(k, k + m)]  # W's rows write past the vertices, where no arc reads
    zero = type(z)(0)
    starts = [values] if values is not None else [
        [zero + (w == t) for w in transversal] for t in transversal]
    f_cols, df_cols = [], []
    for start in starts:
        h, hd = [zero] * (k + m), [zero] * (k + m)
        for w, value in zip(transversal, start):
            h[w] = value
        for v, slot in zip(rows, slots):
            s = sd = zero
            arcs = out[v]
            for u in arcs:  # keys and a lookup: faster than items() on rows of 1-2 arcs
                a = arcs[u]
                s += a * h[u]
                sd += a * hd[u]
            h[slot] = z * s
            hd[slot] = s + z * sd
        f_cols.append(h[k:])
        df_cols.append(hd[k:])
    return (f_cols, df_cols) if values is None else h[:k]


def _perron_eig(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Eigenvalue of largest real part of a square float matrix, and abs of its eigenvector.

    For a nonnegative matrix that is the Perron root and vector.  A 1 x 1
    matrix answers at once, and one with a non-finite entry gives
    ``(inf, ones)``.
    """
    k = m.shape[0]
    if k == 1:
        return float(m[0, 0]), np.ones(1)
    if not np.isfinite(m).all():
        return math.inf, np.ones(k)
    vals, vecs = np.linalg.eig(m)
    i = int(np.argmax(vals.real))
    return float(vals[i].real), np.abs(vecs[:, i])


def _max_over_components(d: WeightedDigraph, zero, component_brackets):
    """Brackets for the Perron root of ``d`` as the max over its strong components.

    A single-vertex component contributes its loop weight (``zero`` without
    one); ``component_brackets(comp)`` brackets every larger component.
    """
    lo = hi = zero
    for comp in strong_components(d):
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
    per component.  A NaN or infinite ``tol`` is rejected before any step.
    """
    if not math.isfinite(tol):
        raise ValueError(f"tolerance must be finite, got {tol}")
    return _max_over_components(
        d, 0.0, lambda comp: _power_brackets(edge_operator(d, comp), tol, max_iter)
    )


def perron_root(d: WeightedDigraph, tol: float = 1e-12) -> float:
    """Spectral radius of the weighted adjacency matrix to relative tolerance."""
    lo, hi = collatz_wielandt_brackets(d, tol)
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# Exact rational Perron brackets
# ---------------------------------------------------------------------------


def perron_bounds(
    d: WeightedDigraph, width: Fraction = BRACKET_WIDTH, max_iter: int = 20_000
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


def _integer_power_brackets(d, comp, width, max_iter):
    """Collatz-Wielandt brackets on one strong component, in integers.

    B = scale (I + A) has integer entries, read off the memoised rows b / L_u
    of ``_integer_weights``: ``scale`` is the lcm of the reduced denominators
    L_u / gcd(b, L_u) over the component's own arcs.  The first step takes x = all
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
    local = [(lcm, [(idx[j], b) for j, b in arcs if j in idx])
             for lcm, arcs in map(_integer_weights(d).__getitem__, comp)]
    scale = math.lcm(*(lcm // math.gcd(b, lcm) for lcm, arcs in local for _j, b in arcs))
    rows = [[(i, scale)] + [(j, b * scale // lcm) for j, b in arcs]  # the +I shift, then A
            for i, (lcm, arcs) in enumerate(local)]

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
        vec = None
        if step == 0:
            # the float Perron vector of A, which is that of I + A; solving A
            # keeps it accurate when the weights are tiny
            try:
                _rho, vec = _perron_eig(edge_operator(d, comp).toarray())
            except ValueError:  # a weight beyond the float range, or LinAlgError
                pass
        if vec is not None and np.isfinite(vec).all() and vec.max() > 0:
            x = [max(1, int(c)) for c in (vec / vec.max() * 2.0**62).tolist()]
        else:
            shift = max(0, max(y).bit_length() - 160)
            x = [max(1, yi >> shift) for yi in y]
    return Fraction(y[lo], scale * x[lo]) - 1, Fraction(y[hi], scale * x[hi]) - 1


# ---------------------------------------------------------------------------
# The matrices I - zA
# ---------------------------------------------------------------------------


def exact_shifted(d: WeightedDigraph, z=1) -> tuple[list[list[int]], list[int]]:
    """I - zA as integer rows with row scales: ``(rows, scales)``.

    Row i is s_i (e_i - z A_i), where s_i is the lcm L_i of row i's weight
    denominators times the denominator of z, so det(I - zA) is
    det(rows) / prod(scales) and (I - zA) x = b is rows x = scales * b.
    Float weights enter as their exact binary rationals.  The integer rows
    L_i A_i are memoised on ``d``, and no Fraction matrix is built: the
    exact eliminations run on these integers directly.
    """
    zn, zd = Fraction(z).as_integer_ratio()
    n = d.order
    rows, scales = [], []
    for i, (lcm, arcs) in enumerate(_integer_weights(d)):
        row = [0] * n
        for j, a in arcs:
            row[j] = -a * zn
        row[i] += lcm * zd
        rows.append(row)
        scales.append(lcm * zd)
    return rows, scales


def float_shifted(d: WeightedDigraph) -> np.ndarray:
    """I - A as a dense float array."""
    return np.eye(d.order) - edge_operator(d).toarray()


def radius_brackets(d: WeightedDigraph) -> tuple:
    """(lo, hi) around the Perron root in the digraph's arithmetic, memoised on ``d``.

    Exact digraphs get ``perron_bounds`` at ``BRACKET_WIDTH``; float digraphs get
    the float root as a point bracket.
    """
    if d.is_exact:
        return perron_bounds(d)
    return d.memo("radius_brackets", lambda: (perron_root(d),) * 2)


def contractive_radius(d: WeightedDigraph):
    """The upper radius bracket, raising SpectralRadiusError unless it is below 1."""
    lo, hi = radius_brackets(d)
    if hi >= 1:
        raise SpectralRadiusError(f"spectral radius bracket [{lo}, {hi}] not certified below 1")
    return hi


# ---------------------------------------------------------------------------
# Characteristic polynomial of I - zA
# ---------------------------------------------------------------------------


def coates_charpoly(d: WeightedDigraph, budget: int = 2_000_000) -> list:
    """Coefficients (ascending in z) of det(I - zA) assembled cycle by cycle.

    Each union of vertex-disjoint cycles U contributes
    (-1)^{count(U)} weight(U) z^{total_length(U)}.  The cycles are weighed
    in the integer numerators of one denominator D (``cycles._numerators``;
    a float weight enters as its exact binary rational), so coefficient k is
    an integer sum over D^k, divided once: exact, and rounded once to a
    float on a float digraph, as ``charpoly``'s elimination is.  Exhausting
    the cycle or union budget aborts; partial sums are not valid polynomials
    and are never returned.
    """
    den, adj = _numerators(d)
    cycles = []
    for path, weight in _cycle_paths(d, None, adj):
        if len(cycles) == budget:
            raise BudgetExceededError(
                f"cycle enumeration exceeded budget {budget} before union assembly"
            )
        mask = 0
        for v in path:
            mask |= 1 << v
        cycles.append((mask, weight, len(path)))

    coeffs = [1] + [0] * d.order
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

    rec(0, 0, 1, 0, 0)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    coeffs = [Fraction(c, den**k) for k, c in enumerate(coeffs)]
    return coeffs if d.is_exact else [float(c) for c in coeffs]


def charpoly(d: WeightedDigraph, method: str = "elimination", budget: int = 2_000_000) -> list:
    """det(I - zA) coefficients via Coates unions or elimination.

    The elimination route reduces the integer rows of I - zA to Hessenberg
    form modulo word-size primes and reconstructs the exact coefficients by
    the Chinese remainder theorem (:func:`rational.charpoly_exact`).  Both
    routes lift float weights to their exact binary rationals and round each
    exact coefficient once, so they agree bit for bit in either arithmetic
    while sharing no step past the integer weights.  The coefficients are
    memoised on ``d`` per method (and per budget for Coates, whose budget
    can fail a call).
    """
    if method == "coates":
        return list(d.memo(("charpoly", method, budget),
                           lambda: tuple(coates_charpoly(d, budget))))
    if method != "elimination":
        raise ValueError(f"unknown charpoly method {method!r}")
    if d.order > 128:
        raise BudgetExceededError("elimination charpoly capped at order 128")
    return list(d.memo(("charpoly", method), lambda: tuple(_elimination_charpoly(d))))


def det_shifted(d: WeightedDigraph, z=1) -> Fraction:
    """det(I - zA) exactly: one Fraction, the integer rows' determinant over prod(scales)."""
    rows, scales = exact_shifted(d, z)
    return Fraction(det_exact(rows), math.prod(scales))


def solve_shifted(d: WeightedDigraph, b: Sequence[int], z=1) -> tuple[list[Fraction], Fraction]:
    """(I - zA)^{-1} b and det(I - zA) exactly, b integral, from one elimination.

    The integer rows are solved against ``scales * b``; a singular I - zA
    raises ZeroDivisionError.
    """
    rows, scales = exact_shifted(d, z)
    x, det = solve_exact(rows, [s * x for s, x in zip(scales, b, strict=True)])
    return [Fraction(xi, det) for xi in x], Fraction(det, math.prod(scales))


def _elimination_charpoly(d: WeightedDigraph) -> list:
    coeffs, den = charpoly_exact(_integer_weights(d))
    coeffs = [Fraction(c, den) for c in coeffs]
    return coeffs if d.is_exact else [float(c) for c in coeffs]


def det_i_minus(d: WeightedDigraph):
    """det(I - A), memoised on ``d``: fraction-free elimination when exact, pivoted LU otherwise."""
    return d.memo("det_i_minus", lambda: det_shifted(d) if d.is_exact
                  else float(np.linalg.det(float_shifted(d))))


def resolvent_diagonal(d: WeightedDigraph) -> list:
    """All diagonal entries of (I - A)^{-1}, memoised on ``d``.

    ``contractive_radius`` guards rho(A) < 1 on every call; after the first
    it only reads the memoised radius bracket.
    """
    contractive_radius(d)

    def compute():
        if not d.is_exact:
            inv = np.linalg.inv(float_shifted(d))
            return tuple(float(inv[i, i]) for i in range(d.order))
        # (S^{-1} R)^{-1} = R^{-1} S for the integer rows R and row scales S,
        # and R^{-1} = X / det R: only the n diagonal entries become Fractions
        rows, scales = exact_shifted(d)
        x, det = inverse_exact(rows)
        return tuple(Fraction(x[i][i] * s, det) for i, s in enumerate(scales))

    return list(d.memo("resolvent_diagonal", compute))


# ---------------------------------------------------------------------------
# Truncation ladders
# ---------------------------------------------------------------------------


@dataclass
class TruncationSpectrum:
    values: dict[int, float] = field(default_factory=dict)
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
) -> TruncationSpectrum:
    """Perron roots lambda_n along truncations of a family.

    Modes:
      * ``leading``: Perron root of the order-n leading truncation.
      * ``sup_exact``: exhaustive supremum of the float Perron roots of all
        order-n induced subdigraphs of the truncation at ``window`` (finite
        stand-in for the infinite supremum; n <= 15, at most 200,000 subsets).
      * ``witness``: Perron root of the family's declared order-n witness
        submatrix, a certified lower bound on the supremum.
    """
    spectrum = TruncationSpectrum()
    ns = sorted(set(n_values))
    for n in ns:
        if mode == "leading":
            value = perron_root(truncate(family, n))
        elif mode == "sup_exact":
            if n > 15:
                raise BudgetExceededError("sup_exact mode limited to n <= 15")
            big = window if window is not None else max(ns) + 5
            host = truncate(family, max(big, n))
            if math.comb(host.order, n) > 200_000:
                raise BudgetExceededError(
                    f"sup_exact would enumerate {math.comb(host.order, n)} subsets"
                )
            value = 0.0
            for subset in itertools.combinations(range(host.order), n):
                value = max(value, perron_root(host.induced(subset)))
        elif mode == "witness":
            if family.witness_submatrix is None:
                raise ValueError(f"family {family.name} declares no witness submatrix")
            verts = list(family.witness_submatrix(n))
            host = truncate(family, max(verts) + 1)
            value = perron_root(host.induced(verts))
        else:
            raise ValueError(f"unknown ladder mode {mode!r}")
        spectrum.values[n] = value

    computed_sup = max(spectrum.values.values(), default=0.0)
    declared = family.facts.spectral_limit
    est = None
    if declared is None and len(ns) >= 3:
        est = _aitken(*(spectrum.values[n] for n in ns[-3:]))
    if declared is not None:
        spectrum.limit_estimate, spectrum.limit_method = float(declared), "closed-form"
    elif est is not None and est >= computed_sup:
        spectrum.limit_estimate, spectrum.limit_method = est, "extrapolated"
    else:
        spectrum.limit_estimate, spectrum.limit_method = computed_sup, "supremum-of-computed"
    return spectrum
