"""Shared fixtures: tiny named digraphs and independent brute-force oracles.

The oracles here deliberately avoid the library's algorithmic code paths:
determinants go through Leibniz permutation sums, cycle sets through a naive
path search, acyclicity through Kahn peeling, and spectra through numpy's
dense eigensolver.  Fifteen fast paths keep the code they replaced as an
oracle: exact Perron brackets (the all-ones Fraction-quotient iteration),
float Perron brackets (the power loop on I + A with its dense-eig fallback,
without the transversal route), the minimum cycle transversal (the branch
and bound pruned by the packing bound alone, without the Levy–Low
reduction), unbounded cycle enumeration (Johnson's blocked search), exact
solves and inverses (Gauss–Jordan over Fraction), the matrices I - zA
(built entry by entry over Fraction, not as integer rows), polynomial
interpolation (Newton divided differences over Fraction on any nodes), the
elimination characteristic polynomial (exact determinants of I - zA at
z = 0..n, interpolated in integers, not residues modulo word-size primes), the
check of a family's declared facts (every cycle of every truncation, not
one peel and one length search on the last), the supremum of cycle gains
(one ``Gain`` per cycle of Johnson's search, with Fraction products, not a
running weight, length and log over integer numerators), the
argmax conjecture scan (one Kahn peel per k-subset, not a pruned search of
the transversals), Tarjan's strong components (with an on-stack set and a
``next`` call per arc), the float arc operator (one pass over the arcs
per call, not slices of memoised arc arrays), the shortest cycle (a
breadth-first search from every vertex on each call, not a scan that
resumes after removals) and the Coates assembly of det(I - zA) (Fraction
products of ``oracle_cycles``, not integer numerators over one
denominator).
"""

import functools
import itertools
import math
import random
import sys
import threading
from collections import defaultdict, deque
from fractions import Fraction
from fractions import Fraction as F
from typing import Iterator

import numpy as np
import pytest

from substochastic import WeightedDigraph, truncate
from substochastic.constructions import BUILTIN_FAMILIES, family_from_config
from substochastic.cycles import (
    GAIN_ZERO,
    Gain,
    TransversalResult,
    _succ_sets,
    is_cycle_transversal,
    min_cycle_transversal,
)
from substochastic.digraph import _integer_weights, float_weight
from substochastic.errors import BudgetExceededError
from substochastic.families import family_to_float
from substochastic.inequalities import (
    ConjectureRecord,
    fingerprint,
    instance_stream,
    random_strong_digraph,
)
from substochastic.rational import det_exact, interpolate_exact, safe_log
from substochastic.spectral import (
    _EIG_MAX_ORDER,
    EdgeOperator,
    _max_over_components,
    exact_shifted,
    resolvent_diagonal,
)


# ---------------------------------------------------------------------------
# Named digraphs
# ---------------------------------------------------------------------------


def loop(w=F(7, 10)) -> WeightedDigraph:
    return WeightedDigraph(1, {(0, 0): w})


def two_cycle(p=F(1, 2), q=F(1, 2)) -> WeightedDigraph:
    return WeightedDigraph(2, {(0, 1): p, (1, 0): q})


def triangle(a=F(1, 3), b=F(1, 4), c=F(1, 5)) -> WeightedDigraph:
    return WeightedDigraph(3, {(0, 1): a, (1, 2): b, (2, 0): c})


def k3(w=F(1, 4)) -> WeightedDigraph:
    return WeightedDigraph(3, {(u, v): w for u in range(3) for v in range(3) if u != v})


def acyclic3() -> WeightedDigraph:
    return WeightedDigraph(3, {(0, 1): F(1, 2), (0, 2): F(1, 3), (1, 2): F(1, 4)})


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def brute_cycles(d: WeightedDigraph, max_length=None) -> set[tuple[int, ...]]:
    """All simple cycles as canonical (min-vertex-first) tuples; naive DFS."""
    succ = {v: sorted(w for (u, w) in d.arcs if u == v) for v in range(d.order)}
    found: set[tuple[int, ...]] = set()

    def walk(start, path, seen):
        if max_length is not None and len(path) > max_length:
            return
        for w in succ[path[-1]]:
            if w == start and (max_length is None or len(path) <= max_length):
                found.add(tuple(path))
            if w > start and w not in seen:
                walk(start, path + [w], seen | {w})

    for s in range(d.order):
        walk(s, [s], {s})
    return found


def lifted(d: WeightedDigraph) -> WeightedDigraph:
    """The same digraph with every weight as its exact rational (a float's binary one)."""
    return WeightedDigraph(d.order, {a: F(w) for a, w in d.arcs.items()})


def oracle_cycles(d: WeightedDigraph) -> list[tuple[tuple[int, ...], object]]:
    """Every simple cycle as ``(vertices, weight)``, in the order the library yields them.

    Loops first, then Johnson's blocked search (SIAM J. Comput. 4(1), 1975)
    from the minimal vertex of each nontrivial strong component, which is
    removed before the rest is re-split: the unbounded enumeration as it was
    before the lock search took it over.  The weights are ``Fraction``
    products on an exact digraph, ``int`` arcs included, and products of
    the weights as they are otherwise.
    """
    if d.is_exact:
        d = lifted(d)
    out = [((v,), d.arcs[(v, v)]) for v in range(d.order) if (v, v) in d.arcs]
    adj = {v: [] for v in range(d.order)}
    for (u, v), w in d.arcs.items():
        if u != v:
            adj[u].append((v, w))
    succ = {v: [w for w, _ in adj[v]] for v in range(d.order)}
    comps = [set(c) for c in oracle_strongly_connected_components(succ, range(d.order))
             if len(c) >= 2]
    while comps:
        comp = comps.pop()
        start = min(comp)
        local = {v: [(w, wt) for w, wt in adj[v] if w in comp] for v in comp}
        out.extend((tuple(path), weight) for path, weight in _johnson_paths(local, start))
        comp.discard(start)
        sub = {v: [w for w in succ[v] if w in comp] for v in comp}
        comps.extend(set(c) for c in oracle_strongly_connected_components(sub, comp) if len(c) >= 2)
    return out


def oracle_strongly_connected_components(succ, vertices) -> list[list[int]]:
    """Tarjan's algorithm as it was before the lean pass: a ``next(it, None)``
    per arc, an on-stack set and ``min`` for every low-link update."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0

    for root in vertices:
        if root in index:
            continue
        work: list[tuple[int, Iterator[int]]] = [(root, iter(succ.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            w = next(it, None)
            if w is not None:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    x = stack.pop()
                    on_stack.discard(x)
                    comp.append(x)
                    if x == v:
                        break
                comps.append(comp)
    return comps


def oracle_edge_operator(d: WeightedDigraph, vertices=None) -> EdgeOperator:
    """``spectral.edge_operator`` as it was before the memoised arc arrays: one
    Python pass over ``d.arcs`` per call, each weight through ``float_weight``."""
    verts = range(d.order) if vertices is None else sorted(vertices)
    idx = {v: i for i, v in enumerate(verts)}
    rows, cols, vals = [], [], []
    for (u, v), w in d.arcs.items():
        if u in idx and v in idx:
            rows.append(idx[u])
            cols.append(idx[v])
            vals.append(float_weight((u, v), w))
    return EdgeOperator(len(idx), np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
                        np.array(vals, dtype=float))


def _johnson_paths(adj, start):
    """Yield (live_path, weight) for every simple cycle through ``start``.

    ``live_path`` is reused between yields; callers that keep it must copy.
    """
    path = [start]
    prefix = [1]
    blocked = {start}
    closed = [False]
    blocked_deps: dict[int, set[int]] = defaultdict(set)
    stack: list[Iterator[tuple[int, object]]] = [iter(adj[start])]
    while stack:
        advanced = False
        for w, wt in stack[-1]:
            if w == start:
                yield path, prefix[-1] * wt
                closed[-1] = True
            elif w not in blocked:
                path.append(w)
                prefix.append(prefix[-1] * wt)
                closed.append(False)
                blocked.add(w)
                stack.append(iter(adj[w]))
                advanced = True
                break
        if advanced:
            continue
        stack.pop()
        v = path.pop()
        prefix.pop()
        if closed.pop():
            if closed:
                closed[-1] = True
            unblock = {v}
            while unblock:
                u = unblock.pop()
                if u in blocked:
                    blocked.discard(u)
                    unblock.update(blocked_deps[u])
                    blocked_deps[u].clear()
        else:
            for w, _ in adj[v]:
                blocked_deps[w].add(v)


def oracle_sup_cycle_gain(
    d: WeightedDigraph,
    max_length: int | None = None,
    proper_only: bool = True,
    max_count: int | None = None,
) -> Gain:
    """``sup_cycle_gain`` as it was with one ``Gain`` per cycle, compared by ``Gain.__lt__``.

    The cycles and their weights come from ``oracle_cycles``, filtered by
    length.  A float digraph's gains compare by logs instead, each weight's
    log against the best's; an underflowed weight 0.0 never wins.  The
    first of equal gains is kept, so a tie between cycles of different
    weight and length settles on the earlier one.
    """
    arc_total = len(d.arcs)
    best = GAIN_ZERO
    seen = 0
    for path, weight in oracle_cycles(d):
        if (max_length is not None and len(path) > max_length) or (
                proper_only and len(path) == arc_total):
            continue
        if max_count is not None and seen >= max_count:
            raise BudgetExceededError(
                f"cycle budget {max_count} exhausted; partial max gain attached",
                partial=best,
            )
        seen += 1
        g = Gain(weight, len(path))
        if d.is_exact:
            if best < g:
                best = g
        elif weight and (best is GAIN_ZERO or best.length * safe_log(weight)
                         > g.length * safe_log(best.weight)):
            best = g
    return best


def oracle_coates_charpoly(d: WeightedDigraph) -> list:
    """det(I - zA) assembled cycle by cycle as it was before the integer numerators.

    The cycles and their ``Fraction`` weights come from ``oracle_cycles`` of
    the exact lift of ``d``, and each union of vertex-disjoint cycles adds
    its signed weight product to its coefficient, starting from ``Fraction``
    0 and 1.  A float digraph's coefficients are then rounded once.
    """
    if not d.is_exact:
        return [float(c) for c in oracle_coates_charpoly(lifted(d))]
    cycles = [(frozenset(vs), w, len(vs)) for vs, w in oracle_cycles(d)]
    coeffs = [F(1)] + [F(0)] * d.order

    def rec(i, used, weight, length, count):
        for j in range(i, len(cycles)):
            vs, w, k = cycles[j]
            if vs & used:
                continue
            coeffs[length + k] += (-1 if count % 2 == 0 else 1) * (weight * w)
            rec(j + 1, used | vs, weight * w, length + k, count + 1)

    rec(0, frozenset(), F(1), 0, 0)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def oracle_validate_metadata(family, n_max: int) -> list[str]:
    """Violations of a family's declared transversal, its size and cycle lengths, cycle by cycle.

    ``validate_metadata`` as it was before it checked only the last
    truncation: every cycle of every truncation of order 1..n_max, here
    from the naive search.  A finite ``sct_size`` fails when it exceeds the
    declared transversal, or when sct_size + 1 pairwise vertex-disjoint
    cycles exist (searched exhaustively, where the library packs greedily).
    """
    facts = family.facts
    violations = []
    sct = None if facts.sct_size == math.inf else facts.sct_size
    if sct is not None and facts.transversal is not None and len(facts.transversal) < sct:
        violations.append("declared transversal is smaller than declared sct_size")
    for n in range(1, n_max + 1):
        cycles = sorted(brute_cycles(family.generator(n)))
        if sct is not None and any(
            len(set().union(*packing)) == sum(map(len, packing))
            for packing in itertools.combinations(cycles, sct + 1)
        ):
            violations.append(f"n={n}: more disjoint cycles than declared sct_size")
        for cyc in cycles:
            if facts.transversal is not None and not set(cyc) & facts.transversal:
                violations.append(f"n={n}: cycle {cyc} misses declared transversal")
            if facts.l_max is not None and len(cyc) > facts.l_max:
                violations.append(f"n={n}: cycle {cyc} is longer than declared l_max")
            if facts.l_min is not None and len(cyc) < facts.l_min:
                violations.append(f"n={n}: cycle {cyc} is shorter than declared l_min")
    return violations


def brute_is_acyclic(d: WeightedDigraph, removed=frozenset()) -> bool:
    """Kahn peeling; loops count as cycles."""
    keep = [v for v in range(d.order) if v not in removed]
    arcs = [(u, v) for (u, v) in d.arcs if u in keep and v in keep]
    if any(u == v for u, v in arcs):
        return False
    indeg = {v: 0 for v in keep}
    for _u, v in arcs:
        indeg[v] += 1
    queue = [v for v in keep if indeg[v] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for (x, v) in arcs:
            if x == u:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
    return seen == len(keep)


def brute_min_fvs(d: WeightedDigraph) -> int:
    for size in range(d.order + 1):
        for subset in itertools.combinations(range(d.order), size):
            if brute_is_acyclic(d, frozenset(subset)):
                return size
    raise AssertionError("removing all vertices is always acyclic")


def leibniz_det(rows) -> F:
    n = len(rows)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = F(sign)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def oracle_shifted(d: WeightedDigraph, z=1) -> list[list[F]]:
    """I - zA entry by entry over Fraction; float weights as their exact binary rationals."""
    z, n = F(z), d.order
    m = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for (u, v), w in d.arcs.items():
        m[u][v] -= z * F(w)
    return m


def poly_eval(coeffs, z):
    """Horner evaluation of the ascending coefficients at ``z``."""
    acc = 0
    for c in reversed(list(coeffs)):
        acc = acc * z + c
    return acc


def _gauss_jordan(rows, right):
    """Reduce [rows | right] exactly to [I | rows^{-1} right]; returns the right block."""
    n = len(rows)
    a = [
        [Fraction(x) for x in row] + [Fraction(x) for x in extra]
        for row, extra in zip(rows, right, strict=True)
    ]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix in exact elimination")
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def oracle_solve(rows, rhs) -> list[F]:
    return [x for (x,) in _gauss_jordan(rows, [[b] for b in rhs])]


def oracle_inverse(rows) -> list[list[F]]:
    n = len(rows)
    return _gauss_jordan(rows, [[int(i == j) for j in range(n)] for i in range(n)])


def oracle_det(rows) -> F:
    """Determinant over Fraction by Gaussian elimination: the signed product of the pivots."""
    a = [[F(x) for x in row] for row in rows]
    det = F(1)
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k] != 0), None)
        if piv is None:
            return F(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for row in a[k + 1:]:
            f = row[k] / a[k][k]
            row[k:] = [x - f * y for x, y in zip(row[k:], a[k][k:])]
    return det


def oracle_interpolate(points, values) -> list[F]:
    """Coefficients (ascending) of the polynomial through the given points.

    Newton divided differences, everything exact.
    """
    xs = [Fraction(x) for x in points]
    coeffs_newton = [Fraction(v) for v in values]
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coeffs_newton[i] = (coeffs_newton[i] - coeffs_newton[i - 1]) / (xs[i] - xs[i - j])
    # expand Newton form to monomial coefficients
    out = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        # out <- out * (x - xs[i]) + c_i
        carry = [Fraction(0)] * n
        for k in range(n - 1):
            carry[k + 1] += out[k]
            carry[k] -= xs[i] * out[k]
        carry[0] += coeffs_newton[i]
        out = carry
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def oracle_elimination_charpoly(d: WeightedDigraph) -> list:
    """det(I - zA) coefficients: Bareiss determinants at z = 0..n, interpolated in integers."""
    # at integer z the row scales are the lcms L_i, so the integer determinants at
    # z = 0..n share the denominator prod(L_i): one Fraction per coefficient
    dets = [det_exact(exact_shifted(d, z)[0]) for z in range(d.order + 1)]
    coeffs, den = interpolate_exact(dets)
    den *= math.prod(lcm for lcm, _arcs in _integer_weights(d))
    coeffs = [Fraction(c, den) for c in coeffs]
    return coeffs if d.is_exact else [float(c) for c in coeffs]


def dense_matrix(d: WeightedDigraph) -> np.ndarray:
    """The dense float A, built arc by arc apart from ``spectral.edge_operator``."""
    m = np.zeros((d.order, d.order))
    for (u, v), w in d.arcs.items():
        m[u, v] = float(w)
    return m


def eig_radius(d: WeightedDigraph) -> float:
    if d.order == 0:
        return 0.0
    return float(max(abs(np.linalg.eigvals(dense_matrix(d)))))


def oracle_perron_bounds(d: WeightedDigraph, width=F(1, 10**18), max_iter: int = 20_000):
    """The exact Perron bracket as computed before the float-seeded iteration.

    Integer power steps from the all-ones vector, with every quotient built
    as a Fraction.  Slow, but independent of the float eigenvector and of the
    integer cross-multiplication in ``spectral._integer_power_brackets``.
    """
    return _max_over_components(
        d, F(0), lambda comp: _allones_power_brackets(d, sorted(comp), width, max_iter)
    )


def _allones_power_brackets(d, comp, width, max_iter):
    idx = {v: i for i, v in enumerate(comp)}
    k = len(comp)
    entries = [Fraction(w) for (u, v), w in d.arcs.items() if u in idx and v in idx]
    scale = math.lcm(*(e.denominator for e in entries)) if entries else 1
    rows: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for (u, v), w in d.arcs.items():
        if u in idx and v in idx:
            rows[idx[u]].append((idx[v], int(Fraction(w) * scale)))
    for i in range(k):
        rows[i].append((i, scale))  # the +I shift

    x = [1] * k
    lo = Fraction(0)
    hi = Fraction(10)
    for _ in range(max_iter):
        y = [sum(e * x[j] for j, e in row) for row in rows]
        quotients = [Fraction(y[i], scale * x[i]) for i in range(k)]
        lo = min(quotients) - 1
        hi = max(quotients) - 1
        if hi - lo <= width:
            break
        shift = max(0, max(y).bit_length() - 160)
        x = [max(1, yi >> shift) for yi in y]
    return lo, hi


class ShiftedOperator:
    """I + A on one strong component, as the float power loop took it.

    ``op @ x`` is a dense product up to ``_EIG_MAX_ORDER`` vertices and x
    plus the bincount matvec above, ``toarray`` is the dense I + A, and
    ``matvecs`` counts the products, i.e. the power steps.
    """

    def __init__(self, d: WeightedDigraph, comp):
        self.edges = oracle_edge_operator(d, comp)
        self.shape = self.edges.shape
        self.matvecs = 0

    @functools.cached_property
    def dense(self):
        return np.eye(self.shape[0]) + self.edges.toarray()

    def __matmul__(self, x):
        self.matvecs += 1
        if self.shape[0] <= _EIG_MAX_ORDER:
            return self.dense @ x
        return x + self.edges @ x

    def toarray(self):
        return self.dense


def oracle_collatz_wielandt_brackets(
    d: WeightedDigraph, tol: float = 1e-12, max_iter: int = 500_000, operators=None
):
    """The float Perron bracket as computed before the transversal route.

    Power steps on I + A from the all-ones vector, then the dense-eig
    fallback.  Each component's ``ShiftedOperator`` is appended to
    ``operators`` when given, so a caller can read its step count.
    """

    def brackets(comp):
        op = ShiftedOperator(d, comp)
        if operators is not None:
            operators.append(op)
        return oracle_power_brackets(op, tol, max_iter)

    return _max_over_components(d, 0.0, brackets)


def oracle_power_brackets(op, tol: float, max_iter: int) -> tuple[float, float]:
    k = op.shape[0]
    x = np.ones(k)
    lo, hi = 0.0, math.inf
    budget = min(max_iter, 5000) if k <= _EIG_MAX_ORDER else max_iter
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


def oracle_min_cycle_transversal(
    d: WeightedDigraph, budget: int = 200_000
) -> tuple[TransversalResult, int]:
    """The minimum cycle transversal search as it was before the Levy–Low bound.

    Same branching, sibling exclusion and greedy incumbent as
    ``cycles._branch_and_bound``, pruned by the greedy disjoint-cycle packing
    of the unreduced residual digraph.  Returns ``(result, nodes)``.
    """
    succ = _succ_sets(d)
    all_vs = set(range(d.order))

    # greedy initial upper bound: hit shortest cycles at maximum-degree vertices
    greedy: set[int] = set()
    while True:
        cyc = oracle_shortest_cycle(succ, all_vs - greedy)
        if cyc is None:
            break
        greedy.add(max(cyc, key=lambda v: len(succ[v]) + sum(v in succ[u] for u in all_vs)))

    best = set(greedy)
    nodes = 0
    exhausted = False

    def rec(removed: set[int], banned: frozenset[int]):
        nonlocal best, nodes, exhausted
        if exhausted or len(removed) >= len(best):
            return
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        cyc = oracle_shortest_cycle(succ, all_vs - removed)
        if cyc is None:
            best = set(removed)
            return
        if len(removed) + 1 >= len(best):
            return
        lb = _packing_count(succ, all_vs - removed)
        if len(removed) + lb >= len(best):
            return
        skip = set(banned)
        for v in cyc:
            if v in banned:
                continue
            rec(removed | {v}, frozenset(skip))
            skip.add(v)

    rec(set(), frozenset())

    assert oracle_shortest_cycle(succ, all_vs - best) is None, "transversal re-verification failed"
    result = TransversalResult(frozenset(best), len(best), "upper-bound" if exhausted else "exact")
    return result, nodes


def oracle_scan_argmax_conjecture(d: WeightedDigraph) -> ConjectureRecord:
    """The argmax conjecture scan as it was before the pruned transversal search.

    Every k-subset of the vertices, in ``itertools.combinations`` order, for
    k = |sct| and |sct| + 1, is tested with one Kahn peel.
    """
    diag = resolvent_diagonal(d)
    peak = max(diag)
    argmax = tuple(v for v in range(d.order) if diag[v] == peak)

    fvs = min_cycle_transversal(d)
    record = ConjectureRecord(fingerprint(d), argmax, 0)
    for size in range(fvs.size, min(d.order, fvs.size + 1) + 1):
        for subset in itertools.combinations(range(d.order), size):
            if not is_cycle_transversal(d, subset):
                continue
            record.transversals_checked += 1
            if not set(subset) & set(argmax):
                record.counterexamples.append(subset)
    return record


def oracle_shortest_cycle(succ, alive: set[int]) -> list[int] | None:
    """Vertex list of a shortest cycle within ``alive``, or None if acyclic.

    The search as it was before it resumed between calls: the smallest
    vertex with a loop, else a full breadth-first search from every vertex
    in increasing order, keeping the first shortest cycle found.
    """
    for v in sorted(alive):
        if v in succ[v]:
            return [v]
    best: list[int] | None = None
    for s in sorted(alive):
        if best is not None and len(best) == 2:
            break
        parent = {s: None}
        queue = deque([s])
        found = None
        while queue:
            u = queue.popleft()
            for w in succ[u]:
                if w not in alive:
                    continue
                if w == s:
                    found = u
                    queue.clear()
                    break
                if w not in parent:
                    parent[w] = u
                    queue.append(w)
            if found is not None:
                break
        if found is not None:
            cyc = [found]
            while parent[cyc[-1]] is not None:
                cyc.append(parent[cyc[-1]])
            cyc.reverse()
            if best is None or len(cyc) < len(best):
                best = cyc
    return best


def _packing_count(succ, alive: set[int]) -> int:
    alive = set(alive)
    count = 0
    while True:
        cyc = oracle_shortest_cycle(succ, alive)
        if cyc is None:
            return count
        count += 1
        alive -= set(cyc)


def brute_reachable(d: WeightedDigraph) -> bool:
    """Strong connectivity via Floyd-Warshall closure."""
    n = d.order
    reach = [[u == v for v in range(n)] for u in range(n)]
    for (u, v) in d.arcs:
        reach[u][v] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return all(reach[i][j] for i in range(n) for j in range(n))


def strong_blocks_with_loops(seed: int) -> WeightedDigraph:
    """One to four random strong digraphs on shuffled vertex labels, plus
    arcs that only run from an earlier block to a later one (so each block
    stays a strong component) and loops on about a third of the vertices."""
    rng = random.Random(f"blocks:{seed}")
    blocks = [random_strong_digraph(rng, rng.randint(1, 8)) for _ in range(rng.randint(1, 4))]
    block_of = [i for i, b in enumerate(blocks) for _ in range(b.order)]
    label = list(range(len(block_of)))
    rng.shuffle(label)
    arcs, base = {}, 0
    for b in blocks:
        arcs.update(((label[base + u], label[base + v]), w) for (u, v), w in b.arcs.items())
        base += b.order
    for x, y in itertools.product(range(len(block_of)), repeat=2):
        if block_of[x] < block_of[y] and rng.random() < 0.2:
            arcs[(label[x], label[y])] = F(1, 5)
        elif x == y and rng.random() < 0.3:
            arcs.setdefault((label[x], label[x]), F(1, 7))
    return WeightedDigraph(len(block_of), arcs)


# The digraphs the strong-component and arc-operator equality tests run on:
# the certify pool's stream, reducible digraphs with loops, and the six
# families at small n in both arithmetics and at n = 2000 in float.
CORPORA = ("instance-stream", "strong-blocks-with-loops", *(
    f"{name}:{n}:{mode}" for name in BUILTIN_FAMILIES
    for n, mode in ((5, "exact"), (5, "float"), (40, "exact"), (40, "float"), (2000, "float"))))


def corpus(which: str) -> list[WeightedDigraph]:
    """Fresh digraphs of one entry of ``CORPORA``."""
    if which == "instance-stream":
        return [d for _, d in instance_stream(7919, 1000, 12)]
    if which == "strong-blocks-with-loops":
        return [strong_blocks_with_loops(seed) for seed in range(300)]
    name, n, mode = which.split(":")
    fam = family_from_config(name)
    return [truncate(fam if mode == "exact" else family_to_float(fam), int(n))]


def run_threads(work, count: int = 4) -> list:
    """Run ``work(i)`` on ``count`` threads started together; return the results.

    A short switch interval makes the threads interleave inside shared memos.
    """
    barrier = threading.Barrier(count)
    results = [None] * count
    errors = []

    def run(i):
        barrier.wait(timeout=60)
        try:
            results[i] = work(i)
        except Exception as exc:  # reported on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    return results


def seeded_digraph(seed: int, order_max: int = 6, weighting: str = "truthly") -> WeightedDigraph:
    rng = random.Random(f"test:{seed}")
    order = rng.randint(2, order_max)
    return random_strong_digraph(rng, order, weighting=weighting)


@pytest.fixture
def rng():
    return random.Random(20240811)
