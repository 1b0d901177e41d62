"""Machine verification of the determinant inequalities, plus the conjecture scan.

Exact mode certifies every comparison through rigorous rational brackets
around the Perron root: an inequality whose right side decreases in the
radius is checked at the upper bracket (sound), and a violation is only
reported when it persists at the bracket end most favorable to the
inequality.  A comparison whose truth still depends on where the radius sits
inside a sub-1e-18 bracket is recorded as an equality-boundary note, never a
violation.

The argmax conjecture scan is different in kind: counterexamples there are
findings to report, not failures.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .cycles import (
    TransversalResult,
    _transversals_of_size,
    is_cycle_transversal,
    min_cycle_transversal,
)
from .digraph import WeightedDigraph, _check_mode, strongly_connected_components
from .errors import BudgetExceededError
from .spectral import (
    charpoly,
    contractive_radius,
    det_i_minus,
    det_shifted,
    radius_brackets,
    resolvent_diagonal,
    solve_shifted,
)


@dataclass
class Violation:
    fingerprint: str
    inequality: str
    lhs: object
    rhs: object
    margin: object


@dataclass
class InequalityReport:
    name: str
    instances_tested: int = 0
    violations: list[Violation] = field(default_factory=list)
    min_margin: object = None
    notes: list[str] = field(default_factory=list)
    findings: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def absorb(self, other: "InequalityReport"):
        """Merge the outcomes of ``other``; instances are counted by ``run_suite``."""
        self.violations.extend(other.violations)
        self.notes.extend(other.notes)
        self.findings.extend(other.findings)
        m = other.min_margin
        if m is not None and (self.min_margin is None or m < self.min_margin):
            self.min_margin = m

    def record(self, fingerprint: str, inequality: str, lhs, rhs):
        """LHS <= RHS expected; margin = RHS - LHS.

        Exact margins are compared strictly; float margins get the scaled
        1e-9 tolerance (equality cases sit on the boundary in both modes).
        """
        margin = rhs - lhs
        slack = 0
        if isinstance(margin, float):
            slack = 1e-9 * max(1.0, abs(float(lhs)), abs(float(rhs)))
        if margin < -slack:
            self.violations.append(Violation(fingerprint, inequality, lhs, rhs, margin))
        if self.min_margin is None or margin < self.min_margin:
            self.min_margin = margin

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "instances_tested": self.instances_tested,
            "violations": [
                {
                    "fingerprint": v.fingerprint,
                    "inequality": v.inequality,
                    "lhs": str(v.lhs),
                    "rhs": str(v.rhs),
                    "margin": str(v.margin),
                }
                for v in self.violations
            ],
            "min_margin": None if self.min_margin is None else str(self.min_margin),
            "notes": self.notes,
            "findings": self.findings,
            "ok": self.ok,
        }


def fingerprint(d: WeightedDigraph) -> str:
    return d.memo("fingerprint", lambda: hashlib.sha1(d.to_json().encode()).hexdigest()[:12])


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


def random_strong_digraph(
    rng: random.Random,
    order: int,
    weighting: str = "truthly",
    arc_prob: float | None = None,
) -> WeightedDigraph:
    """Erdos-Renyi arc set conditioned on strong connectivity, rational weights.

    Up to 2000 arc sets are drawn.  Rows are rescaled to exact random
    out-weight targets with denominator 12 according to ``weighting``:
    "truthly" (<=1, somewhere <1), "strictly" (<1 everywhere), "stochastic"
    (=1), or "substochastic" (<=1).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    p = arc_prob if arc_prob is not None else (0.55 if order <= 4 else 0.35)
    arcs: set[tuple[int, int]] = set()
    for _ in range(2000):
        arcs = {
            (u, v)
            for u in range(order)
            for v in range(order)
            if rng.random() < (p / 2 if u == v else p)
        }
        if order == 1:
            arcs = {(0, 0)} if rng.random() < 0.5 else arcs & {(0, 0)}
        succ: dict[int, list[int]] = {v: [] for v in range(order)}
        for u, w in arcs:
            succ[u].append(w)
        if len(strongly_connected_components(succ, range(order))) == 1:  # a single vertex always is
            break
    else:
        raise RuntimeError("failed to sample a strong digraph")

    den = 12
    targets = []
    for v in range(order):
        if weighting == "stochastic":
            t = Fraction(1)
        elif weighting == "strictly":
            t = Fraction(rng.randint(1, den - 1), den)
        elif weighting in ("truthly", "substochastic"):
            t = Fraction(rng.randint(1, den), den)
        else:
            raise ValueError(f"unknown weighting request {weighting!r}")
        targets.append(t)
    if weighting == "truthly" and all(t == 1 for t in targets):
        targets[rng.randrange(order)] = Fraction(rng.randint(1, den - 1), den)

    weights: dict[tuple[int, int], Fraction] = {}
    for v in range(order):
        out = sorted(succ[v])
        if not out:
            continue
        raw = [Fraction(rng.randint(1, den), den) for _ in out]
        total = sum(raw)
        for w, r in zip(out, raw):
            weights[(v, w)] = r * targets[v] / total
    return WeightedDigraph(order, weights)


def instance_stream(
    seed: int, count: int, order_max: int, weighting: str = "truthly", mode: str = "exact"
) -> Iterable[tuple[int, WeightedDigraph]]:
    """Deterministic instances, each from its own generator seeded by ``f"{seed}:{i}"``."""
    _check_mode(mode)
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        order = rng.randint(2, max(2, order_max))
        d = random_strong_digraph(rng, order, weighting=weighting)
        yield i, (d if mode == "exact" else d.to_float())


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def _radius_power_chain(d: WeightedDigraph, name: str, r: int, sym: str) -> InequalityReport:
    """det(I-A) <= 1 - lambda^r <= r (1-lambda); ``sym`` names the exponent in labels."""
    rep = InequalityReport(name, instances_tested=1)
    fp = fingerprint(d)
    det = det_i_minus(d)
    lo, hi = radius_brackets(d)
    first = f"det<=1-radius^{sym}"
    if r == 0:
        rep.record(fp, first, det, 1)
        return rep
    if det <= 1 - hi**r:
        rep.record(fp, first, det, 1 - hi**r)
    elif det > 1 - lo**r:
        rep.record(fp, first, det, 1 - lo**r)
    else:
        rep.notes.append(f"{fp}: det = 1-radius^{sym} within bracket width")
        rep.record(fp, first, det, det)
    rep.record(fp, f"1-radius^{sym}<={sym}(1-radius)", 1 - hi**r, r * (1 - hi))
    return rep


def check_boyle_handelman(d: WeightedDigraph) -> InequalityReport:
    """det(I-A) <= 1 - lambda^r <= r (1-lambda), r = degree of det(I - zA)."""
    return _radius_power_chain(d, "boyle-handelman", len(charpoly(d)) - 1, "r")


def check_ksv(d: WeightedDigraph) -> InequalityReport:
    """det(I-A) <= 1 - lambda^n <= n (1-lambda) with n the order."""
    return _radius_power_chain(d, "ksv", d.order, "n")


def check_trace_bounds(d: WeightedDigraph) -> InequalityReport:
    """1/(1-lambda) <= trace (I-S)^{-1} <= n/det(I-S), plus the max-diagonal pinch."""
    rep = InequalityReport("lemma-a1", instances_tested=1)
    fp = fingerprint(d)
    hi = contractive_radius(d)
    diag = resolvent_diagonal(d)
    trace = sum(diag)
    det = det_i_minus(d)
    n = d.order
    rep.record(fp, "1/(1-radius)<=trace", 1 / (1 - hi), trace)
    rep.record(fp, "trace<=n/det", trace, n / det)
    rep.record(fp, "1/(n(1-radius))<=max_diag", 1 / (n * (1 - hi)), max(diag))
    rep.record(fp, "max_diag<=1/det", max(diag), 1 / det)
    return rep


def _verified_transversal(d: WeightedDigraph, w: TransversalResult | Iterable[int]) -> frozenset:
    vs = frozenset(w.vertices if isinstance(w, TransversalResult) else w)
    if not d.memo(("is_cycle_transversal", vs), lambda: is_cycle_transversal(d, vs)):
        raise ValueError(f"{sorted(vs)} is not a cycle transversal")
    return vs


def check_diag_transversal_bound(d: WeightedDigraph, w) -> InequalityReport:
    """(I-S)^{-1}(v,v) <= 1 + sum_w ((I-S)^{-1}(w,w) - 1) for every vertex v."""
    rep = InequalityReport("lemma-a2", instances_tested=1)
    fp = fingerprint(d)
    vs = _verified_transversal(d, w)
    diag = resolvent_diagonal(d)
    bound = 1 + sum(diag[x] - 1 for x in vs)
    for v in range(d.order):
        rep.record(fp, f"diag({v})<=1+sum_loops", diag[v], bound)
    return rep


def check_transversal_product(d: WeightedDigraph, w) -> InequalityReport:
    """1/det <= prod_w G(w,w) and max_v G(v,v) <= prod_w G(w,w)."""
    rep = InequalityReport("a1-product", instances_tested=1)
    fp = fingerprint(d)
    vs = _verified_transversal(d, w)
    diag = resolvent_diagonal(d)
    det = det_i_minus(d)
    prod = math.prod(diag[x] for x in vs)
    rep.record(fp, "1/det<=prod", 1 / det, prod)
    rep.record(fp, "max_diag<=prod", max(diag), prod)
    return rep


def _elementary_symmetric(values: Sequence) -> list:
    # sigma_0..sigma_len(values) via the stable DP over prefix polynomials
    coeffs = [1]
    for v in values:
        coeffs = [c + (coeffs[i - 1] * v if i >= 1 else 0) for i, c in enumerate(coeffs + [0])]
    return coeffs


def check_sigma_bound(d: WeightedDigraph, w, k: int) -> InequalityReport:
    """max_v G(v,v) <= sigma_k of the transversal diagonal entries."""
    rep = InequalityReport("sigma-k", instances_tested=1)
    fp = fingerprint(d)
    vs = sorted(_verified_transversal(d, w))
    if not 1 <= k <= len(vs):
        raise ValueError(f"k={k} outside 1..{len(vs)}")
    diag = resolvent_diagonal(d)
    # every sigma_k of one transversal comes from a single DP, memoised on d
    sigmas = d.memo(("elementary_symmetric", tuple(vs)),
                    lambda: _elementary_symmetric([diag[x] for x in vs]))
    rep.record(fp, f"max_diag<=sigma_{k}", max(diag), sigmas[k])
    return rep


def check_zeta_identity(d: WeightedDigraph, v: int, z_samples: Sequence) -> InequalityReport:
    """(I - zS)^{-1}(v,v) det(I - zS) = det(I - z S^(v)) at each sample z.

    Exact equality in rational arithmetic; both sides are recorded so a
    failing sample shows its residual.  Singular samples are skipped with a
    note.
    """
    rep = InequalityReport("zeta", instances_tested=1)
    fp = fingerprint(d)
    if not d.is_exact:
        raise TypeError("the zeta identity check runs in exact mode only")
    n = d.order
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range")
    minor = d.induced(u for u in range(n) if u != v)
    e_v = [int(i == v) for i in range(n)]
    for z in z_samples:
        z = Fraction(z)
        try:  # one elimination gives G(v, v) and det(I - zS)
            g, det_full = solve_shifted(d, e_v, z)
        except ZeroDivisionError:
            rep.notes.append(f"{fp}: sample z={z} singular, skipped")
            continue
        lhs = g[v] * det_full
        det_minor = det_shifted(minor, z)
        rep.record(fp, f"zeta@z={z}", lhs, det_minor)
        rep.record(fp, f"zeta@z={z} (reverse)", det_minor, lhs)
    return rep


# ---------------------------------------------------------------------------
# The argmax conjecture scan (counterexamples are findings, not failures)
# ---------------------------------------------------------------------------


@dataclass
class ConjectureRecord:
    fingerprint: str
    argmax: tuple[int, ...]
    transversals_checked: int
    counterexamples: list[tuple[int, ...]] = field(default_factory=list)


def scan_argmax_conjecture(d: WeightedDigraph) -> ConjectureRecord:
    """Does every cycle transversal contain a vertex of maximal G(v,v)?

    Checks all minimum-size transversals (an unproved minimum raises
    BudgetExceededError) and all transversals one vertex larger, in
    ``itertools.combinations`` order.  A transversal avoiding the argmax set
    entirely is a counterexample, reported verbatim.  The transversals come
    from a search that cuts every branch whose rest holds a cycle, so the cost
    follows the number of transversals rather than the number of subsets: one
    order-20 instance with |W| = 12 has 65 transversals among its 203,490
    subsets of sizes 12 and 13.
    """
    diag = resolvent_diagonal(d)
    peak = max(diag)
    argmax = tuple(v for v in range(d.order) if diag[v] == peak)

    fvs = min_cycle_transversal(d)
    if fvs.optimality != "exact":
        raise BudgetExceededError(f"minimum transversal size {fvs.size} is an upper bound only")
    record = ConjectureRecord(fingerprint(d), argmax, 0)
    for size in range(fvs.size, min(d.order, fvs.size + 1) + 1):
        for subset in _transversals_of_size(d, size):
            record.transversals_checked += 1
            if not set(subset) & set(argmax):
                record.counterexamples.append(subset)
    return record


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------


def _sigma_k(d: WeightedDigraph, rng: random.Random, k: int | None) -> InequalityReport:
    """sigma_k for every k up to the transversal size, or only for min(k, |W|)."""
    w = min_cycle_transversal(d)
    if k is not None:
        return check_sigma_bound(d, w, min(k, w.size))
    rep = InequalityReport("sigma-k")
    for j in range(1, w.size + 1):
        rep.absorb(check_sigma_bound(d, w, j))
    return rep


def _conjecture(d: WeightedDigraph, rng: random.Random, k: int | None) -> InequalityReport:
    """The scan's counterexamples as findings, and the proved lemma-a2 bound as a sanity check."""
    rec = scan_argmax_conjecture(d)
    rep = InequalityReport("conjecture")
    if rec.counterexamples:
        rep.findings.append(
            {
                "fingerprint": rec.fingerprint,
                "argmax": list(rec.argmax),
                "counterexamples": [list(c) for c in rec.counterexamples],
            }
        )
    rep.absorb(check_diag_transversal_bound(d, min_cycle_transversal(d)))
    return rep


# Each suite checks one instance: (digraph, auxiliary rng, sigma_k) -> report.
# The entries look the checks up when called, so a rebound module name is seen.
SUITES: dict[str, Callable[[WeightedDigraph, random.Random, int | None], InequalityReport]] = {
    "boyle-handelman": lambda d, rng, k: check_boyle_handelman(d),
    "ksv": lambda d, rng, k: check_ksv(d),
    "lemma-a1": lambda d, rng, k: check_trace_bounds(d),
    "lemma-a2": lambda d, rng, k: check_diag_transversal_bound(d, min_cycle_transversal(d)),
    "a1-product": lambda d, rng, k: check_transversal_product(d, min_cycle_transversal(d)),
    "sigma-k": _sigma_k,
    "zeta": lambda d, rng, k: check_zeta_identity(
        d, rng.randrange(d.order), (Fraction(1, 3), Fraction(1, 2), Fraction(2))),
    "conjecture": _conjecture,
}


def run_suite(
    suite: str,
    count: int = 100,
    seed: int = 0,
    order_max: int = 8,
    mode: str = "exact",
    sigma_k: int | None = None,
) -> InequalityReport:
    """Run ``suite`` on ``count`` seeded random instances and merge their reports.

    ``sigma_k`` is read by the sigma-k suite only; any other suite rejects it.
    """
    _check_mode(mode)
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {tuple(SUITES)}")
    if suite == "zeta" and mode != "exact":
        raise ValueError("the zeta suite is exact-only")
    if sigma_k is not None and suite != "sigma-k":
        raise ValueError(f"sigma_k applies to the sigma-k suite only, not {suite!r}")
    merged = InequalityReport(suite)
    for i, d in instance_stream(seed, count, order_max, mode=mode):
        merged.absorb(SUITES[suite](d, random.Random(f"{seed}:{i}:aux"), sigma_k))
        merged.instances_tested += 1
    return merged
