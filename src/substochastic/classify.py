"""Transience/recurrence verdicts with machine-checkable evidence.

An irreducible nonnegative matrix M is transient exactly when some positive
vector xi satisfies M xi <= lambda(M) xi entrywise with strict inequality at
one entry.  For a family presented as nested truncations, certificates found
on a truncation prove nothing about the infinite matrix (mass leaks at the
boundary), so only presentation-level certificates (e.g. the all-ones vector
for a declared truthly substochastic presentation with lambda = 1) earn the
"certified" confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .digraph import Tag, WeightedDigraph
from .errors import MetadataError
from .families import FamilyFacts, TruncationFamily, truncate, validate_metadata
from .spectral import edge_operator, perron_ladder

TRANSIENT = "transient"
RECURRENT = "recurrent"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class PruittVector:
    xi: tuple | str  # explicit entries, or "ones" for the all-ones presentation vector
    strict_vertex: int
    radius: object
    exact: bool


@dataclass(frozen=True)
class DivergingSeries:
    vertex: int
    truncation_order: int
    partial_sums: tuple[float, ...]
    growth_ratio: float


@dataclass(frozen=True)
class CyrStructural:
    sct_size: object
    l_max: object


@dataclass(frozen=True)
class RecurrenceVerdict:
    verdict: str
    evidence: object
    confidence: str | None
    notes: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Pruitt certificates
# ---------------------------------------------------------------------------


def verify_pruitt(d: WeightedDigraph, xi: Sequence, lam) -> tuple[bool, int | None]:
    """Check A xi <= lam xi entrywise with at least one strict row."""
    if len(xi) != d.order or any(not x > 0 for x in xi):
        return False, None
    strict = None
    for v in range(d.order):
        row = sum((w * xi[u] for u, w in d.adjacency[v].items()), start=0)
        bound = lam * xi[v]
        if row > bound:
            return False, None
        if row < bound and strict is None:
            strict = v
    return strict is not None, strict


# ---------------------------------------------------------------------------
# Cyr structural criterion
# ---------------------------------------------------------------------------


def cyr_criterion(facts: FamilyFacts) -> bool:
    """True iff no transient weighting exists: finite transversal and bounded cycles.

    Raises MetadataError rather than guessing when a fact is undeclared.
    """
    if facts.transversal is None and facts.sct_size is None:
        raise MetadataError("cycle-transversal size not declared")
    if facts.l_max is None:
        raise MetadataError("maximum cycle length not declared")
    sct_finite = facts.transversal is not None or (
        facts.sct_size is not None and facts.sct_size != math.inf
    )
    return sct_finite and facts.l_max != math.inf


# ---------------------------------------------------------------------------
# Green series along truncations
# ---------------------------------------------------------------------------


def green_partial_sums(d: WeightedDigraph, v: int, lam: float, p_max: int) -> np.ndarray:
    """G_P = sum_{p<=P} A^p(v,v) lam^{-p} for P = 0..p_max.

    Iterates x -> A^T x / lam on the float arc arrays of ``edge_operator``, so
    x[v] after p steps is A^p(v, v) lam^{-p}; no n x n matrix is built.
    """
    op = edge_operator(d)
    x = np.zeros(d.order)
    x[v] = 1.0
    sums = np.empty(p_max + 1)
    sums[0] = 1.0
    for p in range(1, p_max + 1):
        x = op.rmatvec(x) / lam
        sums[p] = sums[p - 1] + x[v]
    return sums


def _growth_assessment(sums: np.ndarray) -> str:
    """One of "divergent", "bounded", "inconclusive" for a partial-sum series."""
    p_max = len(sums) - 1
    if p_max < 20:
        return "inconclusive"
    p_lo = max(1, p_max // 10)
    ratio = sums[p_max] / sums[p_lo]
    inc_late = sums[p_max] - sums[(p_max + p_lo) // 2]
    inc_early = sums[(p_max + p_lo) // 2] - sums[p_lo]
    if ratio >= 5.0 and inc_late >= 0.4 * inc_early > 0:
        return "divergent"
    step = max(1, p_max // 10)
    tail = sums[p_max] - sums[p_max - step]
    if tail <= 1e-9 * max(1.0, sums[p_max]):
        return "bounded"
    # decade-over-decade decay with a finite geometric tail projection
    prev = sums[p_max - step] - sums[p_max - 2 * step]
    if prev > 0:
        r = tail / prev
        if r <= 0.95 and tail * r / (1 - r) <= 1e-6 * max(1.0, sums[p_max]):
            return "bounded"
    return "inconclusive"


# ---------------------------------------------------------------------------
# The decision procedure
# ---------------------------------------------------------------------------


def classify_recurrence(
    family: TruncationFamily,
    n_max: int = 120,
    p_max: int = 1000,
    vertex: int | None = None,
) -> RecurrenceVerdict:
    """Transient / Recurrent / Unknown with evidence.

    Order of attack: the structural criterion when both facts are declared
    finite (certified recurrence once ``validate_metadata`` finds them true
    on the truncation, unknown otherwise); otherwise Green partial sums at
    the return vertex on the order-n_max truncation, with a
    presentation-level all-ones certificate required before declaring
    transience.  ``p_max`` must be at least 1.
    """
    if vertex is not None and vertex < 0:
        raise ValueError(f"vertex {vertex} out of range")
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max}")
    facts = family.facts
    cls = facts.weighting_class
    notes: list[str] = []
    v = vertex if vertex is not None else (facts.return_vertex or 0)
    n = max(v + 1, 2, n_max)

    try:
        if cyr_criterion(facts):
            report = validate_metadata(family, n)
            if not report.ok:
                notes.extend(f"declared facts fail: {x}" for x in report.violations)
                return RecurrenceVerdict(UNKNOWN, None, None, tuple(notes))
            size = facts.sct_size if facts.sct_size is not None else len(facts.transversal)
            return RecurrenceVerdict(
                RECURRENT, CyrStructural(size, facts.l_max), "certified"
            )
    except MetadataError as exc:
        notes.append(f"structural facts incomplete: {exc}")

    # intrinsic radius: declared closed form, else extrapolated ladder
    if facts.spectral_limit is not None:
        lam = float(facts.spectral_limit)
        lam_exact = facts.spectral_limit
    else:
        grid = sorted({max(2, n_max // 9), max(3, n_max // 3), n_max})
        ladder = perron_ladder(family, grid, mode="leading")
        lam = ladder.limit_estimate
        lam_exact = None
        notes.append(f"radius estimated ({ladder.limit_method}): {lam:.12g}")
        if cls is not None and cls.implies(Tag.SUBSTOCHASTIC) and lam > 1:  # flag, not clamp
            notes.append(f"radius estimate {lam:.12g} exceeds 1, the {cls.value} class bound")
    if lam <= 0:
        return RecurrenceVerdict(UNKNOWN, None, None, tuple(notes + ["radius estimate <= 0"]))

    d = truncate(family, n)
    sums = green_partial_sums(d, v, lam, p_max)
    verdict_raw = _growth_assessment(sums)
    marks = sorted(set(range(0, p_max + 1, max(1, p_max // 16))) | {p_max})
    subsample = tuple(float(sums[p]) for p in marks)
    ratio = float(sums[-1] / sums[max(1, p_max // 10)])

    if verdict_raw == "divergent":
        return RecurrenceVerdict(
            RECURRENT,
            DivergingSeries(v, n, subsample, ratio),
            "numerical",
            tuple(notes),
        )

    if verdict_raw == "bounded":
        ones_applicable = (
            cls is not None
            and cls.implies(Tag.TRUTHLY_SUBSTOCHASTIC)
            and lam_exact is not None
            and Fraction(lam_exact) == 1
        )
        if ones_applicable:
            cert_ok, strict = verify_pruitt(d, [1] * d.order, 1)
            if cert_ok:
                strict_v = facts.pruitt_strict_vertex if facts.pruitt_strict_vertex is not None else strict
                return RecurrenceVerdict(
                    TRANSIENT,
                    PruittVector("ones", strict_v, 1, exact=d.is_exact),
                    "certified" if d.is_exact else "numerical",
                    tuple(notes),
                )
            notes.append("declared all-ones certificate failed re-verification")
        else:
            notes.append("partial sums bounded but no presentation-level certificate")

    return RecurrenceVerdict(UNKNOWN, None, None, tuple(notes))

