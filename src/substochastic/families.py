"""Finitely-presented infinite weighted digraphs via nested truncations.

A family is a pure generator ``n -> WeightedDigraph`` producing the induced
subdigraph on the first ``n`` vertices of a fixed enumeration, plus declared
structural facts (cycle transversal, extremal cycle lengths, weighting class
of the full presentation, closed-form spectra) that downstream operations may
rely on after validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Callable, Mapping, Sequence

from .cycles import Gain, _cycle_paths, _greedy_packing, is_cycle_transversal, sup_cycle_gain
from .digraph import Tag, WeightedDigraph
from .errors import FamilyDefinitionError

# Cycles ``validate_metadata`` lists while looking for one longer than a
# finite declared l_max; a truncation with more leaves l_max unsettled.
L_MAX_BUDGET = 2_000_000


@dataclass(frozen=True)
class FamilyFacts:
    """Declared structural facts about the full (infinite) presentation.

    ``transversal`` is a finite vertex set hitting every cycle of the whole
    family (not just one truncation). ``l_max``/``sct_size`` use ``math.inf``
    for "unbounded"; ``None`` always means "not declared".
    """

    transversal: frozenset[int] | None = None
    sct_size: float | int | None = None
    l_min: int | None = None
    l_max: float | int | None = None
    weighting_class: Tag | None = None
    spectral_limit: object | None = None  # declared intrinsic Perron radius
    perron_closed_form: Callable[[int], float] | None = None  # n -> leading lambda_n
    return_vertex: int | None = None
    pruitt_strict_vertex: int | None = None


@dataclass(frozen=True)
class TruncationFamily:
    name: str
    generator: Callable[[int], WeightedDigraph]
    facts: FamilyFacts = field(default_factory=FamilyFacts)
    #: smallest truncation order containing every cycle of length <= n
    omega_window: Callable[[int], int] = lambda n: n
    #: vertices of an order-n induced subdigraph with large Perron root
    witness_submatrix: Callable[[int], Sequence[int]] | None = None
    extras: Mapping = field(default_factory=dict, compare=False)

    def with_facts(self, **changes) -> "TruncationFamily":
        return replace(self, facts=replace(self.facts, **changes))


def truncate(family: TruncationFamily, n: int) -> WeightedDigraph:
    """The induced weighted subdigraph on the first ``n`` enumeration vertices."""
    if n < 1:
        raise ValueError("truncation order must be >= 1")
    try:
        d = family.generator(n)
    except FamilyDefinitionError:
        raise
    except Exception as exc:  # surface generator bugs as family errors
        raise FamilyDefinitionError(f"{family.name}: generator failed at n={n}: {exc}") from exc
    if d.order != n:
        raise FamilyDefinitionError(
            f"{family.name}: generator returned order {d.order}, expected {n}"
        )
    return d


def family_to_float(family: TruncationFamily) -> TruncationFamily:
    gen = family.generator
    facts = family.facts
    limit = facts.spectral_limit
    return replace(
        family,
        generator=lambda n: gen(n).to_float(),
        facts=replace(facts, spectral_limit=float(limit) if limit is not None else None),
    )


def family_gain(family: TruncationFamily, n: int, truncation=None) -> Gain:
    """omega_n: the best gain over the family's cycles of length <= ``n``.

    They lie in the truncation of order ``max(omega_window(n), n)``, reused
    from ``truncation`` when it has that order, and each is a proper cycle of
    the infinite digraph.
    """
    window = max(family.omega_window(n), n)
    if truncation is None or truncation.order != window:
        truncation = truncate(family, window)
    return sup_cycle_gain(truncation, max_length=n, proper_only=False)


@dataclass
class MetadataReport:
    family: str
    n_max: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_metadata(family: TruncationFamily, n_max: int) -> MetadataReport:
    """Check the declared transversal, sct_size and cycle lengths on the order-``n_max`` truncation.

    Truncations are induced and nested, so every cycle of a smaller one is a
    cycle of this one: a fact fails on some truncation up to ``n_max``
    exactly when it fails here.  The transversal takes one Kahn peel, a
    finite sct_size one greedy packing of disjoint cycles (a transversal hits
    each), and the lengths the lock search's path stream: bounded at length
    l_min - 1 for a shorter cycle, and for a finite l_max run until a longer
    cycle turns up or ``L_MAX_BUDGET`` cycles are listed.  A search that runs
    out of budget has not settled l_max, and that fails too.
    Violations are collected in the report rather than raised, so a wrong
    declaration can be inspected.
    """
    facts = family.facts
    sct = None if facts.sct_size == math.inf else facts.sct_size
    if (facts.transversal is None and sct is None
            and facts.l_max is None and facts.l_min is None):
        raise FamilyDefinitionError(f"{family.name}: no metadata declared to validate")
    report = MetadataReport(family.name, n_max)
    d = truncate(family, n_max)
    if facts.transversal is not None and not is_cycle_transversal(d, facts.transversal):
        report.violations.append(
            f"n={n_max}: a cycle misses declared transversal {sorted(facts.transversal)}"
        )
    if sct is not None:
        packed = len(list(islice(_greedy_packing(d.adjacency, range(d.order)), sct + 1)))
        if packed > sct:
            report.violations.append(
                f"n={n_max}: {packed} vertex-disjoint cycles exceed declared sct_size {sct}")
        if facts.transversal is not None and len(facts.transversal) < sct:
            report.violations.append(f"declared transversal {sorted(facts.transversal)} "
                                     f"has fewer vertices than declared sct_size {sct}")
    if facts.l_max is not None and facts.l_max != math.inf:
        lengths = (len(path) for path, _ in _cycle_paths(d))
        longer = next((k for k in islice(lengths, L_MAX_BUDGET) if k > facts.l_max), None)
        if longer is not None:
            report.violations.append(
                f"n={n_max}: a cycle has length {longer} > declared l_max {facts.l_max}")
        elif next(lengths, None) is not None:
            report.violations.append(
                f"n={n_max}: declared l_max {facts.l_max} unsettled after {L_MAX_BUDGET} cycles")
    if facts.l_min is not None:
        shorter = next((len(path) for path, _ in _cycle_paths(d, facts.l_min - 1)), None)
        if shorter is not None:
            report.violations.append(
                f"n={n_max}: a cycle has length {shorter} < declared l_min {facts.l_min}")
    return report
