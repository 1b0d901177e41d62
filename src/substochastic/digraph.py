"""Finite weighted digraphs, weighting classes, and JSON I/O.

Vertices are 0-based internally; the JSON interchange format is 1-based, and
so is every arc an error message names.  Weights are positive ``int``,
``Fraction`` or ``float`` values.  A digraph is exact iff every weight is an
``int`` or a ``Fraction``: ``is_exact`` is the one arithmetic decision, and no
layer looks at the types of single weights.  An exact digraph's cycles weigh
``Fraction``s, as its determinant coefficients do; a float digraph's
determinant coefficients are exact ones rounded once.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .rational import is_exact_number, parse_weight, weight_to_str

Arc = tuple[int, int]

#: the arithmetic modes a caller may ask for: weights as given, or as floats
_MODES = ("exact", "float")


def _check_mode(mode: str):
    """Raise ValueError naming ``mode`` unless it is one of ``_MODES``."""
    if mode not in _MODES:
        raise ValueError(f"unknown arithmetic mode {mode!r}")


class Tag(str, Enum):
    """Weighting classes ordered by how much out-weight slack they certify."""

    NOT_SUBSTOCHASTIC = "not-substochastic"
    SUBSTOCHASTIC = "substochastic"
    STOCHASTIC = "stochastic"
    TRUTHLY_SUBSTOCHASTIC = "truthly-substochastic"
    STRICTLY_SUBSTOCHASTIC = "strictly-substochastic"

    def implies(self, other: "Tag") -> bool:
        if self is other:
            return True
        implied = {
            Tag.STRICTLY_SUBSTOCHASTIC: {Tag.TRUTHLY_SUBSTOCHASTIC, Tag.SUBSTOCHASTIC},
            Tag.TRUTHLY_SUBSTOCHASTIC: {Tag.SUBSTOCHASTIC},
            Tag.STOCHASTIC: {Tag.SUBSTOCHASTIC},
        }
        return other in implied.get(self, set())


@dataclass(frozen=True)
class WeightingClass:
    tag: Tag
    witness: int | None = None


@dataclass(frozen=True)
class WeightedDigraph:
    """A finite digraph with positive arc weights; loops allowed, no multi-arcs."""

    order: int
    arcs: Mapping[Arc, object]

    def __post_init__(self):
        # a private copy: mutating the caller's dict must not reach the cached views
        object.__setattr__(self, "arcs", dict(self.arcs))
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        for (u, v), w in self.arcs.items():
            if not (0 <= u < self.order and 0 <= v < self.order):
                raise ValueError(f"arc {u + 1}->{v + 1} outside vertex range [1,{self.order}]")
            if not w > 0:
                raise ValueError(f"arc {u + 1}->{v + 1} has nonpositive weight {_shown(w)}")

    # -- basic views --------------------------------------------------------

    @cached_property
    def adjacency(self) -> dict[int, dict[int, object]]:
        out: dict[int, dict[int, object]] = {v: {} for v in range(self.order)}
        for (u, v), w in self.arcs.items():
            out[u][v] = w
        return out

    @cached_property
    def is_exact(self) -> bool:
        return all(is_exact_number(w) for w in self.arcs.values())

    @cached_property
    def _analysis(self) -> dict:
        return {}

    def memo(self, key, compute):
        """``compute()``, stored under ``key`` for the life of this digraph.

        The spectral and cycle layers keep their exact results, the strong
        component split and the float arc arrays here (and the inequality
        reports their fingerprint), so each is computed once per digraph
        object.  An exception is never stored.
        Two threads may both compute a missing entry; both get the value
        stored first, and neither sees a partial one.
        """
        cache = self._analysis
        if key in cache:
            return cache[key]
        return cache.setdefault(key, compute())

    def out_weight(self, v: int):
        return sum(self.adjacency[v].values(), start=Fraction(0) if self.is_exact else 0.0)

    def induced(self, vertices: Iterable[int]) -> "WeightedDigraph":
        """Induced subdigraph, reindexed by the sorted vertex list."""
        vs = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(vs)}
        arcs = {
            (pos[u], pos[v]): w
            for (u, v), w in self.arcs.items()
            if u in pos and v in pos
        }
        return WeightedDigraph(len(vs), arcs)

    def map_weights(self, fn) -> "WeightedDigraph":
        return WeightedDigraph(self.order, {a: fn(w) for a, w in self.arcs.items()})

    def to_float(self) -> "WeightedDigraph":
        return WeightedDigraph(self.order, {a: float_weight(a, w) for a, w in self.arcs.items()})

    # -- JSON interchange (1-based vertex ids) ------------------------------

    def to_json_dict(self) -> dict:
        arcs = sorted(((u + 1, v + 1, weight_to_str(w)) for (u, v), w in self.arcs.items()))
        return {"order": self.order, "arcs": [list(a) for a in arcs]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @staticmethod
    def from_json_dict(obj: Mapping, mode: str = "exact") -> "WeightedDigraph":
        """Parse ``{"order": n, "arcs": [[u, v, w], ...]}``; schema errors raise ValueError.

        Every weight is parsed exactly; ``mode="float"`` then rounds the
        digraph through ``to_float``.
        """
        _check_mode(mode)
        if not isinstance(obj, Mapping):
            raise ValueError("digraph JSON must be an object")
        unknown = sorted(set(obj) - {"order", "arcs"}, key=str)
        if unknown:
            raise ValueError(f"digraph JSON has unknown key {unknown[0]!r} "
                             "(its keys are 'order' and 'arcs')")
        order = _json_int(obj.get("order"), "digraph 'order'")
        triples = obj.get("arcs")
        if not isinstance(triples, (list, tuple)):
            raise ValueError("digraph 'arcs' must be a list of [u, v, w] triples")
        arcs = {}
        for triple in triples:
            if not isinstance(triple, (list, tuple)) or len(triple) != 3:
                raise ValueError(f"arc {triple!r} is not a [u, v, w] triple")
            u, v, w = triple
            key = (_json_int(u, "arc endpoint") - 1, _json_int(v, "arc endpoint") - 1)
            if key in arcs:
                raise ValueError(f"duplicate arc {u}->{v}")
            arcs[key] = parse_weight(str(w))
        d = WeightedDigraph(order, arcs)
        return d.to_float() if mode == "float" else d

    @staticmethod
    def from_json(text: str, mode: str = "exact") -> "WeightedDigraph":
        return WeightedDigraph.from_json_dict(json.loads(text), mode)


def float_weight(arc: Arc, w) -> float:
    """The weight ``w`` of ``arc`` as a float.

    The one place an exact weight is refused as a float: one that overflows
    or rounds to 0 raises ValueError naming the 1-based arc and the weight.
    """
    try:
        x = float(w)
    except OverflowError:
        x = 0.0
    if x:  # weights are positive: 0.0 is an underflow
        return x
    raise ValueError(f"arc {arc[0] + 1}->{arc[1] + 1} has weight {_shown(w)}, "
                     "outside the float range")


def _shown(w) -> str:
    """``w`` in the weight grammar, or in scientific notation past 24 characters.

    A float's repr is never longer, and a weight outside the float range always is.
    """
    text = weight_to_str(w)
    if len(text) <= 24:
        return text
    num, den = w.as_integer_ratio()
    return f"{(Decimal(num) / den).normalize():e}".replace("e+", "e")


def _integer_weights(d: WeightedDigraph) -> tuple:
    """Per vertex i, ``(L_i, ((j, L_i w_ij), ...))``, L_i the lcm of its out-weight denominators.

    The one place an exact weight becomes an integer (a float enters as its
    exact binary rational), memoised on ``d``; the arcs keep the order of
    ``d.adjacency[i]``.
    """
    def compute():
        out = []
        for i in range(d.order):
            arcs = [(j, *w.as_integer_ratio()) for j, w in d.adjacency[i].items()]
            lcm = math.lcm(*(den for _j, _num, den in arcs))
            out.append((lcm, tuple((j, num * (lcm // den)) for j, num, den in arcs)))
        return tuple(out)

    return d.memo("integer_weights", compute)


def _json_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------

_DONE = sys.maxsize


def strongly_connected_components(
    succ: Mapping[int, Iterable[int]], vertices: Iterable[int]
) -> list[list[int]]:
    """Tarjan's algorithm over ``vertices``, iterative; components in reverse topological order.

    A vertex whose component is out gets the index ``_DONE``, above every
    low-link, so an arc into it never lowers one and no on-stack set is kept.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
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
        while work:
            v, it = work[-1]
            for w in it:
                iw = index.get(w)
                if iw is None:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ.get(w, ()))))
                    break
                if iw < low[v]:
                    low[v] = iw
            else:
                work.pop()
                lv = low[v]
                if work:
                    u = work[-1][0]
                    if lv < low[u]:
                        low[u] = lv
                if lv == index[v]:
                    comp = []
                    while True:
                        x = stack.pop()
                        index[x] = _DONE
                        comp.append(x)
                        if x == v:
                            break
                    comps.append(comp)
    return comps


def strong_components(d: WeightedDigraph) -> tuple[tuple[int, ...], ...]:
    """The strong components of ``d`` in Tarjan's order, as tuples, memoised on ``d``."""
    return d.memo("strong_components", lambda: tuple(
        map(tuple, strongly_connected_components(d.adjacency, range(d.order)))))


# ---------------------------------------------------------------------------
# Weighting classification
# ---------------------------------------------------------------------------


def classify_weighting(d: WeightedDigraph) -> WeightingClass:
    """Strongest weighting class of ``d`` with a witness vertex.

    Out-weights compare with 1 exactly, and float ones by strict IEEE comparison.
    """
    if d.order == 0:
        return WeightingClass(Tag.STOCHASTIC, None)
    over: int | None = None
    under: list[int] = []
    weights = [d.out_weight(v) for v in range(d.order)]
    for v, ow in enumerate(weights):
        if ow > 1:
            if over is None or ow > weights[over]:
                over = v
        elif ow < 1:
            under.append(v)
    if over is not None:
        return WeightingClass(Tag.NOT_SUBSTOCHASTIC, over)
    if not under:
        return WeightingClass(Tag.STOCHASTIC, None)
    witness = min(under, key=lambda v: (weights[v], v))
    if len(under) == d.order:
        return WeightingClass(Tag.STRICTLY_SUBSTOCHASTIC, witness)
    return WeightingClass(Tag.TRUTHLY_SUBSTOCHASTIC, witness)
