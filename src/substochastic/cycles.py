"""Simple-cycle machinery: enumeration, gains, transversals.

Enumeration is one search, the length-bounded lock/relax search of Gupta &
Suzumura (2021), run per strongly connected component from the minimal
vertex with the bound clamped to the component order; it yields each cycle
exactly once with its minimal vertex first.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import compress
from typing import Iterable, Iterator

from .digraph import (
    WeightedDigraph,
    _integer_weights,
    strong_components,
    strongly_connected_components,
)
from .errors import BudgetExceededError
from .rational import is_exact_number, safe_log


# ---------------------------------------------------------------------------
# Gains: stored as (weight, length) so rational weights compare exactly.
# ---------------------------------------------------------------------------


def _cross(w, length, other_w, other_length):
    """(lhs, rhs) with gain (w, length) ? (other_w, other_length) iff lhs ? rhs.

    Two exact weights compare by cross powers, a float weight by logs.
    """
    if is_exact_number(w) and is_exact_number(other_w):
        return Fraction(w) ** other_length, Fraction(other_w) ** length
    return other_length * safe_log(w), length * safe_log(other_w)


@total_ordering
@dataclass(frozen=True, eq=False)
class Gain:
    """``weight ** (1/length)`` kept in cross-powering form.

    A weight of 0 is the "no qualifying cycle" marker.  Gains are unhashable:
    equal gains such as (w, l) and (w**m, l*m) have no cheap common key.
    ``eq=False`` keeps the dataclass from adding a field hash next to the
    custom ``__eq__``, which leaves Python's ``__hash__ = None`` in place.
    """

    weight: object
    length: int

    @property
    def value(self) -> float:
        if self.weight == 0:
            return 0.0
        return math.exp(safe_log(self.weight) / self.length)

    def __eq__(self, other):
        if not isinstance(other, Gain):
            return NotImplemented
        if (self.weight == 0) or (other.weight == 0):
            return self.weight == other.weight == 0
        lhs, rhs = _cross(self.weight, self.length, other.weight, other.length)
        return lhs == rhs

    def __lt__(self, other):
        if not isinstance(other, Gain):
            return NotImplemented
        if self.weight == 0:
            return other.weight != 0
        if other.weight == 0:
            return False
        lhs, rhs = _cross(self.weight, self.length, other.weight, other.length)
        return lhs < rhs


GAIN_ZERO = Gain(0, 1)


@dataclass(frozen=True)
class Cycle:
    """A simple directed cycle, canonically rotated (minimal vertex first)."""

    vertices: tuple[int, ...]
    weight: object

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def gain(self) -> Gain:
        return Gain(self.weight, self.length)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _bounded_paths(adj, comp, start, bound):
    """Yield (live_path, weight) for every simple cycle of length <= ``bound`` through ``start``.

    The lock/relax search of Gupta & Suzumura (2021), on the arcs of
    ``adj`` (``d.adjacency``) that stay in the vertex set ``comp``.  A path
    of length k may step to w only while k < lock[w], and stepping sets
    lock[w] to the new length; a lock is ``bound`` until first set.  A
    vertex that leaves the path having found a way back to ``start`` in b
    steps relaxes its lock to ``bound - b + 1``, and the locks of the
    vertices waiting on it in ``deps`` to one less per step back; one that
    found none waits on its successors.  Only branches that hold no cycle
    are pruned, so with ``bound`` at the component order every cycle
    through ``start`` comes out.  A loop is never stepped along: the top
    vertex's lock equals the path length, and ``start`` skips its own.

    ``live_path`` is reused between yields; callers that keep it must copy.
    """
    path = [start]
    on_path = {start}
    lock: dict[int, int] = {}
    deps: dict[int, set[int]] = {}
    # the top vertex's arc iterator, path weight and shortest way back to
    # ``start`` found so far; ``below`` holds the same for the vertices under it
    succ, weight, back = iter(adj[start].items()), 1, bound
    below: list[tuple[Iterator[tuple[int, object]], object, int]] = []
    while True:
        depth = len(path)
        for w, wt in succ:
            if w not in comp:
                continue
            if w == start:
                if depth > 1:
                    yield path, weight * wt
                    back = 1
            elif depth < lock.get(w, bound):
                below.append((succ, weight, back))
                path.append(w)
                on_path.add(w)
                lock[w] = depth + 1
                succ, weight, back = iter(adj[w].items()), weight * wt, bound
                break
        else:
            if not below:
                return
            v = path.pop()
            on_path.discard(v)
            if back < bound:
                relax = [(bound - back + 1, v)]
                while relax:
                    new, u = relax.pop()
                    if lock[u] < new:
                        lock[u] = new
                        if waiting := deps.get(u):
                            relax.extend((new - 1, x) for x in waiting if x not in on_path)
            else:
                for w in adj[v]:
                    if w in comp:
                        if (waiting := deps.get(w)) is None:
                            deps[w] = {v}
                        else:
                            waiting.add(v)
            succ, weight, parent_back = below.pop()
            if parent_back < back:
                back = parent_back


class _Induced:
    """The successors in ``adj`` that lie in ``vertices``, read through ``get``
    as ``strongly_connected_components`` reads its ``succ``."""

    def __init__(self, adj, vertices):
        self.adj = adj
        self.vertices = vertices

    def get(self, v, default=()):
        return filter(self.vertices.__contains__, self.adj[v])


def _cycle_paths(d: WeightedDigraph, max_length=None, adj=None):
    """Yield (live_path, weight) over all simple cycles, minimal vertex first.

    The weight is the product of the cycle's arc weights in ``adj``: by
    default ``d.adjacency``, else the same arcs in the same order with other
    weights (the integer numerators of ``_numerators``).  Loops come first;
    then each nontrivial strong component is searched from its minimal
    vertex, which is removed before the rest is re-split.  The
    re-split is skipped unless two vertices keep an arc into the rest (a
    vertex with none is a singleton component), and it roots Tarjan in the
    rest's own iteration order, so the nontrivial components, and the
    cycles, always come out in the same order.
    """
    if max_length is not None and max_length < 1:
        return
    if adj is None:
        adj = d.adjacency
    for v in range(d.order):
        w = adj[v].get(v)
        if w is not None:
            yield [v], w
    if max_length == 1:
        return
    comps = [set(c) for c in strong_components(d) if len(c) >= 2]
    while comps:
        comp = comps.pop()
        start = min(comp)
        bound = len(comp) if max_length is None else min(max_length, len(comp))
        yield from _bounded_paths(adj, comp, start, bound)
        comp.discard(start)
        keep = (v for v in comp if not comp.isdisjoint(adj[v]))
        if next(keep, None) is not None and next(keep, None) is not None:
            comps.extend(set(c) for c in strongly_connected_components(_Induced(adj, comp), comp)
                         if len(c) >= 2)


def _numerators(d: WeightedDigraph) -> tuple[int, dict[int, dict[int, int]]]:
    """``(D, adj)``: D is the lcm of the weight denominators of ``d`` (a float
    weight's exact binary rational) and ``adj[u][v]`` the integer D w_uv, in
    the order of ``d.adjacency``.

    A cycle of length l multiplies to D^l times its weight, so the exact
    consumers multiply and compare integers and divide once at the end.
    """
    rows = _integer_weights(d)
    den = math.lcm(*(lcm for lcm, _arcs in rows))
    adj = {}
    for u, (lcm, arcs) in enumerate(rows):
        scale = den // lcm
        adj[u] = {v: b * scale for v, b in arcs}
    return den, adj


class CycleStream:
    """Iterator over cycles; ``truncated`` is set when a cycle beyond max_count exists."""

    def __init__(self, source: Iterator[Cycle], max_count: int | None):
        self._source = source
        self._max = max_count
        self.count = 0
        self.truncated = False

    def __iter__(self):
        return self

    def __next__(self) -> Cycle:
        item = next(self._source)
        if self._max is not None and self.count >= self._max:
            self.truncated = True
            raise StopIteration
        self.count += 1
        return item


def enumerate_cycles(
    d: WeightedDigraph, max_length: int | None = None, max_count: int | None = None
) -> CycleStream:
    """Stream every simple cycle of length <= max_length exactly once.

    Cycles come out rotated so the minimal vertex leads.  When ``max_count``
    cuts off a further cycle the stream's ``truncated`` flag is set.
    """

    def gen():
        den, adj = _numerators(d) if d.is_exact else (None, None)
        for path, weight in _cycle_paths(d, max_length, adj):
            yield Cycle(tuple(path), weight if den is None else Fraction(weight, den ** len(path)))

    return CycleStream(gen(), max_count)


# ---------------------------------------------------------------------------
# Supremum of cycle gains
# ---------------------------------------------------------------------------


def sup_cycle_gain(
    d: WeightedDigraph,
    max_length: int | None = None,
    proper_only: bool = True,
    max_count: int | None = None,
) -> Gain:
    """Largest gain over simple cycles of length <= max_length.

    A cycle using every arc of ``d`` (i.e. ``d`` itself is one directed cycle)
    is excluded unless ``proper_only=False``.  Returns the zero-gain marker
    when no cycle qualifies; of equal gains the first found is kept.  If a
    qualifying cycle lies beyond the first ``max_count``, their maximum (a
    valid lower bound) rides on the raised :class:`BudgetExceededError`.
    """
    arc_total = len(d.arcs)
    exact = d.is_exact
    # an exact d is searched as integer numerators over one denominator D
    den, adj = _numerators(d) if exact else (1, None)
    # the best so far as (weight, length, and on a float d its log, -inf before
    # the first); weight 0 is the zero-gain marker, and one Gain is built at the end
    best_w, best_len, best_log = 0, 1, -math.inf

    def best():
        if not best_w:
            return GAIN_ZERO
        return Gain(Fraction(best_w, den ** best_len) if exact else best_w, best_len)

    seen = 0
    for path, weight in _cycle_paths(d, max_length, adj):
        length = len(path)
        if proper_only and length == arc_total:
            continue
        if max_count is not None and seen >= max_count:
            raise BudgetExceededError(
                f"cycle budget {max_count} exhausted; partial max gain attached",
                partial=best(),
            )
        seen += 1
        if exact:
            # (a / D^l)^m < (b / D^m)^l iff a^m < b^l: D cancels
            if not best_w or best_w ** length < weight ** best_len:
                best_w, best_len = weight, length
        elif weight:  # a float product that underflowed is the zero gain
            log_w = safe_log(weight)
            if length * best_log < best_len * log_w:
                best_w, best_len, best_log = weight, length, log_w
    return best()


# ---------------------------------------------------------------------------
# Shortest cycles and transversals
# ---------------------------------------------------------------------------


def _succ_sets(d: WeightedDigraph) -> dict[int, set[int]]:
    succ: dict[int, set[int]] = {v: set() for v in range(d.order)}
    for (u, v) in d.arcs:
        succ[u].add(v)
    return succ


def _bfs_cycle(succ, alive: set[int], s: int, limit: int) -> tuple[list[int] | None, int]:
    """``(cycle, reached)``: the cycle a breadth-first search from ``s`` within
    ``alive`` closes first, if it has at most ``limit`` vertices, else None,
    and the number of vertices the search reached.

    The search closes a cycle at the first vertex it visits with an arc back
    to ``s``, which is a shortest cycle through ``s``; the cycle is listed
    from ``s``.  Levels past ``limit - 1`` are never built.
    """
    parent = {s: None}
    level = [s]
    for depth in range(limit):
        deeper = depth + 1 < limit
        below = []
        for u in level:
            if s in succ[u]:
                cyc = [u]
                while (u := parent[u]) is not None:
                    cyc.append(u)
                cyc.reverse()
                return cyc, len(parent)
            if deeper:
                for w in succ[u]:
                    if w in alive and w not in parent:
                        parent[w] = u
                        below.append(w)
        if not below:
            break
        level = below
    return None, len(parent)


def _shortest_cycles(succ, alive: set[int]) -> Iterator[list[int]]:
    """Yield a shortest cycle of the digraph induced on ``alive``, again after each
    time the caller removes vertices from ``alive``, until none is left.

    Each cycle is the one that the breadth-first search (``_bfs_cycle``) from
    the first start, in increasing order, with a cycle of the girth g
    closes.  Removing vertices never shortens a cycle, so the starts before
    that one still have none of length g, and while a g-cycle remains the
    next answer is the first start at or after the last one whose search,
    cut off at g, closes one.  When none does, one scan of all starts finds
    the new girth and its first start, stopping at the first cycle of length
    g + 1.  Until the scan finds a cycle, its searches count the vertices
    they reach; once that count reaches twice the number alive, one Kahn
    peel decides whether any cycle is left (the acyclic exit).  So an
    acyclic rest costs O(arcs) rather than a search from every start, and a
    small one is settled by its few searches alone.  ``alive`` may only
    shrink between yields.
    """
    order = sorted(alive)
    for s in order:  # the girth is 1 while a loop is left
        while s in alive and s in succ[s]:
            yield [s]
    girth, i = 1, len(order)
    while True:
        while i < len(order):
            s = order[i]
            if s in alive and (cyc := _bfs_cycle(succ, alive, s, girth)[0]) is not None:
                yield cyc
            else:
                i += 1
        # the girth is now above ``girth``: the first start with a shortest cycle
        best, limit = None, len(alive)
        # vertices reached by searches that closed nothing; one peel costs
        # about as much as searches that reach 2 |alive| vertices
        spent, peel_at = 0, 2 * len(alive)
        for j, s in enumerate(order):
            if s not in alive:
                continue
            cyc, reached = _bfs_cycle(succ, alive, s, limit)
            if cyc is not None:
                best, limit = (j, cyc), len(cyc) - 1
                if len(cyc) == girth + 1:
                    break
            elif best is None and spent < peel_at:
                spent += reached
                if spent >= peel_at and peel_transversal(succ, alive, 0) is not None:
                    return
        if best is None:  # every search closed nothing: acyclic
            return
        i, cyc = best
        girth = len(cyc)
        yield cyc


def peel_transversal(succ, alive: Iterable[int], max_size: int) -> tuple[list[int], list[int]] | None:
    """Greedy cycle transversal W of the digraph induced on ``alive``, in O(arcs + |W| n).

    ``succ[v]`` iterates the successors of v, without repeats.  Returns
    ``(order, W)``, or None when W would need more than ``max_size``
    vertices.  A vertex peels once none of its out-arcs stays in the rest, so
    ``order`` lists the acyclic rest R in reverse topological order: every
    successor of a peeled vertex was peeled before it or lies in W.  When
    nothing peels, one vertex moves into W: the smallest with a loop, else
    the one with the largest in-degree times out-degree in the rest (the
    smallest on ties).  ``max_size=0`` is a Kahn acyclicity test.
    """
    alive = set(alive)
    loops = sorted((v for v in alive if v in succ[v]), reverse=True)
    if len(loops) > max_size:  # every vertex with a loop goes into W
        return None
    out_deg: dict[int, int] = {}
    preds: dict[int, list[int]] = {v: [] for v in alive}
    for u in alive:
        k = 0
        for w in succ[u]:
            if w in alive:
                k += 1
                preds[w].append(u)
        out_deg[u] = k
    in_deg = None  # in-degrees in the rest, in out_deg's order, once W is first needed
    ready = [v for v, k in out_deg.items() if k == 0]
    order: list[int] = []
    chosen: list[int] = []
    while out_deg:
        if ready:
            v = ready.pop()
            order.append(v)
        else:
            if len(chosen) == max_size:
                return None
            if in_deg is None:
                # so far only vertices without a successor in the rest peeled,
                # so every predecessor of a vertex in the rest is in it
                in_deg = {u: len(preds[u]) for u in out_deg}
            if loops:  # a vertex with a loop never peels, so it is still in the rest
                v = loops.pop()
            else:
                products = list(map(operator.mul, in_deg.values(), out_deg.values()))
                v = min(compress(out_deg, map(max(products).__eq__, products)))
            chosen.append(v)
        del out_deg[v]
        for p in preds[v]:
            if p in out_deg:
                out_deg[p] -= 1
                if out_deg[p] == 0:
                    ready.append(p)
        if in_deg is not None:
            del in_deg[v]
            for s in succ[v]:
                if s in in_deg:
                    in_deg[s] -= 1
    return order, chosen


def _greedy_packing(succ: dict[int, set[int]], alive: set[int]) -> Iterator[list[int]]:
    """Greedy shortest-first vertex-disjoint cycles within ``alive``."""
    alive = set(alive)
    for cyc in _shortest_cycles(succ, alive):
        yield cyc
        alive.difference_update(cyc)


def _reduce(succ: dict[int, set[int]], alive: set[int]) -> tuple[int, dict[int, set[int]]]:
    """Levy–Low reduction of the digraph induced on ``alive``.

    Returns ``(forced, reduced)``, where ``reduced`` maps each surviving vertex
    to its successors and the minimum cycle transversal of the input is
    exactly ``forced`` larger than that of ``reduced``.  Rules, applied until
    none fires: a vertex with a loop lies in every transversal, so it counts
    as forced and is deleted; a vertex with in-degree or out-degree 0 lies on
    no cycle and is deleted; a vertex with in-degree 1 (out-degree 1) is
    bypassed, every path p -> v -> s becoming an arc p -> s, because every
    cycle through it also passes its only predecessor (successor).  Bypassing
    can create loops and arcs the input does not have.
    """
    out = {v: succ[v] & alive for v in alive}
    inn: dict[int, set[int]] = {v: set() for v in alive}
    for u, ws in out.items():
        for w in ws:
            inn[w].add(u)
    forced = 0
    stack = sorted(alive, reverse=True)
    while stack:
        v = stack.pop()
        if v not in out:
            continue
        preds, succs = inn[v], out[v]
        bypass = v not in succs
        if bypass and len(preds) > 1 and len(succs) > 1:
            continue
        if not bypass:
            forced += 1
            preds.discard(v)
            succs.discard(v)
        del inn[v], out[v]
        for p in preds:
            out[p].discard(v)
            if bypass:
                out[p] |= succs
        for s in succs:
            inn[s].discard(v)
            if bypass:
                inn[s] |= preds
        stack.extend(preds | succs)
    return forced, out


@dataclass(frozen=True)
class TransversalResult:
    vertices: frozenset[int]
    size: int
    optimality: str  # "exact" | "upper-bound"


def min_cycle_transversal(d: WeightedDigraph, budget: int = 200_000) -> TransversalResult:
    """Minimum directed feedback vertex set by branch and bound.

    Branches over the vertices of a shortest uncovered cycle with sibling
    exclusion.  A node is pruned when its lower bound cannot beat the
    incumbent: the vertices the Levy–Low reduction (``_reduce``) forces,
    plus a greedy disjoint-cycle packing of the reduced digraph.  The bound
    is valid, so pruning drops only subtrees without a smaller transversal,
    and the search returns the first minimum set of the same depth-first
    order as a search pruned by any weaker valid bound.  When the
    node budget runs out the best-found set is returned with
    ``optimality="upper-bound"``.  The result is always re-verified to leave
    an acyclic digraph; a failed check raises RuntimeError.

    Results are memoised on ``d``.  The search is deterministic, so an exact
    result that took N nodes is the answer for every budget of at least N,
    and an upper bound is reused for its own budget only.
    """
    searches = d.memo("min_cycle_transversal", list)  # (budget, nodes, result)
    for b, nodes, res in searches:
        if b == budget or (res.optimality == "exact" and nodes <= budget):
            return res
    res, nodes = _branch_and_bound(d, budget)
    searches.append((budget, nodes, res))
    return res


def _greedy_transversal(d: WeightedDigraph, succ: dict[int, set[int]]) -> set[int]:
    """The search's first incumbent: hit each shortest cycle left at its vertex of
    largest degree (out plus in; the first on ties), until none is left."""
    degree = Counter(v for arc in d.arcs for v in arc)
    alive = set(range(d.order))
    greedy: set[int] = set()
    for cyc in _shortest_cycles(succ, alive):
        v = max(cyc, key=degree.__getitem__)
        greedy.add(v)
        alive.discard(v)
    return greedy


def _branch_and_bound(d: WeightedDigraph, budget: int) -> tuple[TransversalResult, int]:
    succ = _succ_sets(d)
    all_vs = set(range(d.order))
    best = _greedy_transversal(d, succ)
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
        cyc = next(_shortest_cycles(succ, all_vs - removed), None)
        if cyc is None:
            best = set(removed)
            return
        if len(removed) + 1 >= len(best):
            return
        forced, reduced = _reduce(succ, all_vs - removed)
        lb = forced + sum(1 for _ in _greedy_packing(reduced, set(reduced)))
        if len(removed) + lb >= len(best):
            return
        skip = set(banned)
        for v in cyc:
            if v in banned:
                continue
            rec(removed | {v}, frozenset(skip))
            skip.add(v)

    rec(set(), frozenset())

    if peel_transversal(succ, all_vs - best, 0) is None:
        raise RuntimeError(f"transversal re-verification failed: {sorted(best)} leaves a cycle")
    result = TransversalResult(frozenset(best), len(best), "upper-bound" if exhausted else "exact")
    return result, nodes


def is_cycle_transversal(d: WeightedDigraph, vertices: Iterable[int]) -> bool:
    """True iff removing ``vertices`` leaves ``d`` acyclic (one Kahn peel)."""
    return peel_transversal(d.adjacency, set(range(d.order)) - set(vertices), 0) is not None


def _transversals_of_size(d: WeightedDigraph, size: int) -> Iterator[tuple[int, ...]]:
    """Every cycle transversal of exactly ``size`` vertices, in ``itertools.combinations`` order.

    A depth-first walk over the vertices 0..n-1 decides for each whether it
    goes into the transversal W or stays in the rest R, trying W first, so
    the sets come out in lexicographic order.  R is kept acyclic as it grows:
    a vertex may stay only if it has no loop and no path through R leads
    from its successors back to its predecessors (a search over integer
    bitmasks).  Every superset of a cyclic set is cyclic, so a branch whose
    rest has a cycle holds no transversal, and a branch with too few
    vertices left to fill W is cut too.  The cost follows the number of
    acyclic rests visited, not C(n, size).
    """
    n = d.order
    succ, pred = [0] * n, [0] * n
    for (u, v) in d.arcs:
        succ[u] |= 1 << v
        pred[v] |= 1 << u
    # (next vertex, vertices W still needs, W so far, bitmask of R so far)
    stack = [(0, size, (), 0)] if 0 <= size <= n else []
    while stack:
        v, need, chosen, rest = stack.pop()
        if need == n - v:  # every vertex left goes into W
            yield chosen + tuple(range(v, n))
            continue
        if not succ[v] >> v & 1:
            # v may stay unless a path in R runs from a successor to a predecessor
            target = pred[v] & rest
            seen = frontier = succ[v] & rest if target else 0
            while frontier and not seen & target:
                low = frontier & -frontier
                frontier ^= low
                new = succ[low.bit_length() - 1] & rest & ~seen
                seen |= new
                frontier |= new
            if not seen & target:
                stack.append((v + 1, need, chosen, rest | 1 << v))
        if need:
            stack.append((v + 1, need - 1, chosen + (v,), rest))
