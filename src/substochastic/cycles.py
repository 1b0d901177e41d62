"""Simple-cycle machinery: enumeration, gains, transversals.

Enumeration is one search, the length-bounded lock/relax search of Gupta &
Suzumura (2021), run per strongly connected component from the minimal
vertex with the bound clamped to the component order; it yields each cycle
exactly once with its minimal vertex first.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Iterator

from .digraph import WeightedDigraph, strong_components, strongly_connected_components
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


def _cycle_paths(d: WeightedDigraph, max_length=None):
    """Yield (live_path, weight) over all simple cycles, minimal vertex first.

    Loops come first; then each nontrivial strong component is searched from
    its minimal vertex, which is removed before the rest is re-split.  The
    re-split is skipped unless two vertices keep an arc into the rest (a
    vertex with none is a singleton component), and it roots Tarjan in the
    rest's own iteration order, so the nontrivial components, and the
    cycles, always come out in the same order.
    """
    if max_length is not None and max_length < 1:
        return
    for v in range(d.order):
        w = d.arcs.get((v, v))
        if w is not None:
            yield [v], w
    if max_length == 1:
        return
    adj = d.adjacency
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
        for path, weight in _cycle_paths(d, max_length):
            yield Cycle(tuple(path), weight)

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
    # the best so far as (weight, length, log of a float weight, else None);
    # weight 0 is the zero-gain marker, and one Gain is built at the end
    best_w, best_len, best_log = 0, 1, None
    seen = 0
    for path, weight in _cycle_paths(d, max_length):
        length = len(path)
        if proper_only and length == arc_total:
            continue
        if max_count is not None and seen >= max_count:
            raise BudgetExceededError(
                f"cycle budget {max_count} exhausted; partial max gain attached",
                partial=Gain(best_w, best_len) if best_w else GAIN_ZERO,
            )
        seen += 1
        if not weight:  # a float product that underflowed is the zero gain
            continue
        if best_log is not None and type(weight) is float:
            # Gain's float comparison, with the best's log taken once
            log_w = math.log(weight)
            if length * best_log < best_len * log_w:
                best_w, best_len, best_log = weight, length, log_w
            continue
        if best_w:
            lhs, rhs = _cross(best_w, best_len, weight, length)
            if not lhs < rhs:
                continue
        best_w, best_len = weight, length
        best_log = math.log(weight) if type(weight) is float else None
    return Gain(best_w, best_len) if best_w else GAIN_ZERO


# ---------------------------------------------------------------------------
# Shortest cycles and transversals
# ---------------------------------------------------------------------------


def _succ_sets(d: WeightedDigraph) -> dict[int, set[int]]:
    succ: dict[int, set[int]] = {v: set() for v in range(d.order)}
    for (u, v) in d.arcs:
        succ[u].add(v)
    return succ


def _shortest_cycle(succ: dict[int, set[int]], alive: set[int]) -> list[int] | None:
    """Vertex list of a shortest cycle within ``alive``, or None if acyclic."""
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
    in_deg = None  # in-degrees in the rest, counted once W is first needed
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
                in_deg = {u: sum(p in out_deg for p in preds[u]) for u in out_deg}
            # a vertex with a loop never peels, so it is still in the rest
            v = loops.pop() if loops else max(
                out_deg, key=lambda u: (in_deg[u] * out_deg[u], -u))
            chosen.append(v)
        del out_deg[v]
        for p in preds[v]:
            if p in out_deg:
                out_deg[p] -= 1
                if out_deg[p] == 0:
                    ready.append(p)
        if in_deg is not None:
            for s in succ[v]:
                if s in out_deg:
                    in_deg[s] -= 1
    return order, chosen


def _greedy_packing(succ: dict[int, set[int]], alive: set[int]) -> Iterator[list[int]]:
    """Greedy shortest-first vertex-disjoint cycles within ``alive``."""
    alive = set(alive)
    while (cyc := _shortest_cycle(succ, alive)) is not None:
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


def _branch_and_bound(d: WeightedDigraph, budget: int) -> tuple[TransversalResult, int]:
    succ = _succ_sets(d)
    all_vs = set(range(d.order))

    # greedy initial upper bound: hit shortest cycles at maximum-degree vertices
    degree = Counter(v for arc in d.arcs for v in arc)  # out-degree plus in-degree
    greedy: set[int] = set()
    while (cyc := _shortest_cycle(succ, all_vs - greedy)) is not None:
        greedy.add(max(cyc, key=degree.__getitem__))

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
        cyc = _shortest_cycle(succ, all_vs - removed)
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
