"""Builders for the adversarial weighting families.

Each builder returns a :class:`TruncationFamily` whose generator materializes
induced truncations of one concrete infinite weighted digraph, with the
structural facts and certificates the construction is designed to satisfy.

Two host shapes are used:

* the *return path*: an infinite path 1 -> 2 -> ... with an arc back to
  vertex 1 from every vertex (and a loop at 1), which has cycles of every
  length and the singleton {1} as smallest cycle transversal;
* the *beaded chain*: vertex-disjoint directed cycles ("beads") of prescribed
  lengths, strung together by short forward/backward connector paths between
  consecutive bead ports, which has no finite cycle transversal.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Mapping

from .cycles import Gain
from .digraph import Tag, WeightedDigraph
from .errors import FamilyDefinitionError
from .families import FamilyFacts, TruncationFamily
from .rational import is_exact_number, ln_bounds, parse_weight, safe_log

HALF = Fraction(1, 2)
_SERIES_TERMS = 100_000  # terms power_series_sum adds up before its midpoint tail


# ---------------------------------------------------------------------------
# Sequence plumbing
# ---------------------------------------------------------------------------


def as_sequence(spec, *, name: str = "sequence") -> Callable[[int], object]:
    """Normalize a finite list (last value repeats) or a 1-indexed callable."""
    if callable(spec):
        return spec
    values = list(spec)
    if not values:
        raise ValueError(f"{name} must not be empty")

    def at(k: int):
        return values[min(k, len(values)) - 1]

    return at


def _one_like(x):
    """1 in the arithmetic of x: an exact Fraction for int/Fraction, else a float."""
    return Fraction(1) if isinstance(x, (int, Fraction)) else 1.0


class _Memo1:
    """Lazily grown 1-indexed sequence, safe to share across threads.

    Term k is ``step(k, prev)``, where ``prev`` lists terms 1..k-1, and must
    pass ``check(k, value, prev)`` if a check is given.  Terms are appended
    under the memo's lock and read without it.  A step may call other memos but
    never its own (it reads ``prev`` instead), so the lock is never re-entered.
    """

    def __init__(self, step: Callable[[int, list], object], check=None):
        self.step = step
        self.check = check
        self.values: list = []
        self._lock = threading.Lock()

    def __call__(self, k: int):
        if k < 1:
            raise ValueError("sequences are 1-indexed")
        values = self.values
        if len(values) < k:
            with self._lock:
                while len(values) < k:
                    j = len(values) + 1
                    v = self.step(j, values)
                    if self.check is not None:
                        self.check(j, v, values)
                    values.append(v)
        return values[k - 1]


# ---------------------------------------------------------------------------
# Epsilon schedules and gap targets
# ---------------------------------------------------------------------------


class EpsilonSchedule(_Memo1):
    """Strictly decreasing positive epsilon_k < 1/2, exact rationals."""

    def __init__(self, eps: Callable[[int], Fraction]):
        super().__init__(lambda k, _: Fraction(eps(k)), self._check)
        self.eps = eps

    def _check(self, j: int, v: Fraction, prev: list):
        if not 0 < v < HALF:
            raise ValueError(f"epsilon_{j} = {v} outside (0, 1/2)")
        if prev and not v < prev[-1]:
            raise ValueError(f"epsilon schedule not strictly decreasing at k={j}")

    @staticmethod
    def geometric(ratio: Fraction = Fraction(1, 4)) -> "EpsilonSchedule":
        ratio = Fraction(ratio)
        if not 0 < ratio < 1:
            raise ValueError("ratio must be in (0,1)")
        return EpsilonSchedule(lambda k: ratio**k)


class _Minorant(_Memo1):
    """Strictly decreasing minorant of a gap target, with limit zero.

    h(1) = min(g(1), 1/2) and h(n) = min(g(n), h(n-1) * n/(n+1)); the product
    chain forces h -> 0 and strict decrease while never exceeding g.  The
    ``adjusted`` flag records whether any value had to drop below g.
    """

    def __init__(self, g: Callable[[int], object]):
        super().__init__(self._step)
        self.g = g
        self.adjusted = False

    def _step(self, m: int, prev: list):
        gv = self.g(m)
        if not gv > 0:
            raise ValueError(f"gap target g({m}) = {gv} is not positive")
        hv = min(gv, prev[-1] * m / (m + 1) if prev else HALF * _one_like(gv))
        if hv != gv:
            self.adjusted = True
        return hv


@dataclass(frozen=True)
class GapTarget:
    """A positive target g(n); builders consume its decreasing minorant."""

    g: Callable[[int], object]

    def __call__(self, n: int):
        return self.g(n)

    def minorant(self) -> _Minorant:
        return _Minorant(self.g)

    @staticmethod
    def exp2() -> "GapTarget":
        return GapTarget(lambda n: Fraction(1, 2**n))

    @staticmethod
    def power(exponent: int) -> "GapTarget":
        return GapTarget(lambda n: Fraction(1, n) ** exponent)

    @staticmethod
    def constant(value) -> "GapTarget":
        v = Fraction(value)
        return GapTarget(lambda n: v)


# ---------------------------------------------------------------------------
# The return-path host (loop at 1, path forward, return arcs to 1)
# ---------------------------------------------------------------------------


#: both weightings of the return path: {1} is its smallest cycle transversal,
#: it has cycles of every length, and vertex 1 alone is strictly slack
_RETURN_PATH_FACTS = FamilyFacts(
    transversal=frozenset({0}),
    sct_size=1,
    l_min=1,
    l_max=math.inf,
    weighting_class=Tag.TRUTHLY_SUBSTOCHASTIC,
    return_vertex=0,
    pruitt_strict_vertex=0,
)


def _return_path(n: int, loop, forward, back) -> WeightedDigraph:
    """Order-n return path: ``loop`` on the loop at vertex 1, ``forward(m)`` on
    the path arc (m, m+1) and ``back(m)`` on the return arc (m, 1), 1-based m."""
    arcs = {(0, 0): loop}
    for i in range(n - 1):
        arcs[(i, i + 1)] = forward(i + 1)
    for i in range(1, n):
        arcs[(i, 0)] = back(i + 1)
    return WeightedDigraph(n, arcs)


def build_example1(a=Fraction(1, 2), f=None) -> TruncationFamily:
    """Renewal-style weighting of the return path.

    Arc weights: (1,1) gets a*f_1, (m,m+1) gets R_m/R_{m-1} and (m,1) gets
    f_m/R_{m-1}, where R_m = 1 - f_1 - ... - f_m.  The weight of the length-n
    return cycle telescopes to exactly f_n.  Vertex 1 is the unique
    substochastic slack (out-weight a f_1 + 1 - f_1 < 1); every other vertex
    is exactly stochastic.
    """
    if f is None:
        raise ValueError("a lifetime sequence f is required")
    if not 0 < a < 1:
        raise ValueError("a must lie in (0,1)")
    f_at = as_sequence(f, name="f")

    def remainder(j: int, prev: list):
        # R_j = R_{j-1} - f_j with R_0 = 1
        fj = f_at(j)
        if not fj > 0:
            raise FamilyDefinitionError(f"example1: f_{j} = {fj} is not positive")
        r = (prev[-1] if prev else _one_like(fj)) - fj
        if not r > 0:
            raise FamilyDefinitionError(f"example1: partial sums of f reach 1 at index {j}")
        return r

    remainders = _Memo1(remainder)

    def rem(m: int):
        return remainders(m) if m else _one_like(f_at(1))

    def generator(n: int) -> WeightedDigraph:
        return _return_path(n, a * f_at(1), lambda m: rem(m) / rem(m - 1),
                            lambda m: f_at(m) / rem(m - 1))

    return TruncationFamily("example1", generator, _RETURN_PATH_FACTS)


def f_geometric(q=Fraction(1, 2)) -> Callable[[int], Fraction]:
    """f_n = (1-q) q^(n-1); sums to one with exact rational remainders q^n."""
    q = Fraction(q)
    if not 0 < q < 1:
        raise ValueError("q must be in (0,1)")
    return lambda n: (1 - q) * q ** (n - 1)


@functools.lru_cache(maxsize=None, typed=True)
def power_series_sum(s: float) -> float:
    """sum_{k>=1} k^(-s) for s > 1, partial sum plus midpoint tail (memoised)."""
    if s <= 1:
        raise ValueError("series diverges for s <= 1")
    partial = sum(k ** (-s) for k in range(1, _SERIES_TERMS + 1))
    tail = (_SERIES_TERMS + 0.5) ** (1 - s) / (s - 1)
    return partial + tail


def f_power(epsilon: float = 0.5) -> Callable[[int], float]:
    """f_n = 1 / (a_eps n^(1+eps)) with a_eps the normalizing power-series sum."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    a_eps = power_series_sum(1 + epsilon)
    return lambda n: 1.0 / (a_eps * n ** (1 + epsilon))


# ---------------------------------------------------------------------------
# The symmetric star (hub weights a_k both ways)
# ---------------------------------------------------------------------------


def build_example2(a, sorted_weights: bool = True) -> TruncationFamily:
    """Symmetric star family: hub 0, spoke arcs (0,k) and (k,0) with weight a_k.

    All cycles are 2-cycles through the hub, so det(I - zA_n) = 1 - b_n^2 z^2
    with b_n^2 = a_1^2 + ... + a_{n-1}^2, giving the closed-form ladder
    lambda_n = b_n and limit b = sqrt(sum of squares).  Square-summability is
    required; closed forms with decay exponent <= 1/2 are rejected.
    """
    finite = not callable(a)
    a_at = as_sequence(a, name="a")
    length = len(list(a)) if finite else None

    def a_k(k: int):
        v = a_at(k)
        if not v > 0:
            raise FamilyDefinitionError(f"example2: a_{k} = {v} is not positive")
        return v

    if finite:
        sum_sq = sum((Fraction(a_k(k)) ** 2 for k in range(1, length + 1)), Fraction(0))
    else:
        n_probe = 100_000
        lo, hi = a_k(n_probe // 2), a_k(n_probe)
        decay = 2 * (math.log(float(lo)) - math.log(float(hi))) / math.log(2)
        if decay <= 1 + 1e-9:
            raise FamilyDefinitionError(
                f"example2: squared weights decay like k^-{decay:.3f}; "
                "not summable (exponent of a_k is <= 1/2)"
            )
        partial = sum(float(a_k(k)) ** 2 for k in range(1, n_probe + 1))
        c = float(hi) ** 2 * n_probe**decay
        sum_sq = partial + c * (n_probe + 0.5) ** (1 - decay) / (decay - 1)

    # a_1^2 + ... + a_k^2 as floats, summed left to right
    sums = _Memo1(lambda k, prev: (prev[-1] if prev else 0.0) + float(a_k(k)) ** 2)

    def spokes(n: int) -> int:
        return n - 1 if length is None else min(n - 1, length)

    def b_n(n: int) -> float:
        kmax = spokes(n)
        return math.sqrt(sums(kmax) if kmax else 0.0)

    def generator(n: int) -> WeightedDigraph:
        arcs = {}
        for k in range(1, spokes(n) + 1):
            w = a_k(k)
            arcs[(0, k)] = w
            arcs[(k, 0)] = w
        return WeightedDigraph(n, arcs)

    facts = FamilyFacts(
        transversal=frozenset({0}),
        sct_size=1,
        l_min=2,
        l_max=2,
        spectral_limit=math.sqrt(float(sum_sq)),
        perron_closed_form=b_n,
        return_vertex=0,
    )
    witness = (lambda n: tuple(range(n))) if sorted_weights else None
    return TruncationFamily("example2", generator, facts, witness_submatrix=witness)


def a_power(exponent: float) -> Callable[[int], float]:
    if exponent >= 0:
        raise ValueError("exponent must be negative")
    return lambda k: float(k) ** exponent


# ---------------------------------------------------------------------------
# Beaded chain host
# ---------------------------------------------------------------------------


class _BeadedChain:
    """Disjoint bead cycles joined port-to-port by connector paths.

    Bead k (1-indexed) occupies a contiguous block: its cycle vertices (the
    first one is the *port*), then forward-connector intermediates, then
    backward-connector intermediates.  Connector arcs leaving a port carry a
    quarter of that port's out-weight slack; interior connector arcs carry
    1/2.  The only cycles besides the beads are the port-to-port round trips
    of length 2 * connector_len.
    """

    def __init__(self, lengths: Callable[[int], int], bead_arc_weight, connector_len: int):
        self.lengths = lengths
        self.bead_arc_weight = bead_arc_weight  # (k, arc_index) -> weight
        self.connector_len = connector_len
        #: first vertex of bead k, and so one past the end of bead k-1's block
        self.offset = _Memo1(lambda k, prev: prev[-1] + self.block_size(k - 1) if prev else 0)

    def block_size(self, k: int) -> int:
        return self.lengths(k) + 2 * (self.connector_len - 1)

    def bead_vertices(self, k: int) -> range:
        start = self.offset(k)
        return range(start, start + self.lengths(k))

    def port_slack_weight(self, k: int):
        return (1 - self.bead_arc_weight(k, 0)) / 4

    def arcs_up_to(self, n: int) -> dict:
        arcs: dict = {}

        def put(u, v, w):
            if u < n and v < n:
                arcs[(u, v)] = w

        k = 1
        while self.offset(k) < n:
            length = self.lengths(k)
            port = self.offset(k)
            for i in range(length - 1):
                put(port + i, port + i + 1, self.bead_arc_weight(k, i))
            put(port + length - 1, port, self.bead_arc_weight(k, length - 1))

            next_port = self.offset(k + 1)
            c = self.connector_len
            fwd = [port + length + i for i in range(c - 1)]
            bwd = [port + length + (c - 1) + i for i in range(c - 1)]
            fchain = [port, *fwd, next_port]
            bchain = [next_port, *bwd, port]
            for i in range(c):
                put(fchain[i], fchain[i + 1], self.port_slack_weight(k) if i == 0 else HALF)
                put(bchain[i], bchain[i + 1], self.port_slack_weight(k + 1) if i == 0 else HALF)
            k += 1
        return arcs

    def generator(self, n: int) -> WeightedDigraph:
        return WeightedDigraph(n, self.arcs_up_to(n))


def _connector_len(l1: int) -> int:
    # round trips have length 2*ceil(l1/2) >= l1, so bead 1 stays shortest
    return max(1, (l1 + 1) // 2)


def build_prop1(cycle_lengths, targets, declared_lambda=None) -> TruncationFamily:
    """Beaded chain where bead k has gain exactly targets(k) ** (1/lengths(k)).

    The port arc of bead k carries the whole target weight c_k and the other
    bead arcs carry 1, so the gain is exact in rational arithmetic; ports keep
    half their slack after the connectors, every other vertex has out-weight
    exactly 1, and the weighting is truthly substochastic.
    """
    raw_lengths = as_sequence(cycle_lengths, name="cycle_lengths")
    lengths = _Memo1(lambda k, _: raw_lengths(k),
                     lambda j, v, prev: _require(v >= 1, f"length {v} at k={j} must be >= 1"))
    raw_targets = as_sequence(targets, name="targets")
    target_at = _Memo1(lambda k, _: raw_targets(k),
                       lambda j, v, prev: _require(0 < v < 1, f"target {v} at k={j} outside (0,1)"))

    chain = _BeadedChain(
        lengths,
        lambda k, i: target_at(k) if i == 0 else _one_like(target_at(k)),
        connector_len=1,
    )

    def bead_gain(k: int) -> Gain:
        return Gain(target_at(k), lengths(k))

    def log_gain(k: int) -> float | None:
        """Float log of bead k's gain for an exact target, else None."""
        t = target_at(k)
        if not is_exact_number(t):
            return None
        gap = float(1 - Fraction(t))
        if gap < 1e-300:
            return None
        return (math.log1p(-gap) if gap < HALF else safe_log(t)) / lengths(k)

    def beads_within(n: int) -> list[int]:
        """The beads of length <= n among the first 512."""
        return [k for k in range(1, 513) if lengths(k) <= n]

    def witness(n: int):
        """Vertices of the first bead of length <= n with the largest gain."""
        beads = beads_within(n)
        if not beads:
            raise ValueError(f"no bead of length <= {n}")
        logs = [log_gain(k) for k in beads]
        if None not in logs:
            # drop beads the float logs rank clearly lower; Gain settles near ties
            top = max(logs)
            beads = [k for k, x in zip(beads, logs) if x >= top * (1 + 1e-9)]
        best_k = beads[0]
        for k in beads[1:]:
            if bead_gain(best_k) < bead_gain(k):
                best_k = k
        return tuple(chain.bead_vertices(best_k))

    def window(n: int) -> int:
        return max(n, 1, *(chain.offset(k + 1) for k in beads_within(n)))

    facts = FamilyFacts(
        sct_size=math.inf,
        weighting_class=Tag.TRUTHLY_SUBSTOCHASTIC,
        spectral_limit=declared_lambda,
        return_vertex=0,
        pruitt_strict_vertex=0,
    )
    return TruncationFamily(
        "prop1", chain.generator, facts,
        omega_window=window, witness_submatrix=functools.cache(witness),
        extras={"bead_gain": bead_gain, "chain": chain},
    )


def _require(cond: bool, message: str):
    if not cond:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# Gap-target weighting on the beaded chain
# ---------------------------------------------------------------------------


def _check_cor1_length(j: int, v, prev: list):
    """Bead lengths: strictly increasing, then (optionally) constant forever."""
    _require(v >= 1, f"length {v} at k={j} must be >= 1")
    if prev:
        _require(v >= prev[-1], f"lengths must be nondecreasing (k={j})")
        if len(prev) >= 2 and prev[-1] == prev[-2]:
            _require(v == prev[-1], "lengths must stay constant once repeated")


def build_corollary1(g: GapTarget, cycle_lengths=None, name: str = "corollary1") -> TruncationFamily:
    """Weighting with 1 - sup-gain-at-length-n below g(n) for every n >= l_min.

    Bead k is weighted uniformly at 1 - h(max(lengths(k+1), k)) where h is
    the strictly decreasing minorant of g; connectors take a quarter of the
    port slack, so the whole weighting is strictly substochastic with
    supremum of gains equal to 1.
    """
    raw_lengths = as_sequence(cycle_lengths if cycle_lengths is not None else (lambda k: k),
                              name="cycle_lengths")
    lengths = _Memo1(lambda k, _: raw_lengths(k), _check_cor1_length)
    h = g.minorant()

    def bead_weight(k: int):
        return 1 - h(max(lengths(k + 1), k))

    chain = _BeadedChain(lengths, lambda k, i: bead_weight(k), _connector_len(lengths(1)))

    def kstar(n: int) -> int:
        k = 1
        while k < 10**6 and lengths(k) <= n:
            if h(max(lengths(k + 1), k)) < g(n):
                return k
            k += 1
        raise FamilyDefinitionError(f"{name}: no witness bead of length <= {n}")

    def window(n: int) -> int:
        return chain.offset(kstar(n) + 1)

    def witness(n: int):
        return tuple(chain.bead_vertices(kstar(n)))

    facts = FamilyFacts(
        sct_size=math.inf,
        l_min=lengths(1),
        weighting_class=Tag.STRICTLY_SUBSTOCHASTIC,
        spectral_limit=1,
        return_vertex=0,
        pruitt_strict_vertex=0,
    )
    return TruncationFamily(
        name, chain.generator, facts,
        omega_window=window, witness_submatrix=witness,
        extras={"chain": chain},
    )


def build_theorem2_fast(g: GapTarget, cycle_lengths=None) -> TruncationFamily:
    """Transient matrix M = c S with ladder gaps below g(n) for every n >= 1.

    S is the gap-target weighting (intrinsic radius 1), and c in (0,1) is
    chosen below min of g on [1, l_min], so that small truncations are
    already within target.  The all-ones vector certifies transience of M at
    radius c (every out-weight of M is strictly below c).
    """
    base = build_corollary1(g, cycle_lengths, name="theorem2-fast-host")
    l_min = base.facts.l_min
    m = min(g(n) for n in range(1, l_min + 1))
    scale = min(Fraction(m) if isinstance(m, (int, Fraction)) else m, 1) / 2

    base_gen = base.generator

    def generator(n: int) -> WeightedDigraph:
        return base_gen(n).map_weights(lambda w: scale * w)

    return TruncationFamily(
        "theorem2-fast", generator, replace(base.facts, spectral_limit=scale),
        omega_window=base.omega_window, witness_submatrix=base.witness_submatrix,
        extras={"scale": scale, "host": base},
    )


# ---------------------------------------------------------------------------
# Long-cycle weighting on the return path (unbounded cycle lengths)
# ---------------------------------------------------------------------------


@dataclass
class LongCycleCertificate:
    k: int
    length: int
    epsilon: Fraction
    prior_length_sum: int
    ineq_certified: bool
    gain_bound: Fraction
    gain_certified: bool
    gain_checked_directly: bool
    out_weight_bound: Fraction
    out_weight_certified: bool


class _LongCycleSchedule:
    """Lazily selected cycle lengths l_k obeying the growth inequality.

    l_k must exceed L = l_1 + ... + l_{k-1} and satisfy
        ((1-e)/(1-2e))^{l_k} > (2^k (1-e)/e)^{L},   e = eps_k,
    certified exactly through rational bounds on the logarithms (the powers
    themselves are astronomically large).  Selection is a doubling search
    from L+1.
    """

    DIRECT_CHECK_CAP = 120_000

    def __init__(self, eps: EpsilonSchedule):
        self.eps = eps
        #: l_k; l_1 = 1 is the loop at vertex 1
        self.length = _Memo1(self._select)
        self._ln_bounds = _Memo1(self._growth_ln_bounds)

    def _growth_ln_bounds(self, j: int, _prev: list) -> tuple[Fraction, Fraction]:
        """A lower bound on ln((1-e)/(1-2e)) and an upper one on ln(2^j (1-e)/e), e = eps_j."""
        e = self.eps(j)
        return ln_bounds((1 - e) / (1 - 2 * e))[0], ln_bounds(2**j * (1 - e) / e)[1]

    def _certified(self, j: int, cand: int, total: int) -> bool:
        lo_a, hi_b = self._ln_bounds(j)
        return cand > total and cand * lo_a > total * hi_b

    def _select(self, j: int, prev: list) -> int:
        if j == 1:
            return 1
        total = sum(prev)
        cand = total + 1
        while not self._certified(j, cand, total):
            cand *= 2
        return cand

    def cover_index(self, v: int) -> int:
        """Smallest j with l_j > v (the cycle first covering path arc (v, v+1))."""
        j = 1
        while self.length(j) <= v:
            j += 1
        return j

    def closing_index(self, v: int) -> int | None:
        """The j with l_j = v (vertex v closes gamma_j), or None."""
        j = self.cover_index(v - 1)
        return j if self.length(j) == v else None

    # weights on the return-path host, in the notation of 1-based vertices
    def path_weight(self, v: int) -> Fraction:
        j = self.cover_index(v)
        e = self.eps(j)
        if j >= 2 and v == self.length(j - 1):
            return e / 2**j
        return 1 - e

    def return_weight(self, v: int) -> Fraction:
        j = self.closing_index(v)
        return 1 - self.eps(j) if j is not None else 1 - self.path_weight(v)

    def loop_weight(self) -> Fraction:
        return 1 - self.eps(1)

    def certify(self, k: int) -> LongCycleCertificate:
        e = self.eps(k)
        l_k = self.length(k)
        total = sum(map(self.length, range(1, k)))
        gain_bound = 1 - 2 * e

        if k == 1:
            ineq = True
            gain_ok = self.loop_weight() >= gain_bound
            direct = True
        else:
            ineq = self._certified(k, l_k, total)
            # census: the l_{k-1} arcs with old tails number at most L_{k-1},
            # and every such weight (e_j/2^j or 1-e_j) is at least e_k/2^k
            floor = e / 2**k
            inherited_ok = (
                self.length(k - 1) <= total
                and all(self.eps(j) / 2**j >= floor for j in range(2, k + 1))
                and 1 - self.eps(1) >= floor
            )
            gain_ok = ineq and inherited_ok
            direct = False
            if l_k <= self.DIRECT_CHECK_CAP:
                product = Fraction(1)
                for j in range(2, k + 1):
                    product *= self.eps(j) / 2**j
                for j in range(2, k + 1):
                    lo = self.length(j - 1)
                    hi = self.length(j)
                    count = (hi - lo - 1) + (1 if j == k else 0)
                    product *= (1 - self.eps(j)) ** count
                direct = product >= gain_bound**l_k
                gain_ok = gain_ok and direct

        # out-weights of vertices first appearing in gamma_k, within the cycles
        e_next = self.eps(k + 1)
        out_bound = 1 - e / 2
        interior_ok = (1 - e) <= out_bound
        closer_ok = (1 - e) + e_next / 2 ** (k + 1) <= out_bound
        return LongCycleCertificate(
            k=k,
            length=l_k,
            epsilon=e,
            prior_length_sum=total,
            ineq_certified=ineq,
            gain_bound=gain_bound,
            gain_certified=gain_ok,
            gain_checked_directly=direct,
            out_weight_bound=out_bound,
            out_weight_certified=interior_ok and closer_ok,
        )


def build_prop2(eps: EpsilonSchedule) -> TruncationFamily:
    """Strictly substochastic weighting (within its cycle system) whose cycle
    gains approach 1 along cycles of unbounded length.

    Host: the return path.  Cycle gamma_k is the length-l_k return cycle; an
    arc gets 1 - eps_k when its tail first appears in gamma_k, eps_k / 2^k
    when the tail is old but the arc is new, and keeps its weight otherwise.
    Return arcs outside the cycle system absorb the leftover slack, keeping
    vertex 1 strictly slack.
    """
    sched = _LongCycleSchedule(eps)

    def generator(n: int) -> WeightedDigraph:
        return _return_path(n, sched.loop_weight(), sched.path_weight, sched.return_weight)

    def gamma_generator(n: int) -> WeightedDigraph:
        # the cycle system keeps only the return arcs that close some gamma_k
        arcs = generator(n).arcs
        return WeightedDigraph(n, {(u, v): w for (u, v), w in arcs.items()
                                   if v != 0 or u == 0 or sched.closing_index(u + 1)})

    facts = replace(_RETURN_PATH_FACTS, spectral_limit=1)
    gamma_facts = replace(facts, weighting_class=Tag.STRICTLY_SUBSTOCHASTIC)
    gamma = TruncationFamily("prop2-cycles", gamma_generator, gamma_facts)
    return TruncationFamily(
        "prop2", generator, facts,
        extras={"schedule": sched, "certify": sched.certify, "cycle_system": gamma},
    )


# ---------------------------------------------------------------------------
# Named-family registry (JSON-configurable surface)
# ---------------------------------------------------------------------------


def _descriptor(table: Mapping, cfg, where: str, what: str, kind=None):
    """Check the JSON descriptor ``cfg`` against ``table`` and build what it names.

    ``table`` maps each kind to its keys with their defaults (``...`` marks a
    required key) and to a builder, called as ``build(where, **values)``.  The
    descriptor names its kind under "kind", else it is ``kind``; a bare list is
    ``{"kind": "list", "values": [...]}`` where the table has that kind.  A
    malformed descriptor, or a value its builder rejects, raises ``ValueError``
    naming ``where``, its dotted path.
    """
    if isinstance(cfg, (list, tuple)) and "list" in table:
        cfg = {"kind": "list", "values": cfg}
    if not isinstance(cfg, Mapping):
        raise ValueError(f"{where} must be a JSON object, got {cfg!r}")
    given = dict(cfg)
    kind = given.pop("kind", kind)
    if not (isinstance(kind, str) and kind in table):
        raise ValueError(f"{where}: unknown {what} kind {kind!r}")
    keys, build = table[kind]
    for key in given:
        if key not in keys:
            raise ValueError(f"{where}.{key}: unknown key; {kind} accepts "
                             f"{', '.join(keys) or 'only kind'}")
    for key, default in keys.items():
        if default is ... and key not in given:
            raise ValueError(f"{where} of kind {kind!r} needs key {key!r}")
    try:
        return build(where, **{**keys, **given})
    except ValueError as exc:  # nested descriptors name their path once
        if str(exc).startswith(where):
            raise
        raise type(exc)(f"{where}: {exc}") from None


def _sequence(cfg, where: str):
    return _descriptor(_SEQUENCES, cfg, where, "sequence")


def _lengths(cfg, where: str):
    """A sequence of cycle lengths: its ``list`` (a bare list too) and ``constant`` hold integers."""
    return _descriptor(_LENGTHS, cfg, where, "sequence")


def _number(at: str, value) -> Fraction:
    """A parameter in the weight grammar of digraph files (``rational.parse_weight``)."""
    try:
        return parse_weight(str(value))
    except ValueError:
        raise ValueError(f"{at}: {value!r} is not a number") from None


def _positive(at: str, value) -> Fraction:
    x = _number(at, value)
    if not x > 0:
        raise ValueError(f"{at}: {value!r} is not positive")
    return x


def _integer(at: str, value) -> int:
    x = _number(at, value)
    if x.denominator != 1:
        raise ValueError(f"{at}: {value!r} is not an integer")
    return int(x)


def _length(at: str, value) -> int:
    x = _integer(at, value)
    if x < 1:
        raise ValueError(f"{at}: length {x} must be >= 1")
    return x


def _one_minus_inverse(lengths: Callable[[int], int]) -> Callable[[int], Fraction]:
    return lambda k: 1 - Fraction(1, lengths(k))


def _list(read):
    """A list kind, each entry checked by ``read(at, value)``."""
    return {"values": ...}, lambda at, values: [read(at, v) for v in values]


# one table per vocabulary, kind -> (keys with their defaults, builder); a
# default argument binds a value, checked, when the descriptor is read
_SEQUENCES = {
    "list": _list(_number),
    "int-list": _list(_integer),
    "linear": ({"start": 1, "step": 1}, lambda at, start, step: lambda k, s=_integer(
        f"{at}.start", start), d=_integer(f"{at}.step", step): s + d * (k - 1)),
    "powers-of-two": ({}, lambda at: lambda k: 2**k),
    "constant": ({"value": ...}, lambda at, value: lambda k, v=_number(f"{at}.value", value): v),
    "one-minus-inverse-length": ({"lengths": ...}, lambda at, lengths: _one_minus_inverse(
        as_sequence(_lengths(lengths, f"{at}.lengths")))),
    "one-minus-geometric": ({"ratio": "1/2"}, lambda at, ratio: lambda k, r=_number(
        f"{at}.ratio", ratio): 1 - r**k),
}
# a length list or constant is checked here, not by the generator at some n
_LENGTHS = {**_SEQUENCES, "list": _list(_length), "int-list": _list(_length), "constant": (
    {"value": ...}, lambda at, value: lambda k, v=_length(at, value): v)}
_GAPS = {
    "exp2": ({}, lambda at: GapTarget.exp2()),
    "power": ({"exponent": 2}, lambda at, exponent: GapTarget.power(
        _integer(f"{at}.exponent", exponent))),
    "constant": ({"value": ...}, lambda at, value: GapTarget.constant(
        _positive(f"{at}.value", value))),
}
# a listed lifetime f_k or star weight a_k is checked positive here too
_LIFETIMES = {
    "list": _list(_positive),
    "geometric": ({"ratio": "1/2"}, lambda at, ratio: f_geometric(_number(f"{at}.ratio", ratio))),
    "power": ({"epsilon": 0.5}, lambda at, epsilon: f_power(
        float(_number(f"{at}.epsilon", epsilon)))),
}
_STAR_WEIGHTS = {
    "list": _list(_positive),
    "power": ({"exponent": -0.75}, lambda at, exponent: a_power(
        float(_number(f"{at}.exponent", exponent)))),
}
_EPSILONS = {
    "geometric": ({"ratio": "1/4"}, lambda at, ratio: EpsilonSchedule.geometric(
        _number(f"{at}.ratio", ratio))),
}


def _star(at: str, a, sorted):
    if not isinstance(sorted, bool):
        raise ValueError(f"{at}.sorted must be true or false, got {sorted!r}")
    return build_example2(_descriptor(_STAR_WEIGHTS, a, f"{at}.a", "a"), sorted_weights=sorted)


def _gap_family(build):
    def family(at: str, lengths, g):
        return build(_descriptor(_GAPS, g, f"{at}.g", "gap-target", "exp2"),
                     None if lengths is None else _lengths(lengths, f"{at}.lengths"))
    return family


# each built-in family is a kind whose keys are its top-level parameters
_FAMILIES = {
    "example1": ({"a": "1/2", "f": {"kind": "geometric"}}, lambda at, a, f: build_example1(
        _number(f"{at}.a", a), _descriptor(_LIFETIMES, f, f"{at}.f", "f"))),
    "example2": ({"a": {"kind": "power"}, "sorted": True}, _star),
    "prop1": (
        {"lengths": {"kind": "linear"}, "targets": {"kind": "one-minus-geometric"},
         "declared_lambda": None},
        lambda at, lengths, targets, declared_lambda: build_prop1(
            _lengths(lengths, f"{at}.lengths"), _sequence(targets, f"{at}.targets"),
            None if declared_lambda is None else _positive(f"{at}.declared_lambda",
                                                           declared_lambda))),
    "prop2": ({"epsilon": {"kind": "geometric"}}, lambda at, epsilon: build_prop2(
        _descriptor(_EPSILONS, epsilon, f"{at}.epsilon", "epsilon"))),
    "corollary1": ({"lengths": None, "g": {}}, _gap_family(build_corollary1)),
    "theorem2-fast": ({"lengths": None, "g": {}}, _gap_family(build_theorem2_fast)),
}
BUILTIN_FAMILIES = tuple(_FAMILIES)


def family_from_config(name: str, params: Mapping | None = None) -> TruncationFamily:
    """Instantiate a built-in named family from a JSON-style parameter dict.

    The parameters are a descriptor of the family's kind: every key, at every
    depth, must be one its kind accepts.  A malformed value, an unknown key or
    an unknown kind raises ``ValueError`` naming the key's dotted path, such as
    ``example1 params.f.ratio``.
    """
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    # a table of this family alone: a "kind" key naming another family is an error
    return _descriptor({name: _FAMILIES[name]}, {} if params is None else params,
                       f"{name} params", "family", name)
