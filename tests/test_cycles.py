import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substochastic import (
    BudgetExceededError,
    Gain,
    GAIN_ZERO,
    WeightedDigraph,
    enumerate_cycles,
    is_cycle_transversal,
    min_cycle_transversal,
    perron_root,
    sup_cycle_gain,
    truncate,
)
from substochastic import cycles, digraph
from substochastic.constructions import (
    BUILTIN_FAMILIES,
    build_example1,
    f_geometric,
    family_from_config,
)
from substochastic.cycles import _cycle_paths, _greedy_packing, _shortest_cycles, _succ_sets
from substochastic.spectral import coates_charpoly
from substochastic.families import family_to_float
from substochastic.inequalities import instance_stream, random_strong_digraph

from conftest import (
    brute_cycles,
    brute_is_acyclic,
    brute_min_fvs,
    k3,
    lifted,
    loop,
    oracle_coates_charpoly,
    oracle_cycles,
    oracle_shortest_cycle,
    oracle_sup_cycle_gain,
    seeded_digraph,
    triangle,
    two_cycle,
)


class TestEnumeration:
    def test_triangle_single_cycle(self):
        cycles = list(enumerate_cycles(triangle()))
        assert len(cycles) == 1
        assert cycles[0].vertices == (0, 1, 2)
        assert cycles[0].length == 3

    def test_example1_truncation_three(self):
        fam = build_example1(f=f_geometric())
        got = {c.vertices for c in enumerate_cycles(truncate(fam, 3))}
        assert got == {(0,), (0, 1), (0, 1, 2)}

    def test_k3_has_five_cycles(self):
        # by hand: three 2-cycles and two triangles
        cycles = list(enumerate_cycles(k3()))
        assert sorted(c.length for c in cycles) == [2, 2, 2, 3, 3]
        assert {c.vertices for c in cycles} == brute_cycles(k3())

    def test_canonical_rotation_starts_at_min(self):
        d = WeightedDigraph(4, {(2, 3): F(1, 2), (3, 1): F(1, 2), (1, 2): F(1, 2)})
        (c,) = list(enumerate_cycles(d))
        assert c.vertices == (1, 2, 3)

    def test_weights_multiply_along_the_cycle(self):
        (c,) = list(enumerate_cycles(triangle(F(1, 2), F(1, 3), F(1, 5))))
        assert c.weight == F(1, 30)

    @given(st.integers(0, 600), st.one_of(st.none(), st.integers(1, 5)))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, seed, max_len):
        d = seeded_digraph(seed, order_max=6)
        got = {c.vertices for c in enumerate_cycles(d, max_length=max_len)}
        assert got == brute_cycles(d, max_len)

    def test_max_count_sets_truncated_flag(self):
        stream = enumerate_cycles(k3(), max_count=2)
        assert len(list(stream)) == 2
        assert stream.truncated

    def test_exhaustive_stream_not_truncated(self):
        stream = enumerate_cycles(k3(), max_count=100)
        list(stream)
        assert not stream.truncated

    def test_budget_equal_to_cycle_count_is_not_truncated(self):
        half = F(1, 2)
        stream = enumerate_cycles(triangle(half, half, half), max_count=1)
        assert [c.vertices for c in stream] == [(0, 1, 2)]
        assert not stream.truncated


def assert_matches_johnson(d, bounds=None):
    """The lock search yields Johnson's sequence, and at each bound L (default:
    every L up to the order) its length <= L part: the same vertices, weights
    and weight types in the same order."""
    expected = [(vs, type(w), w) for vs, w in oracle_cycles(d)]

    def listed(stream):
        return [(c.vertices, type(c.weight), c.weight) for c in stream]

    assert listed(enumerate_cycles(d)) == expected
    for bound in range(1, d.order + 1) if bounds is None else bounds:
        got = listed(enumerate_cycles(d, max_length=bound))
        assert got == [c for c in expected if len(c[0]) <= bound]
    for budget in range(max(len(expected) - 1, 0), len(expected) + 1):
        stream = enumerate_cycles(d, max_count=budget)
        assert listed(stream) == expected[:budget]
        assert stream.truncated == (budget < len(expected))


def hub_and_cycles(seed: int) -> WeightedDigraph:
    """Vertex 0 joined to two to four disjoint short cycles on labels spread
    over an order of 40-200.  The re-split after 0 finds each cycle as a
    strong component, and a set of such labels does not iterate in sorted
    order, so the order Tarjan is rooted in decides the order of the cycles."""
    rng = random.Random(f"hub:{seed}")
    order = rng.randint(40, 200)
    labels = rng.sample(range(1, order), 12)
    arcs = {}
    for j in range(rng.randint(2, 4)):
        cyc = labels[3 * j: 3 * j + 2 + j % 2]
        arcs.update(((a, b), F(1, 3)) for a, b in zip(cyc, cyc[1:] + cyc[:1]))
        arcs[(0, cyc[0])] = arcs[(cyc[-1], 0)] = F(1, 5)
    return WeightedDigraph(order, arcs)


# Float truncations at the sizes the ladder runs, each with the bounds it is
# checked at: example2's star (hub 0, one 2-cycle per spoke) and example1's
# return path (one cycle of each length through vertex 0)
LARGE_FLOAT = [("example2", 2000, (1, 2, 3)), ("example1", 500, (1, 2, 100, 499))]


class TestOneSearch:
    """``_bounded_paths`` against Johnson's blocked search, the path it replaced."""

    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_instance_stream(self, seed):
        (_, d), = instance_stream(seed, 1, 11)
        assert_matches_johnson(d)

    @given(st.integers(0, 10**6), st.integers(2, 12))
    @settings(max_examples=120, deadline=None)
    def test_sparse_strong_digraphs_with_loops(self, seed, order):
        d = random_strong_digraph(random.Random(seed), order, arc_prob=0.3)
        assert_matches_johnson(d)

    @pytest.mark.parametrize("seed", range(8))
    def test_hub_joined_to_disjoint_cycles(self, seed):
        assert_matches_johnson(hub_and_cycles(seed), (2, 3))

    @pytest.mark.parametrize("order", range(1, 7))
    def test_complete_digraphs_with_loops(self, order):
        d = WeightedDigraph(
            order, {(u, v): F(1, order + 1) for u in range(order) for v in range(order)}
        )
        assert_matches_johnson(d)

    @pytest.mark.parametrize("name, n, mode, bounds", [
        *((name, 40, "exact", None) for name in BUILTIN_FAMILIES),
        *((name, n, "float", bounds) for name, n, bounds in LARGE_FLOAT),
    ])
    def test_family_truncations(self, name, n, mode, bounds):
        fam = family_from_config(name)
        assert_matches_johnson(truncate(fam if mode == "exact" else family_to_float(fam), n),
                               bounds)

    def test_star(self):
        # the star's re-split is skipped: without the hub no vertex keeps an out-arc
        assert_matches_johnson(truncate(family_from_config("example2"), 60))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_omega_windows(self, n):
        fam = family_from_config("corollary1")
        assert_matches_johnson(truncate(fam, max(fam.omega_window(n), n)), (n,))

    def test_one_tarjan_pass_per_digraph(self):
        d = truncate(family_to_float(family_from_config("example2")), 2000)
        scc = mock.Mock(wraps=digraph.strongly_connected_components)
        with mock.patch.object(digraph, "strongly_connected_components", scc), \
             mock.patch.object(cycles, "strongly_connected_components", scc):
            perron_root(d)
            sup_cycle_gain(d)
        assert [c.args[1] for c in scc.call_args_list] == [range(d.order)]


class TestGains:
    def test_loop_gain_with_improper_allowed(self):
        g = sup_cycle_gain(loop(F(7, 10)), max_length=1, proper_only=False)
        assert g == Gain(F(7, 10), 1)
        assert g.value == pytest.approx(0.7)

    def test_single_cycle_digraph_excluded_by_default(self):
        assert sup_cycle_gain(loop(), max_length=1) == GAIN_ZERO
        assert sup_cycle_gain(triangle()) == GAIN_ZERO

    def test_quarter_two_cycle_gain_is_one_quarter(self):
        # (1/4 * 1/4) ** (1/2) == 1/4, exactly via cross-powering
        g = sup_cycle_gain(two_cycle(F(1, 4), F(1, 4)), proper_only=False)
        assert g == Gain(F(1, 16), 2) == Gain(F(1, 4), 1)

    def test_example1_supremum_reaches_f_n_gain(self):
        fam = build_example1(f=f_geometric())
        n = 8
        d = truncate(fam, n)
        g = sup_cycle_gain(d, max_length=n, proper_only=False)
        target = Gain(f_geometric()(n), n)  # the length-n return cycle
        assert not g < target

    def test_budget_error_carries_partial_lower_bound(self):
        with pytest.raises(BudgetExceededError) as info:
            sup_cycle_gain(k3(), max_count=2, proper_only=False)
        assert isinstance(info.value.partial, Gain)
        assert info.value.partial.weight > 0

    @pytest.mark.parametrize("loop_weight, want", [(None, GAIN_ZERO), (0.5, Gain(0.5, 1))],
                             ids=["alone", "after-a-loop"])
    def test_a_float_cycle_that_underflows_is_skipped(self, loop_weight, want):
        # the 2-cycle's weight 1e-200 * 1e-200 is 0.0, which has no log
        arcs = {(0, 1): 1e-200, (1, 0): 1e-200}
        if loop_weight is not None:
            arcs[(0, 0)] = loop_weight
        assert sup_cycle_gain(WeightedDigraph(2, arcs), proper_only=False) == want

    def test_budget_equal_to_cycle_count_does_not_raise(self):
        half = F(1, 2)
        g = sup_cycle_gain(triangle(half, half, half), proper_only=False, max_count=1)
        assert g == Gain(F(1, 8), 3)

    @given(st.integers(0, 200), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_budget_raises_only_when_another_cycle_exists(self, seed, budget):
        d = seeded_digraph(seed, order_max=6)
        gains = [c.gain for c in enumerate_cycles(d)]
        if len(gains) <= budget:
            assert sup_cycle_gain(d, proper_only=False, max_count=budget) == max(gains)
            return
        with pytest.raises(BudgetExceededError) as info:
            sup_cycle_gain(d, proper_only=False, max_count=budget)
        assert info.value.partial == max(gains[:budget])

    def test_gains_are_unhashable(self):
        # equal gains like (w, l) and (w**m, l*m) would need equal hashes
        assert Gain(F(1, 4), 2) == Gain(F(1, 16), 4)
        with pytest.raises(TypeError):
            hash(Gain(F(1, 4), 2))

    def test_gain_ordering_mixed_lengths(self):
        assert Gain(F(1, 2), 1) < Gain(F(9, 10), 1)
        assert Gain(F(1, 4), 2) < Gain(F(7, 10), 1)  # 0.5 < 0.7
        assert Gain(F(49, 100), 2) == Gain(F(7, 10), 1)
        assert GAIN_ZERO < Gain(F(1, 100), 3)

    def test_gain_value_survives_huge_fractions(self):
        g = Gain(F(1, 2) ** 3000, 3000)
        assert g.value == pytest.approx(0.5)


def gain_search(search, d, **kwargs):
    """("gain", g) for a finished search, ("partial", g) for one over its budget."""
    try:
        return "gain", search(d, **kwargs)
    except BudgetExceededError as exc:
        return "partial", exc.partial


def assert_same_gain_search(d, max_length=None):
    """``sup_cycle_gain`` against the one-``Gain``-per-cycle oracle: same weight
    (type and value) and length, finished or under every budget around the
    number of qualifying cycles."""
    for proper_only in (True, False):
        count = sum(1 for path, _ in _cycle_paths(d, max_length)
                    if not (proper_only and len(path) == len(d.arcs)))
        for max_count in (None, 0, 1, count // 2, max(count - 1, 0), count):
            kwargs = dict(max_length=max_length, proper_only=proper_only, max_count=max_count)
            kind, got = gain_search(sup_cycle_gain, d, **kwargs)
            want_kind, want = gain_search(oracle_sup_cycle_gain, d, **kwargs)
            assert kind == want_kind
            assert (type(got.weight), got.weight, got.length) == (
                type(want.weight), want.weight, want.length)


MODES = ("exact", "float")


def in_mode(d: WeightedDigraph, mode: str) -> WeightedDigraph:
    return d if mode == "exact" else d.to_float()


class TestGainSearch:
    """The running (weight, length, log) best against one ``Gain`` per cycle."""

    @given(st.integers(0, 10**6), st.sampled_from(MODES),
           st.one_of(st.none(), st.integers(1, 5)))
    @settings(max_examples=80, deadline=None)
    def test_instance_stream(self, seed, mode, max_length):
        (_, d), = instance_stream(seed, 1, 11, mode=mode)
        assert_same_gain_search(d, max_length)

    @given(st.integers(0, 10**6), st.integers(1, 10), st.sampled_from(MODES))
    @settings(max_examples=80, deadline=None)
    def test_random_strong_digraphs_with_loops(self, seed, order, mode):
        d = random_strong_digraph(random.Random(seed), order, arc_prob=0.3)
        assert_same_gain_search(in_mode(d, mode))

    @pytest.mark.parametrize("name, mode, n, max_length", [
        *((name, mode, n, n) for name in BUILTIN_FAMILIES for mode in MODES for n in (5, 40)),
        *((name, "float", n, bounds[-2]) for name, n, bounds in LARGE_FLOAT),
    ])
    def test_family_truncations(self, name, mode, n, max_length):
        fam = family_from_config(name)
        d = truncate(fam if mode == "exact" else family_to_float(fam), n)
        assert_same_gain_search(d, max_length)
        assert_same_gain_search(d)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_omega_windows(self, n):
        fam = family_from_config("corollary1")
        assert_same_gain_search(truncate(fam, max(fam.omega_window(n), n)), n)

    @pytest.mark.parametrize("mode", MODES)
    def test_tied_gains_keep_the_first(self, mode):
        # gain 1/2 each: the loop (1/2, 1) before the 2-cycle (1/4, 2), and the
        # 2-cycle (1/4, 2) before the triangle (1/8, 3)
        half = F(1, 2)
        loop_first = WeightedDigraph(3, {(0, 0): half, (1, 2): half, (2, 1): half})
        two_cycle_first = WeightedDigraph(3, {(0, 1): half, (1, 0): half, (1, 2): half,
                                              (2, 0): half})
        for d, lengths in ((loop_first, [1, 2]), (two_cycle_first, [2, 3])):
            d = in_mode(d, mode)
            assert [c.length for c in enumerate_cycles(d)] == lengths
            assert_same_gain_search(d)
            g = sup_cycle_gain(d)
            assert (g.weight, g.length) == (half ** lengths[0], lengths[0])

    def test_mixed_exact_and_float_weights(self):
        arcs = {(u, v): F(1, 5) if (u + v) % 2 else 0.2 for u in range(4) for v in range(4)}
        arcs[(0, 0)] = F(1, 2)
        arcs[(1, 2)] = arcs[(2, 1)] = 0.5  # the float 2-cycle ties with the exact loop at 0
        d = WeightedDigraph(4, arcs)
        assert_same_gain_search(d)
        g = sup_cycle_gain(d)
        assert (type(g.weight), g.weight, g.length) == (F, F(1, 2), 1)


class TestTransversal:
    def test_triangle_needs_one(self):
        res = min_cycle_transversal(triangle())
        assert res.size == 1 and res.optimality == "exact"

    def test_example1_always_hub_only(self):
        fam = build_example1(f=f_geometric())
        for n in (2, 5, 9, 14):
            res = min_cycle_transversal(truncate(fam, n))
            assert res.vertices == frozenset({0})

    def test_k3_needs_two(self):
        assert brute_min_fvs(k3()) == 2  # oracle
        assert min_cycle_transversal(k3()).size == 2

    def test_acyclic_needs_none(self):
        d = WeightedDigraph(3, {(0, 1): F(1, 2), (1, 2): F(1, 2)})
        res = min_cycle_transversal(d)
        assert res.size == 0

    @given(st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_subset_search(self, seed):
        d = seeded_digraph(seed, order_max=7)
        res = min_cycle_transversal(d)
        assert res.optimality == "exact"
        assert res.size == brute_min_fvs(d)
        assert brute_is_acyclic(d, res.vertices)

    def test_budget_exhaustion_returns_upper_bound(self):
        d = seeded_digraph(17, order_max=7)
        res = min_cycle_transversal(d, budget=0)
        assert res.optimality == "upper-bound"
        assert brute_is_acyclic(d, res.vertices)
        assert res.size >= brute_min_fvs(d)

    def test_is_cycle_transversal_checker(self):
        assert is_cycle_transversal(k3(), {0, 1})
        assert not is_cycle_transversal(k3(), {0})


def packing(d: WeightedDigraph) -> list[list[int]]:
    """The greedy packing that bounds the branch and bound, on the whole of ``d``."""
    return list(_greedy_packing(_succ_sets(d), set(range(d.order))))


class TestPacking:
    def test_two_disjoint_loops(self):
        d = WeightedDigraph(2, {(0, 0): F(1, 2), (1, 1): F(1, 2)})
        assert len(packing(d)) == 2

    def test_example1_all_cycles_share_hub(self):
        fam = build_example1(f=f_geometric())
        assert len(packing(truncate(fam, 9))) == 1

    def test_k3_pairwise_intersecting(self):
        assert len(packing(k3())) == 1

    @given(st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_packing_bounds_transversal(self, seed):
        # disjoint cycles, no more than the minimum transversal: a sound lower bound
        d = seeded_digraph(seed, order_max=7)
        cycles = packing(d)
        seen = set()
        for c in cycles:
            assert all((u, c[(i + 1) % len(c)]) in d.arcs for i, u in enumerate(c))
            assert not (seen & set(c)) and len(set(c)) == len(c)
            seen |= set(c)
        assert len(cycles) <= min_cycle_transversal(d).size


def arbitrary_digraph(rng: random.Random, order: int, weight=lambda rng: F(1, 2)) -> WeightedDigraph:
    """Arcs drawn with one density from sparse (long shortest cycles) to dense,
    loops on about a tenth of the vertices; not necessarily strongly connected."""
    density = rng.uniform(0.05, 0.5)
    return WeightedDigraph(order, {
        (u, v): weight(rng) for u in range(order) for v in range(order)
        if rng.random() < (0.1 if u == v else density)})


# after a cycle is yielded: one of its vertices goes (the greedy incumbent),
# all of it (the packing), or any vertex still alive, on the cycle or not
REMOVALS = {
    "one-vertex": lambda rng, cyc, alive: {rng.choice(cyc)},
    "whole-cycle": lambda rng, cyc, alive: set(cyc),
    "any-vertex": lambda rng, cyc, alive: {rng.choice(sorted(alive))},
}


class TestResumableScan:
    """``_shortest_cycles`` against a search from every start on each call
    (``conftest.oracle_shortest_cycle``), on the same set after every removal."""

    @given(st.integers(0, 10**6), st.integers(1, 14), st.sampled_from(sorted(REMOVALS)),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_each_cycle_is_the_oracles_after_every_removal(self, seed, order, removal, sets):
        rng = random.Random(f"scan:{seed}")
        d = arbitrary_digraph(rng, order)
        succ = _succ_sets(d) if sets else d.adjacency  # sets, or dicts in arc order
        alive = set(range(order))
        scan = _shortest_cycles(succ, alive)
        while True:
            want = oracle_shortest_cycle(succ, alive)
            assert next(scan, None) == want
            if want is None:
                break
            alive -= REMOVALS[removal](rng, want, alive)

    @pytest.mark.parametrize("name, n", [("corollary1", 120), ("prop1", 120), ("example1", 60)])
    def test_family_truncations_one_vertex_at_a_time(self, name, n):
        d = truncate(family_from_config(name), n)
        succ = _succ_sets(d)
        alive = set(range(n))
        for cyc in _shortest_cycles(succ, alive):
            assert cyc == oracle_shortest_cycle(succ, alive)
            alive.discard(max(cyc))
        assert oracle_shortest_cycle(succ, alive) is None

    def test_empty_and_acyclic_sets_yield_nothing(self):
        assert list(_shortest_cycles({}, set())) == []
        path = {0: {1}, 1: {2}, 2: set()}
        assert list(_shortest_cycles(path, {0, 1, 2})) == []


# every weight an int, a Fraction, or a mix of the exact and float kinds: every
# cycle of an exact digraph weighs a Fraction, whatever its arcs are
WEIGHT_KINDS = {
    "fraction": lambda rng: F(rng.randint(1, 9), rng.randint(1, 40)),
    "int": lambda rng: rng.randint(1, 3),
    "int-and-fraction": lambda rng: rng.choice([rng.randint(1, 3), F(rng.randint(1, 9), 7)]),
    "float": lambda rng: rng.uniform(0.05, 1.0),
    "float-and-fraction": lambda rng: rng.choice([rng.uniform(0.05, 1.0), F(1, rng.randint(1, 9))]),
}


class TestIntegerNumerators:
    """Exact cycle weights searched as integers over one denominator, against
    the Fraction products of ``oracle_cycles``: same values and types."""

    @given(st.integers(0, 10**6), st.integers(1, 8), st.sampled_from(sorted(WEIGHT_KINDS)))
    @settings(max_examples=120, deadline=None)
    def test_weights_gains_and_coates_as_the_oracles(self, seed, order, kind):
        rng = random.Random(f"numerators:{seed}")
        d = arbitrary_digraph(rng, order, WEIGHT_KINDS[kind])
        assert_matches_johnson(d)
        count = len(oracle_cycles(d))
        for proper_only in (True, False):
            for max_count in (None, *range(count + 1)):
                kwargs = dict(proper_only=proper_only, max_count=max_count)
                kind_got, got = gain_search(sup_cycle_gain, d, **kwargs)
                kind_want, want = gain_search(oracle_sup_cycle_gain, d, **kwargs)
                assert (kind_got, type(got.weight), got.weight, got.length) == (
                    kind_want, type(want.weight), want.weight, want.length)
        got, want = coates_charpoly(d), oracle_coates_charpoly(d)
        assert [(type(c), c) for c in got] == [(type(c), c) for c in want]

    @given(st.integers(0, 10**6), st.integers(1, 8), st.sampled_from(sorted(WEIGHT_KINDS)))
    @settings(max_examples=120, deadline=None)
    def test_an_exact_digraph_computes_as_its_fraction_lift(self, seed, order, kind):
        # an exact digraph's cycle weights, gains and Coates coefficients are
        # its all-Fraction lift's, as Fractions; a float digraph's Coates
        # coefficients are its lift's, rounded once
        rng = random.Random(f"lift:{seed}")
        d = arbitrary_digraph(rng, order, WEIGHT_KINDS[kind])
        lift = lifted(d)
        coates, want = coates_charpoly(d), coates_charpoly(lift)
        if not d.is_exact:
            assert [c.hex() for c in coates] == [float(c).hex() for c in want]
            return
        assert [(type(c), c) for c in coates] == [(F, c) for c in want]
        cycles = [(c.vertices, type(c.weight), c.weight) for c in enumerate_cycles(d)]
        assert cycles == [(c.vertices, F, c.weight) for c in enumerate_cycles(lift)]
        for proper_only in (True, False):
            for max_count in (None, *range(len(cycles) + 1)):
                kwargs = dict(proper_only=proper_only, max_count=max_count)
                kind_got, got = gain_search(sup_cycle_gain, d, **kwargs)
                kind_want, want = gain_search(sup_cycle_gain, lift, **kwargs)
                assert got is GAIN_ZERO or type(got.weight) is F
                assert (kind_got, type(got.weight), got.weight, got.length) == (
                    kind_want, type(want.weight), want.weight, want.length)

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_family_coates_as_the_oracle(self, name):
        d = truncate(family_from_config(name), 12)
        got, want = coates_charpoly(d), oracle_coates_charpoly(d)
        assert [(type(c), c) for c in got] == [(type(c), c) for c in want]


class TestGainBridging:
    @given(st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_one_minus_weight_factorization(self, seed):
        # (1 - S) == (1 - gain) * sum_{i<len} gain^i, and <= len * (1 - gain)
        d = seeded_digraph(seed, order_max=6)
        for c in enumerate_cycles(d):
            lam = c.gain.value
            s = float(c.weight)
            series = sum(lam**i for i in range(c.length))
            assert (1 - s) == pytest.approx((1 - lam) * series, abs=1e-12)
            assert 1 - s <= c.length * (1 - lam) + 1e-12
