"""The minimum cycle transversal search and its Levy–Low lower bound.

The search is checked against ``conftest.oracle_min_cycle_transversal``, the
same branch and bound pruned by the packing bound alone: a stronger valid
bound may only skip subtrees without a smaller transversal, so every exact
answer must be the same vertex set.  The reduction is checked on its own
against exhaustive subset search, and the beaded-chain hosts of the paper's
families are pinned at sizes the packing bound alone could not finish.  The
pruned enumeration of all transversals of one size, which the conjecture scan
reads, is checked against the filtered ``itertools.combinations``.
"""

import itertools
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substochastic import (
    WeightedDigraph,
    family_from_config,
    is_cycle_transversal,
    min_cycle_transversal,
    truncate,
)
from substochastic import cycles
from substochastic.cycles import (
    _branch_and_bound,
    _reduce,
    _succ_sets,
    _transversals_of_size,
    peel_transversal,
)
from substochastic.inequalities import instance_stream, random_strong_digraph

from conftest import brute_is_acyclic, brute_min_fvs, oracle_min_cycle_transversal

HOSTS = ("prop1", "corollary1", "theorem2-fast")


def assert_same_as_oracle(d: WeightedDigraph):
    got = min_cycle_transversal(d)
    want, _nodes = oracle_min_cycle_transversal(d)
    assert (got.vertices, got.size, got.optimality) == (want.vertices, want.size, want.optimality)
    assert brute_is_acyclic(d, got.vertices)
    return got


# ---------------------------------------------------------------------------
# Differential: same answers as the packing-bound search
# ---------------------------------------------------------------------------


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_instance_stream_matches_oracle(seed):
    [(_i, d)] = instance_stream(seed, 1, 12)
    assert_same_as_oracle(d)


@given(st.integers(0, 10**6), st.integers(2, 9))
@settings(max_examples=60, deadline=None)
def test_small_random_matches_oracle_and_brute_force(seed, order):
    d = random_strong_digraph(random.Random(f"fvs:{seed}"), order)
    res = assert_same_as_oracle(d)
    assert res.optimality == "exact"
    assert res.size == brute_min_fvs(d)


@pytest.mark.parametrize("order", [14, 15, 16, 17, 18])
@pytest.mark.parametrize("seed", [0, 1])
def test_larger_random_matches_oracle(order, seed):
    assert_same_as_oracle(random_strong_digraph(random.Random(f"fvs-large:{seed}"), order))


# search nodes on the order-24..32 digraphs of the certify benchmark pool; a lower
# bound of forced - packing in place of forced + packing took 610, 141, 191 and
# 807 on the first four, while the beaded hosts take 1 node either way
LARGE_POOL_NODES = [218, 58, 67, 135, 362, 430, 196, 72, 343, 74]


# breadth-first searches (``cycles._bfs_cycle`` calls) of two large searches
# that resume the shortest-cycle scan: the greedy incumbent of corollary1 at
# n = 1600 (56 vertices) and the whole transversal search of example1 with
# the power-law lifetime at n = 3000 (the hub alone).  A scan that went back
# to the first start after each cycle made 29,652 searches in the first (and
# still 3 in the second); one without the acyclic exit made 3,143 and 2,999.
GREEDY_SEARCHES_COROLLARY1_1600 = 1932
SEARCHES_EXAMPLE1_POWER_3000 = 3


@pytest.fixture
def searches(monkeypatch) -> list:
    """The start of every breadth-first search of the shortest-cycle scan, in order."""
    starts = []
    search = cycles._bfs_cycle
    monkeypatch.setattr(cycles, "_bfs_cycle",
                        lambda succ, alive, s, limit: starts.append(s) or search(succ, alive, s, limit))
    return starts


def test_greedy_incumbent_search_count_is_pinned(searches):
    d = truncate(family_from_config("corollary1"), 1600)
    greedy = cycles._greedy_transversal(d, _succ_sets(d))
    assert (len(greedy), len(searches)) == (56, GREEDY_SEARCHES_COROLLARY1_1600)


def test_example1_power_search_count_is_pinned(searches):
    fam = family_from_config("example1", {"a": "1/2", "f": {"kind": "power", "epsilon": 0.5}})
    res = min_cycle_transversal(truncate(fam, 3000))
    assert (res.vertices, res.optimality) == (frozenset({0}), "exact")
    assert len(searches) == SEARCHES_EXAMPLE1_POWER_3000


def test_a_result_that_leaves_a_cycle_raises(monkeypatch):
    # an explicit check, not an assert, so that ``python -O`` keeps it
    monkeypatch.setattr(cycles, "peel_transversal", lambda succ, alive, max_size: None)
    with pytest.raises(RuntimeError, match=r"^transversal re-verification failed: \[0\] "
                       r"leaves a cycle$"):
        _branch_and_bound(WeightedDigraph(2, {(0, 1): F(1, 2), (1, 0): F(1, 2)}), 100)


def test_node_counts_on_the_large_pool_are_pinned():
    nodes = [
        _branch_and_bound(random_strong_digraph(random.Random(f"7919:large:{j}"), 24 + j % 9),
                          200_000)[1]
        for j in range(len(LARGE_POOL_NODES))
    ]
    assert nodes == LARGE_POOL_NODES


# ---------------------------------------------------------------------------
# The reduction alone
# ---------------------------------------------------------------------------


def random_digraph(rng: random.Random, order: int) -> WeightedDigraph:
    """Arbitrary arcs, loops included; not necessarily strongly connected."""
    density = rng.uniform(0.25, 0.55)
    arcs = {
        (u, v): F(1, 2)
        for u in range(order)
        for v in range(order)
        if rng.random() < (0.1 if u == v else density)
    }
    return WeightedDigraph(order, arcs)


def reduce_digraph(d: WeightedDigraph) -> tuple[int, WeightedDigraph, set]:
    """``_reduce`` on all of ``d``, with the reduced digraph relabelled 0..k-1."""
    forced, reduced = _reduce(_succ_sets(d), set(range(d.order)))
    label = {v: i for i, v in enumerate(sorted(reduced))}
    arcs = {(u, w) for u, ws in reduced.items() for w in ws}
    relabelled = WeightedDigraph(len(label), {(label[u], label[w]): F(1, 2) for u, w in arcs})
    return forced, relabelled, arcs


@given(st.integers(0, 10**6), st.integers(1, 9))
@settings(max_examples=80, deadline=None)
def test_reduction_preserves_minimum_transversal(seed, order):
    d = random_digraph(random.Random(f"reduce:{seed}"), order)
    forced, reduced, _arcs = reduce_digraph(d)
    assert forced + brute_min_fvs(reduced) == brute_min_fvs(d)


def test_reduction_is_exhaustive_and_creates_loops_and_arcs():
    """Over a fixed sample: bypasses made loops and new arcs, and the identity held."""
    made_loops = new_arcs = 0
    for seed in range(300):
        rng = random.Random(f"reduce-sample:{seed}")
        d = random_digraph(rng, rng.randint(2, 9))
        forced, reduced, arcs = reduce_digraph(d)
        assert forced + brute_min_fvs(reduced) == brute_min_fvs(d)
        # nothing left to reduce: no loops, every in- and out-degree at least 2
        for v in range(reduced.order):
            succ = {w for (u, w) in reduced.arcs if u == v}
            pred = {u for (u, w) in reduced.arcs if w == v}
            assert v not in succ and len(succ) >= 2 and len(pred) >= 2
        made_loops += forced > sum(u == v for (u, v) in d.arcs)
        new_arcs += bool(arcs - set(d.arcs))
    assert made_loops > 100 and new_arcs > 20


def test_bypass_of_a_two_cycle_forces_one_vertex():
    forced, reduced, _arcs = reduce_digraph(WeightedDigraph(2, {(0, 1): F(1, 2), (1, 0): F(1, 2)}))
    assert (forced, reduced.order) == (1, 0)


def test_complete_digraph_is_irreducible():
    d = WeightedDigraph(3, {(u, v): F(1, 4) for u in range(3) for v in range(3) if u != v})
    forced, reduced, arcs = reduce_digraph(d)
    assert forced == 0 and arcs == set(d.arcs)


# ---------------------------------------------------------------------------
# The greedy peel: yes/no acyclicity and the float route's transversal
# ---------------------------------------------------------------------------


@given(st.integers(0, 10**6), st.integers(1, 9))
@settings(max_examples=80, deadline=None)
def test_peel_gives_a_transversal_and_a_reverse_topological_rest(seed, order):
    d = random_digraph(random.Random(f"peel:{seed}"), order)
    succ = _succ_sets(d)
    alive = set(range(order))
    rest, chosen = peel_transversal(succ, alive, order)
    assert sorted(rest + chosen) == list(range(order))
    assert brute_is_acyclic(d, frozenset(chosen))
    position = {v: i for i, v in enumerate(rest)}
    for v in rest:
        assert all(w in chosen or position[w] < position[v] for w in succ[v])
    # it stops as soon as W would outgrow the cap, and a cap of 0 tests acyclicity
    if chosen:
        assert peel_transversal(succ, alive, len(chosen) - 1) is None
    assert (peel_transversal(succ, alive, 0) is not None) == brute_is_acyclic(d)


@given(st.integers(0, 10**6), st.integers(1, 9))
@settings(max_examples=80, deadline=None)
def test_is_cycle_transversal_matches_kahn_oracle(seed, order):
    rng = random.Random(f"is-fvs:{seed}")
    d = random_digraph(rng, order)
    removed = {v for v in range(order) if rng.random() < 0.4}
    assert is_cycle_transversal(d, removed) == brute_is_acyclic(d, frozenset(removed))


@given(st.integers(0, 10**6), st.integers(1, 10))
@settings(max_examples=80, deadline=None)
def test_transversals_of_size_match_subset_search(seed, order):
    d = random_digraph(random.Random(f"sized:{seed}"), order)
    for size in range(order + 2):
        want = [w for w in itertools.combinations(range(order), size)
                if brute_is_acyclic(d, frozenset(w))]
        assert list(_transversals_of_size(d, size)) == want


def test_transversals_of_size_edge_cases():
    acyclic = WeightedDigraph(3, {(0, 1): F(1, 2), (1, 2): F(1, 2)})
    assert list(_transversals_of_size(acyclic, 0)) == [()]
    assert list(_transversals_of_size(acyclic, 3)) == [(0, 1, 2)]
    looped = WeightedDigraph(2, {(0, 0): F(1, 2), (1, 1): F(1, 2), (0, 1): F(1, 4)})
    assert list(_transversals_of_size(looped, 1)) == []
    assert list(_transversals_of_size(looped, 2)) == [(0, 1)]
    assert list(_transversals_of_size(WeightedDigraph(0, {}), 0)) == [()]


def test_peel_takes_loops_first_then_the_largest_degree_product():
    # the loop at 2 goes first; 0 and 1 then tie at in x out = 1, and 0 wins
    assert peel_transversal({0: {1}, 1: {0, 2}, 2: {1, 2}}, {0, 1, 2}, 3) == ([1], [2, 0])
    # without the loop, 1 has in x out = 4 and breaks both cycles alone
    assert peel_transversal({0: {1}, 1: {0, 2}, 2: {1}}, {0, 1, 2}, 3) == ([2, 0], [1])


# ---------------------------------------------------------------------------
# The paper's beaded-chain hosts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def hosts():
    return {h: family_from_config(h, {}) for h in HOSTS}


@pytest.mark.parametrize("host", HOSTS)
@pytest.mark.parametrize("n", [60, 100])
def test_beaded_hosts_match_oracle(hosts, host, n):
    res = assert_same_as_oracle(truncate(hosts[host], n))
    assert res.optimality == "exact"


@pytest.mark.parametrize("host", HOSTS)
def test_beaded_host_bound_is_tight_at_the_root(hosts, host):
    res, nodes = _branch_and_bound(truncate(hosts[host], 146), 20_000)
    assert (res.size, res.optimality, nodes) == (16, "exact", 1)


@pytest.mark.parametrize("host", HOSTS)
def test_beaded_host_exact_at_n200_within_200_nodes(hosts, host):
    res = min_cycle_transversal(truncate(hosts[host], 200), budget=200)
    assert (res.size, res.optimality) == (19, "exact")


def test_corollary1_n400_exact_under_default_budget(hosts):
    d = truncate(hosts["corollary1"], 400)
    res = min_cycle_transversal(d)
    assert (res.size, res.optimality) == (27, "exact")
    assert brute_is_acyclic(d, res.vertices)


def test_cli_fvs_corollary1_n400_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "substochastic.cli", "cycles", "fvs", "--family", "corollary1",
         "--n", "400"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"optimality": "exact"' in proc.stdout and '"size": 27' in proc.stdout
