"""The per-digraph memo of exact results, and the float-seeded Perron brackets.

The brackets are checked against the all-ones iteration they replaced
(``conftest.oracle_perron_bounds``) and against numpy's eigensolver.  The
memo is checked for sharing between equivalent calls, for isolation from
callers that mutate what they get back, and for never keeping an error.
"""

import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import substochastic.cycles as cycles_module
import substochastic.inequalities as inequalities_module
import substochastic.spectral as spectral_module
from substochastic import (
    BudgetExceededError,
    SpectralRadiusError,
    WeightedDigraph,
    charpoly,
    check_boyle_handelman,
    check_diag_transversal_bound,
    check_ksv,
    check_sigma_bound,
    check_trace_bounds,
    check_transversal_product,
    check_zeta_identity,
    det_i_minus,
    min_cycle_transversal,
    perron_bounds,
    perron_root,
    resolvent_diagonal,
    scan_argmax_conjecture,
)
from substochastic.inequalities import fingerprint, instance_stream, random_strong_digraph
from substochastic.spectral import BRACKET_WIDTH

from conftest import eig_radius, k3, oracle_perron_bounds, two_cycle

ZETA_SAMPLES = (F(1, 3), F(1, 2), F(2))


def fresh(d: WeightedDigraph) -> WeightedDigraph:
    return WeightedDigraph(d.order, dict(d.arcs))


def stream_instance(seed: int, order_max: int = 12) -> WeightedDigraph:
    [(_i, d)] = instance_stream(seed, 1, order_max)
    return d


def large_instance(order: int) -> WeightedDigraph:
    return random_strong_digraph(random.Random(f"oracle:{order}"), order)


# ---------------------------------------------------------------------------
# Float-seeded brackets against the all-ones oracle
# ---------------------------------------------------------------------------


def reports(d: WeightedDigraph) -> list:
    """Every ``check_*`` report on ``d``, the transversal ones at a minimum transversal."""
    w = min_cycle_transversal(d)
    return [
        check_boyle_handelman(d),
        check_ksv(d),
        check_trace_bounds(d),
        check_diag_transversal_bound(d, w),
        check_transversal_product(d, w),
        *(check_sigma_bound(d, w, k) for k in range(1, w.size + 1)),
        check_zeta_identity(d, 0, ZETA_SAMPLES),
    ]


def assert_matches_oracle(d: WeightedDigraph):
    lo, hi = perron_bounds(d)
    olo, ohi = oracle_perron_bounds(d, BRACKET_WIDTH)
    assert hi - lo <= BRACKET_WIDTH
    assert lo <= ohi and olo <= hi, "the two brackets do not overlap"
    rho = eig_radius(d)
    assert float(lo) - 1e-9 <= rho <= float(hi) + 1e-9
    with mock.patch.object(spectral_module, "perron_bounds", wraps=oracle_perron_bounds) as oracle:
        expected = [rep.ok for rep in reports(fresh(d))]
    assert oracle.called  # the checks read the radius bracket through spectral.perron_bounds
    assert [rep.ok for rep in reports(fresh(d))] == expected


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_bracket_matches_oracle_on_stream(seed):
    assert_matches_oracle(stream_instance(seed))


@pytest.mark.parametrize("order", [24, 28, 32])
def test_bracket_matches_oracle_at_large_order(order):
    assert_matches_oracle(large_instance(order))


@pytest.mark.parametrize("max_iter", [1, 2, 5])
@pytest.mark.parametrize("seed", range(6))
def test_bracket_at_iteration_cap_contains_radius(seed, max_iter):
    # width 0 is never reached, so the bracket comes from the last of max_iter steps
    d = stream_instance(seed)
    lo, hi = perron_bounds(d, width=F(0), max_iter=max_iter)
    rho = eig_radius(d)
    assert lo <= hi
    assert float(lo) - 1e-9 <= rho <= float(hi) + 1e-9


# ---------------------------------------------------------------------------
# The memo
# ---------------------------------------------------------------------------


ANALYSES = {
    "perron_bounds": perron_bounds,
    "det_i_minus": det_i_minus,
    "charpoly": charpoly,
    "charpoly-coates": lambda d: charpoly(d, "coates"),
    "resolvent_diagonal": resolvent_diagonal,
    "min_cycle_transversal": min_cycle_transversal,
    "fingerprint": fingerprint,
}


def analyse(d: WeightedDigraph) -> WeightedDigraph:
    for analysis in ANALYSES.values():
        analysis(d)
    return d


def count_calls(monkeypatch, module, name: str) -> list:
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("name", sorted(ANALYSES))
@pytest.mark.parametrize("seed", range(4))
def test_analysed_digraph_gives_the_fresh_result(name, seed):
    d = stream_instance(seed, order_max=8)
    analysed = analyse(fresh(d))
    assert ANALYSES[name](analysed) == ANALYSES[name](fresh(d))


@pytest.mark.parametrize("analysis", [charpoly, resolvent_diagonal])
def test_mutating_a_returned_list_leaves_the_memo_intact(analysis):
    d = stream_instance(5, order_max=8)
    first = analysis(d)
    expected = list(first)
    first[0] = F(99)
    first.append(F(1))
    assert analysis(d) == expected


@pytest.mark.parametrize("seed", range(6))
def test_reports_do_not_depend_on_prior_analysis(seed):
    d = stream_instance(seed)
    analysed = [rep.to_json_dict() for rep in reports(analyse(fresh(d)))]
    assert analysed == [rep.to_json_dict() for rep in reports(fresh(d))]


def certify_calls(d: WeightedDigraph, i: int):
    """The calls of one small certify item in ``benchmark/workloads.py``."""
    det_i_minus(d)
    charpoly(d)
    perron_bounds(d)
    perron_root(d)
    resolvent_diagonal(d)
    check_boyle_handelman(d)
    check_ksv(d)
    check_trace_bounds(d)
    w = min_cycle_transversal(d, budget=20_000)
    check_diag_transversal_bound(d, w)
    check_transversal_product(d, w)
    for k in range(1, w.size + 1):
        check_sigma_bound(d, w, k)
    check_zeta_identity(d, i % d.order, ZETA_SAMPLES)
    scan_argmax_conjecture(d)
    if d.order <= 8:
        charpoly(d, "coates", budget=200_000)


@pytest.mark.parametrize("seed", range(4))
def test_certify_calls_bracket_and_invert_once(monkeypatch, seed):
    brackets = count_calls(monkeypatch, spectral_module, "_integer_power_brackets")
    inverses = count_calls(monkeypatch, spectral_module, "inverse_exact")
    searches = count_calls(monkeypatch, cycles_module, "_branch_and_bound")
    sigmas = count_calls(monkeypatch, inequalities_module, "_elementary_symmetric")
    d = stream_instance(seed)
    certify_calls(d, seed)
    assert len(brackets) == 1  # a strong digraph is one component
    assert len(inverses) == 1
    assert len(searches) == 1
    assert len(sigmas) == 1  # every sigma_k of the transversal from one DP


def test_equivalent_calls_share_one_computation(monkeypatch):
    brackets = count_calls(monkeypatch, spectral_module, "_integer_power_brackets")
    inverses = count_calls(monkeypatch, spectral_module, "inverse_exact")
    d = stream_instance(3)
    assert perron_bounds(d) == perron_bounds(d, BRACKET_WIDTH) == perron_bounds(
        d, width=F(1, 10**18), max_iter=20_000
    )
    assert resolvent_diagonal(d) == resolvent_diagonal(d)
    assert (len(brackets), len(inverses)) == (1, 1)
    perron_bounds(d, F(1, 10**6))
    assert len(brackets) == 2


def test_non_contractive_digraph_raises_on_every_call():
    d = two_cycle(F(2), F(1))  # radius sqrt(2); I - A is invertible
    for _ in range(3):
        with pytest.raises(SpectralRadiusError):
            resolvent_diagonal(d)
        with pytest.raises(SpectralRadiusError):
            check_trace_bounds(d)


def test_errors_are_not_memoised():
    d = k3()
    with pytest.raises(BudgetExceededError):
        charpoly(d, "coates", budget=2)
    assert charpoly(d, "coates") == charpoly(fresh(d))
    with pytest.raises(BudgetExceededError):
        charpoly(d, "coates", budget=2)


def test_memoised_transversal_keeps_its_budget():
    d = stream_instance(2)
    exact = min_cycle_transversal(d)
    assert exact.optimality == "exact"
    assert min_cycle_transversal(d, budget=20_000) is exact
    capped = min_cycle_transversal(d, budget=0)
    assert capped.optimality == "upper-bound"
    assert capped == min_cycle_transversal(fresh(d), budget=0)
