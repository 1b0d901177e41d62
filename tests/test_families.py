import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substochastic import (
    FamilyDefinitionError,
    FamilyFacts,
    TruncationFamily,
    WeightedDigraph,
    enumerate_cycles,
    sup_cycle_gain,
    truncate,
    validate_metadata,
)
from substochastic import families
from substochastic.families import family_gain
from substochastic.constructions import (
    BUILTIN_FAMILIES,
    a_power,
    build_example1,
    build_example2,
    build_corollary1,
    build_prop1,
    f_geometric,
    family_from_config,
    GapTarget,
)

from conftest import oracle_validate_metadata


def test_example2_first_truncation_is_isolated_hub():
    fam = build_example2(a_power(-0.75))
    d = truncate(fam, 1)
    assert d.order == 1 and not d.arcs


def test_example2_truncation_three_matches_weights():
    # spokes carry 1 and 2^(-3/4)
    fam = build_example2(a_power(-0.75))
    d = truncate(fam, 3)
    assert d.arcs[(0, 1)] == pytest.approx(1.0)
    assert d.arcs[(1, 0)] == pytest.approx(1.0)
    assert d.arcs[(0, 2)] == pytest.approx(2 ** -0.75)
    assert d.arcs[(2, 0)] == pytest.approx(2 ** -0.75)


def test_example1_truncation_two_has_three_arcs():
    fam = build_example1(f=f_geometric())
    d = truncate(fam, 2)
    assert set(d.arcs) == {(0, 0), (0, 1), (1, 0)}


@pytest.mark.parametrize(
    "fam_builder",
    [
        lambda: build_example1(f=f_geometric(F(1, 3))),
        lambda: build_example2([F(3, 5), F(4, 5), F(1, 5)]),
        lambda: build_prop1(lambda k: k, lambda k: 1 - F(1, k + 1)),
        lambda: build_corollary1(GapTarget.exp2()),
    ],
)
@given(n=st.integers(1, 36))
@settings(max_examples=25, deadline=None)
def test_truncation_nesting(fam_builder, n):
    fam = fam_builder()
    small, big = truncate(fam, n), truncate(fam, n + 1)
    restricted = {a: w for a, w in big.arcs.items() if max(a) < n}
    assert restricted == dict(small.arcs)


def test_truncation_rejects_nonpositive_order():
    fam = build_example1(f=f_geometric())
    with pytest.raises(ValueError):
        truncate(fam, 0)


def test_generator_failure_is_family_error():
    def bad(n):
        raise KeyError("boom")

    fam = TruncationFamily("bad", bad)
    with pytest.raises(FamilyDefinitionError):
        truncate(fam, 3)


def test_order_mismatch_is_family_error():
    fam = TruncationFamily("short", lambda n: WeightedDigraph(max(1, n - 1), {}))
    with pytest.raises(FamilyDefinitionError):
        truncate(fam, 5)


class TestValidateMetadata:
    def test_example1_transversal_holds_to_50(self):
        fam = build_example1(f=f_geometric())
        assert validate_metadata(fam, 50).ok

    def test_example2_length_bound_holds_to_50(self):
        fam = build_example2(a_power(-0.75))
        assert validate_metadata(fam, 50).ok

    def test_wrong_length_bound_caught_at_four(self):
        fam = build_example1(f=f_geometric()).with_facts(l_max=3)
        assert validate_metadata(fam, 3).ok
        report = validate_metadata(fam, 4)
        assert not report.ok
        assert report.violations == ["n=4: a cycle has length 4 > declared l_max 3"]

    def test_wrong_transversal_caught(self):
        fam = build_example1(f=f_geometric()).with_facts(transversal=frozenset({3}))
        report = validate_metadata(fam, 5)
        assert not report.ok

    def test_no_metadata_raises(self):
        fam = TruncationFamily("bare", lambda n: WeightedDigraph(n, {}))
        with pytest.raises(FamilyDefinitionError):
            validate_metadata(fam, 3)

    def test_checks_one_truncation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(families, "truncate",
                            lambda fam, n: calls.append(n) or truncate(fam, n))
        assert validate_metadata(build_example2(a_power(-0.75)), 40).ok
        assert calls == [40]

    @pytest.mark.parametrize("l_max", [1, 2, 3])
    def test_l_max_note_at_every_budget(self, monkeypatch, l_max):
        # the first longer cycle among the first L_MAX_BUDGET listed, else
        # "unsettled" when a further cycle exists, which is not length-checked
        fam = family_from_config("corollary1").with_facts(l_max=l_max)
        d = truncate(fam, 14)
        lengths = [c.length for c in enumerate_cycles(d)]
        assert lengths == [1, 2, 2, 2, 3, 2, 4, 2]
        for budget in range(len(lengths) + 2):
            monkeypatch.setattr(families, "L_MAX_BUDGET", budget)
            longer = next((k for k in lengths[:budget] if k > l_max), None)
            if longer is not None:
                want = [f"n=14: a cycle has length {longer} > declared l_max {l_max}"]
            elif budget < len(lengths):
                want = [f"n=14: declared l_max {l_max} unsettled after {budget} cycles"]
            else:
                want = []
            notes = [v for v in validate_metadata(fam, 14).violations if "l_max" in v]
            assert notes == want, budget

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    @pytest.mark.parametrize("wrong", [
        {},
        {"transversal": frozenset()},
        {"transversal": frozenset({1})},
        {"transversal": frozenset({0, 2})},
        {"l_max": 1},
        {"l_max": 2},
        {"l_max": 4},
        {"l_min": 2},
        {"l_min": 3},
        {"sct_size": 2},
        {"l_max": 3},
        {"l_min": 2, "l_max": 5},
    ], ids=repr)
    def test_agrees_with_every_cycle_of_every_order(self, name, wrong):
        fam = family_from_config(name).with_facts(**wrong)
        facts = fam.facts
        if (facts.transversal is None and facts.sct_size in (None, math.inf)
                and facts.l_max is None and facts.l_min is None):
            with pytest.raises(FamilyDefinitionError):
                validate_metadata(fam, 12)
            return
        for n in (1, 2, 3, 5, 8, 12):
            assert validate_metadata(fam, n).ok == (not oracle_validate_metadata(fam, n)), n


def test_family_gain_searches_the_omega_window():
    # corollary1's short beads lie beyond vertex n, so the order-n truncation is not reused
    fam = build_corollary1(GapTarget.exp2())
    for n in (1, 2, 5, 9):
        host = truncate(fam, fam.omega_window(n))
        want = sup_cycle_gain(host, max_length=n, proper_only=False)
        assert family_gain(fam, n) == family_gain(fam, n, truncate(fam, n)) == want
    assert want != sup_cycle_gain(truncate(fam, 9), max_length=9, proper_only=False)


def test_facts_defaults_are_none():
    facts = FamilyFacts()
    assert facts.transversal is None and facts.l_max is None
    assert math.isinf(build_prop1(lambda k: 1, lambda k: F(1, 2)).facts.sct_size)
