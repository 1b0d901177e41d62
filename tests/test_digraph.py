import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substochastic import (
    Tag,
    WeightedDigraph,
    classify_weighting,
)
from substochastic.constructions import build_example1, f_geometric
from substochastic.digraph import strong_components, strongly_connected_components
from substochastic.families import truncate
from substochastic.rational import parse_weight

from conftest import (
    CORPORA,
    brute_reachable,
    corpus,
    loop,
    oracle_strongly_connected_components,
    seeded_digraph,
    two_cycle,
)

# adding out-weight mass can only move a weighting toward a *less* strict class
STRICTNESS_RANK = {
    Tag.NOT_SUBSTOCHASTIC: 0,
    Tag.STOCHASTIC: 1,
    Tag.SUBSTOCHASTIC: 1,
    Tag.TRUTHLY_SUBSTOCHASTIC: 2,
    Tag.STRICTLY_SUBSTOCHASTIC: 3,
}


class TestClassifyWeighting:
    def test_unit_loop_is_stochastic(self):
        assert classify_weighting(loop(F(1))).tag is Tag.STOCHASTIC

    def test_example1_truncation_is_truthly_with_slack_three_quarters(self):
        # a = 1/2, f_n = 2^{-n}: out-weight at the hub is a f_1 + (1-f_1)
        a, f1 = F(1, 2), F(1, 2)
        expected_hub = a * f1 + (1 - f1)
        assert expected_hub == F(3, 4)
        fam = build_example1(a=a, f=lambda n: F(1, 2**n))
        d = truncate(fam, 6)
        assert d.out_weight(0) == F(3, 4)
        assert all(d.out_weight(v) == 1 for v in range(1, 5))
        cls = classify_weighting(d)
        assert cls.tag is Tag.TRUTHLY_SUBSTOCHASTIC
        assert d.out_weight(cls.witness) < 1

    def test_both_out_weights_point_nine_is_strict(self):
        cls = classify_weighting(two_cycle(F(9, 10), F(9, 10)))
        assert cls.tag is Tag.STRICTLY_SUBSTOCHASTIC

    def test_overweight_row_is_not_substochastic(self):
        d = WeightedDigraph(2, {(0, 1): F(3, 2), (1, 0): F(1, 2)})
        cls = classify_weighting(d)
        assert cls.tag is Tag.NOT_SUBSTOCHASTIC
        assert cls.witness == 0

    def test_tag_implications(self):
        assert Tag.STRICTLY_SUBSTOCHASTIC.implies(Tag.TRUTHLY_SUBSTOCHASTIC)
        assert Tag.TRUTHLY_SUBSTOCHASTIC.implies(Tag.SUBSTOCHASTIC)
        assert Tag.STOCHASTIC.implies(Tag.SUBSTOCHASTIC)
        assert not Tag.STOCHASTIC.implies(Tag.TRUTHLY_SUBSTOCHASTIC)
        assert not Tag.NOT_SUBSTOCHASTIC.implies(Tag.SUBSTOCHASTIC)

    @given(st.integers(0, 400), st.data())
    @settings(max_examples=60, deadline=None)
    def test_adding_mass_never_strictens(self, seed, data):
        d = seeded_digraph(seed)
        before = STRICTNESS_RANK[classify_weighting(d).tag]
        arc = data.draw(st.sampled_from(sorted(d.arcs)))
        bump = F(data.draw(st.integers(1, 8)), 8)
        arcs = dict(d.arcs)
        arcs[arc] = arcs[arc] + bump
        after = STRICTNESS_RANK[classify_weighting(WeightedDigraph(d.order, arcs)).tag]
        assert after <= before

    def test_float_tolerance_relaxation(self):
        d = WeightedDigraph(1, {(0, 0): 1.0 + 1e-12})
        assert classify_weighting(d).tag is Tag.NOT_SUBSTOCHASTIC
        assert classify_weighting(d, tol=1e-9).tag is Tag.STOCHASTIC


def is_strong(d: WeightedDigraph) -> bool:
    return len(strongly_connected_components(d.adjacency, range(d.order))) == 1


class TestStrongConnectivity:
    def test_single_loop_vertex(self):
        assert is_strong(loop())

    def test_lone_vertex_is_strong(self):
        assert is_strong(WeightedDigraph(1, {}))

    def test_one_way_path_is_not(self):
        assert not is_strong(WeightedDigraph(2, {(0, 1): F(1, 2)}))

    def test_example1_truncation_n5(self):
        fam = build_example1(f=f_geometric())
        d = truncate(fam, 5)
        assert brute_reachable(d)  # oracle
        assert is_strong(d)

    @given(st.integers(0, 500))
    @settings(max_examples=80, deadline=None)
    def test_matches_floyd_warshall(self, seed):
        d = seeded_digraph(seed)
        assert is_strong(d) == brute_reachable(d)


@pytest.mark.parametrize("which", CORPORA)
def test_strong_components_as_the_oracle(which):
    """The lean Tarjan pass against the one it replaced: the same components,
    each in the same vertex order, in the same order, also rooted in reverse."""
    for d in corpus(which):
        want = oracle_strongly_connected_components(d.adjacency, range(d.order))
        assert strong_components(d) == tuple(map(tuple, want))
        backwards = range(d.order - 1, -1, -1)
        assert (strongly_connected_components(d.adjacency, backwards)
                == oracle_strongly_connected_components(d.adjacency, backwards))


class TestJsonInterchange:
    def test_round_trip_exact(self):
        d = WeightedDigraph(3, {(0, 1): F(3, 4), (1, 2): F(1, 8), (2, 0): 1})
        back = WeightedDigraph.from_json(d.to_json())
        assert back == d
        assert back.is_exact

    def test_one_based_ids_and_rational_strings(self):
        d = WeightedDigraph(2, {(0, 1): F(3, 4), (1, 0): F(1, 2)})
        obj = d.to_json_dict()
        assert obj["order"] == 2
        assert [1, 2, "3/4"] in obj["arcs"]

    def test_decimal_strings_parse_exactly(self):
        d = WeightedDigraph.from_json_dict({"order": 1, "arcs": [[1, 1, "0.25"]]})
        assert d.arcs[(0, 0)] == F(1, 4)

    def test_float_mode(self):
        d = WeightedDigraph.from_json_dict(
            {"order": 1, "arcs": [[1, 1, "1/3"]]}, mode="float"
        )
        assert isinstance(d.arcs[(0, 0)], float)
        assert not d.is_exact

    @pytest.mark.parametrize("weight", ["1e400", "-1e400", "1e-400"])
    def test_float_mode_rejects_a_weight_outside_the_float_range(self, weight):
        obj = {"order": 1, "arcs": [[1, 1, weight]]}
        with pytest.raises(ValueError, match=f"weight {weight} is outside the float range"):
            WeightedDigraph.from_json_dict(obj, mode="float")

    @pytest.mark.parametrize("text, value", [
        ("3/4", F(3, 4)), (" 3/4\n", F(3, 4)), ("+1/2", F(1, 2)), ("0.25", F(1, 4)),
        (".5", F(1, 2)), ("2.", F(2)), ("7", F(7)), ("1e-3", F(1, 1000)), ("2.5E+2", F(250)),
        ("-1/2", F(-1, 2)), ("1/02", F(1, 2)),
    ])
    def test_weight_grammar(self, text, value):
        assert parse_weight(text) == value

    @pytest.mark.parametrize("text", [
        "1_0", "1/2_0", "1e1_0", "0.2_5", "1 0", "3 / 4", "1/0", "1/00", "1/", "/2", "1/2/3",
        "1e", ".", "", "0x10", "inf", "nan", "1/0.5", "\u0661/\u0662",
    ])
    def test_weight_outside_the_grammar_is_named(self, text):
        with pytest.raises(ValueError, match=f"^weight {re.escape(repr(text))} is not "):
            WeightedDigraph.from_json_dict({"order": 1, "arcs": [[1, 1, text]]})

    def test_unknown_top_level_key_is_named(self):
        obj = {"order": 2, "odrer": 3, "arcs": [[1, 2, "1/2"], [2, 1, "1/2"]]}
        with pytest.raises(ValueError, match="^digraph JSON has unknown key 'odrer'"):
            WeightedDigraph.from_json_dict(obj)

    def test_duplicate_arcs_rejected(self):
        with pytest.raises(ValueError):
            WeightedDigraph.from_json_dict(
                {"order": 1, "arcs": [[1, 1, "0.25"], [1, 1, "0.5"]]}
            )


    @pytest.mark.parametrize(
        "obj",
        [
            {"arcs": []},
            {"order": -1, "arcs": []},
            {"order": "2", "arcs": []},
            {"order": True, "arcs": []},
            {"order": 2},
            {"order": 2, "arcs": {"1": [2, "1/2"]}},
            {"order": 2, "arcs": [[1, 2]]},
            {"order": 2, "arcs": [[1, 2, "1/2", "x"]]},
            {"order": 2, "arcs": ["1,2,1/2"]},
            {"order": 2, "arcs": [[1.9, 2, "1/2"]]},
            {"order": 2, "arcs": [[1, "2", "1/2"]]},
            [2, [[1, 2, "1/2"]]],
        ],
    )
    def test_schema_violations_raise_value_error(self, obj):
        with pytest.raises(ValueError):
            WeightedDigraph.from_json_dict(obj)


class TestValidation:
    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedDigraph(1, {(0, 0): 0})

    def test_out_of_range_arc_rejected(self):
        with pytest.raises(ValueError):
            WeightedDigraph(1, {(0, 1): F(1, 2)})


def test_mutating_the_callers_arcs_does_not_reach_the_digraph():
    arcs = {(0, 1): F(1, 2), (1, 0): F(1, 2)}
    d = WeightedDigraph(2, arcs)
    assert d.adjacency[0] == {1: F(1, 2)}
    arcs[(0, 1)] = F(1, 3)
    arcs[(0, 0)] = F(1, 4)
    assert d.arcs == {(0, 1): F(1, 2), (1, 0): F(1, 2)}
    assert d.adjacency[0] == {1: F(1, 2)}
