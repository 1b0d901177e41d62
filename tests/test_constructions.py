import hashlib
import math
import time
from fractions import Fraction as F

import pytest

from substochastic import (
    EpsilonSchedule,
    FamilyDefinitionError,
    Gain,
    GapTarget,
    Tag,
    classify_weighting,
    enumerate_cycles,
    family_to_float,
    perron_root,
    sup_cycle_gain,
    truncate,
    verify_pruitt,
)
from substochastic import constructions
from substochastic.constructions import (
    BUILTIN_FAMILIES,
    _Memo1,
    a_power,
    build_corollary1,
    build_example1,
    build_example2,
    build_prop1,
    build_prop2,
    build_theorem2_fast,
    f_geometric,
    f_power,
    family_from_config,
    power_series_sum,
)

from conftest import run_threads


class TestExample1:
    def test_telescoping_product_is_f_n_exactly(self):
        q = F(1, 3)
        fam = build_example1(a=F(1, 2), f=f_geometric(q))
        d = truncate(fam, 200)
        # walk the arcs of the length-n return cycle directly
        for n in (2, 17, 100, 200):
            weight = F(1)
            for i in range(n - 1):
                weight *= d.arcs[(i, i + 1)]
            weight *= d.arcs[(n - 1, 0)]
            assert weight == f_geometric(q)(n)

    def test_interior_rows_exactly_stochastic(self):
        fam = build_example1(a=F(1, 2), f=f_geometric())
        d = truncate(fam, 30)
        for v in range(1, 29):
            assert d.out_weight(v) == 1

    def test_hub_slack(self):
        a, q = F(1, 3), F(1, 2)
        fam = build_example1(a=a, f=f_geometric(q))
        d = truncate(fam, 4)
        f1 = f_geometric(q)(1)
        assert d.out_weight(0) == a * f1 + (1 - f1)

    def test_reclassifies_truthly(self):
        fam = build_example1(f=f_geometric())
        assert classify_weighting(truncate(fam, 12)).tag.implies(
            Tag.TRUTHLY_SUBSTOCHASTIC
        )

    def test_partial_sums_reaching_one_rejected(self):
        fam = build_example1(f=[F(1, 2), F(1, 2), F(1, 4)])
        with pytest.raises(FamilyDefinitionError):
            truncate(fam, 4)

    def test_a_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            build_example1(a=F(3, 2), f=f_geometric())

    def test_power_series_sum_pinned_and_memoised(self, monkeypatch):
        before = power_series_sum.cache_info().hits
        assert power_series_sum(1.5).hex() == "0x1.4e6250bfbd88ep+1"
        assert power_series_sum(1.5) == 2.6123753486854815
        assert power_series_sum.cache_info().hits > before
        assert power_series_sum(2.0) == 1.6449340668482426
        # the midpoint tail after 1,000 terms, read past the memo
        monkeypatch.setattr(constructions, "_SERIES_TERMS", 1000)
        assert power_series_sum.__wrapped__(1.5) == 2.6123753506594434

    def test_power_schedule_normalizes(self):
        f = f_power(0.5)
        n_cap = 30000
        total = sum(f(n) for n in range(1, n_cap))
        assert total < 1
        tail = 2 / (power_series_sum(1.5) * math.sqrt(n_cap))  # integral comparison
        assert total + tail == pytest.approx(1.0, abs=1e-4)


class TestExample2:
    def test_lambda2_is_a1(self):
        fam = build_example2([F(3, 5), F(4, 5)])
        assert perron_root(truncate(fam, 2)) == pytest.approx(0.6, rel=1e-10)

    def test_prefix_star_hits_unit_radius(self):
        fam = build_example2([F(3, 5), F(4, 5)])
        assert perron_root(truncate(fam, 3)) == pytest.approx(1.0, rel=1e-10)
        assert fam.facts.perron_closed_form(3) == pytest.approx(1.0)

    def test_closed_form_tracks_perron_to_1e10(self):
        fam = build_example2(a_power(-0.75))
        for n in (2, 25, 120):
            assert perron_root(truncate(fam, n)) == pytest.approx(
                fam.facts.perron_closed_form(n), rel=1e-10
            )

    def test_sum_of_squares_limit(self):
        fam = build_example2(a_power(-0.75))
        assert fam.facts.spectral_limit == pytest.approx(
            math.sqrt(power_series_sum(1.5)), rel=1e-9
        )

    def test_slow_decay_rejected(self):
        with pytest.raises(FamilyDefinitionError):
            build_example2(a_power(-0.5))
        with pytest.raises(FamilyDefinitionError):
            build_example2(a_power(-0.4))

    def test_metadata_declares_star_structure(self):
        facts = build_example2(a_power(-0.75)).facts
        assert facts.transversal == frozenset({0})
        assert facts.l_max == 2 and facts.l_min == 2


class TestProp1:
    def test_half_loops(self):
        fam = build_prop1(lambda k: 1, lambda k: F(1, 2))
        d = truncate(fam, 5)
        for k in range(5):
            assert d.arcs[(k, k)] == F(1, 2)
        g = fam.extras["bead_gain"](3)
        assert g == Gain(F(1, 2), 1)
        # length * (1 - gain) is 1/2 for every bead
        assert 1 * (1 - g.value) == pytest.approx(0.5)

    def test_gains_are_exact_targets(self):
        fam = build_prop1(lambda k: 2**k, lambda k: 1 - F(1, 2**k))
        chain = fam.extras["chain"]
        d = truncate(fam, chain.offset(4))
        by_verts = {frozenset(c.vertices): c for c in enumerate_cycles(d)}
        for k in (1, 2, 3):
            cyc = by_verts[frozenset(chain.bead_vertices(k))]
            assert cyc.gain == Gain(1 - F(1, 2**k), 2**k)

    def test_length_scaled_slack_tends_to_zero(self):
        # l_k (1 - (1 - 1/l_k)^(1/l_k)) along l_k = 2^k, evaluated directly
        fam = build_prop1(lambda k: 2**k, lambda k: 1 - F(1, 2**k))
        vals = []
        for k in range(1, 21):
            g = fam.extras["bead_gain"](k)
            vals.append(2**k * (1 - g.value))
        assert vals[-1] < 1e-4
        assert all(b < a for a, b in zip(vals[4:], vals[5:]))

    def test_constant_targets_gains_tend_to_one(self):
        fam = build_prop1(lambda k: 2**k, lambda k: F(1, 2))
        gains = [fam.extras["bead_gain"](k).value for k in range(1, 15)]
        assert gains == sorted(gains)
        assert gains[-1] > 0.99995

    def test_reclassifies_truthly_with_unit_interior_rows(self):
        fam = build_prop1(lambda k: 3, lambda k: F(2, 3))
        d = truncate(fam, 14)
        cls = classify_weighting(d)
        assert cls.tag.implies(Tag.TRUTHLY_SUBSTOCHASTIC)
        assert any(d.out_weight(v) == 1 for v in range(d.order))

    def test_ones_vector_certifies_at_unit_radius(self):
        fam = build_prop1(lambda k: 1, lambda k: 1 - F(1, 2**k), declared_lambda=1)
        d = truncate(fam, 25)
        ok, strict = verify_pruitt(d, [F(1)] * 25, 1)
        assert ok and strict is not None

    def test_bad_targets_rejected(self):
        with pytest.raises(ValueError):
            truncate(build_prop1(lambda k: 1, lambda k: F(3, 2)), 3)

    @pytest.mark.parametrize("n, first", [(7, 21), (60, 1770), (400, 79800)])
    def test_default_witness_pinned(self, n, first):
        fam = family_from_config("prop1", {})
        assert fam.witness_submatrix(n) == tuple(range(first, first + n))

    def test_witness_repeat_call_does_no_scan(self):
        memo = family_from_config("prop1", {}).witness_submatrix
        first = memo(400)
        assert memo(400) is first and memo(7) == tuple(range(21, 28))
        info = memo.cache_info()
        assert (info.misses, info.hits) == (2, 1)

    @pytest.mark.parametrize("lengths, targets", [
        (lambda k: k, lambda k: 1 - F(1, 2**k)),
        ([2, 4, 1, 4], [F(1, 4), F(1, 16), F(1, 2), F(1, 16)]),  # equal gains: first bead wins
        ([3], [1 - F(1, 10**20), 1 - F(1, 10**20) - F(1, 10**40), 1 - F(1, 10**20) + F(1, 10**40)]),
        # bead 2 wins by 1e-40, but its float log is one ulp below bead 1's
        ([1, 2], [1 - F(6, 7919000), (1 - F(6, 7919000)) ** 2 + F(1, 10**40)]),
        (lambda k: k % 5 + 1, lambda k: 0.5 + 0.4 / k),
        (lambda k: k, lambda k: 1 - F(1, 2 ** (40 * k))),  # gaps below float range
        (lambda k: 2**k, lambda k: F(1, 2)),
    ])
    def test_witness_matches_unfiltered_scan(self, lengths, targets):
        fam = build_prop1(lengths, targets)
        gain, chain = fam.extras["bead_gain"], fam.extras["chain"]
        for n in (1, 2, 3, 5, 8, 13, 40):
            best = None
            for k in range(1, 513):
                if chain.lengths(k) <= n and (best is None or gain(best) < gain(k)):
                    best = k
            if best is None:
                with pytest.raises(ValueError):
                    fam.witness_submatrix(n)
            else:
                assert fam.witness_submatrix(n) == tuple(chain.bead_vertices(best))


@pytest.fixture(scope="module")
def fam():
    return build_prop2(EpsilonSchedule.geometric(F(1, 4)))


class TestProp2:
    def test_growth_inequality_certified_through_k6(self, fam):
        certify = fam.extras["certify"]
        for k in range(2, 7):
            cert = certify(k)
            assert cert.ineq_certified
            assert cert.length > cert.prior_length_sum

    def test_gain_bound_certified_and_directly_for_small_k(self, fam):
        certify = fam.extras["certify"]
        for k in range(1, 7):
            cert = certify(k)
            assert cert.gain_certified
            assert cert.gain_bound == 1 - 2 * F(1, 4**k)
            if k <= 3:
                assert cert.gain_checked_directly

    def test_first_cycle_is_the_loop_at_full_weight(self, fam):
        d = truncate(fam, 1)
        assert d.arcs[(0, 0)] == 1 - F(1, 4)

    def test_cycle_weight_on_truncation_matches_formula(self, fam):
        sched = fam.extras["schedule"]
        l2 = sched.length(2)
        d = truncate(fam, l2 + 1)
        (cyc,) = [c for c in enumerate_cycles(d) if c.length == l2]
        e2 = F(1, 16)
        assert cyc.weight == (e2 / 4) * (1 - e2) ** (l2 - 1)
        assert cyc.weight >= (1 - 2 * e2) ** l2

    def test_out_weight_classes_certified(self, fam):
        certify = fam.extras["certify"]
        for k in range(1, 7):
            cert = certify(k)
            assert cert.out_weight_certified
            assert cert.out_weight_bound == 1 - F(1, 4**k) / 2

    def test_cycle_system_truncations_strictly_substochastic(self, fam):
        gamma = fam.extras["cycle_system"]
        for n in (2, 20, 80):
            assert classify_weighting(truncate(gamma, n)).tag is Tag.STRICTLY_SUBSTOCHASTIC

    def test_full_weighting_truthly_and_interior_stochastic(self, fam):
        d = truncate(fam, 50)
        assert classify_weighting(d).tag.implies(Tag.TRUTHLY_SUBSTOCHASTIC)
        assert d.out_weight(0) < 1
        assert d.out_weight(5) == 1

    def test_schedule_rejects_bad_epsilons(self):
        with pytest.raises(ValueError):
            build_prop2(EpsilonSchedule(lambda k: F(3, 4))).extras["schedule"].length(2)
        with pytest.raises(ValueError):
            build_prop2(EpsilonSchedule(lambda k: F(1, 4))).extras["schedule"].length(3)

    def test_declared_metadata_validates(self, fam):
        from substochastic import validate_metadata

        assert validate_metadata(fam, 40).ok


class TestGapTarget:
    def test_minorant_left_alone_when_decreasing(self):
        g = GapTarget.exp2()
        h = g.minorant()
        assert [h(n) for n in range(1, 8)] == [F(1, 2**n) for n in range(1, 8)]
        assert not h.adjusted

    def test_non_monotone_target_gets_decreasing_minorant(self):
        g = GapTarget(lambda n: F(1, 2) if n % 2 else F(3, 4))
        h = g.minorant()
        vals = [h(n) for n in range(1, 12)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(h(n) <= g(n) for n in range(1, 12))
        assert h.adjusted

    def test_constant_target_minorant_tends_to_zero(self):
        h = GapTarget.constant(F(1, 2)).minorant()
        assert h(2000) < F(1, 1000)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(ValueError):
            GapTarget(lambda n: 0).minorant()(1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_negative_power_exponent_is_n_to_the_k(self, k):
        g = GapTarget.power(-k)
        assert [g(n) for n in range(1, 9)] == [F(n) ** k for n in range(1, 9)]
        assert all(type(g(n)) is F for n in range(1, 9))

    def test_corollary1_builds_with_a_negative_power_exponent(self):
        # g(n) = n never binds: the minorant is h(n) = 1/(n+1)
        h = GapTarget.power(-1).minorant()
        assert [h(n) for n in range(1, 7)] == [F(1, n + 1) for n in range(1, 7)]
        fam = family_from_config("corollary1", {"g": {"kind": "power", "exponent": -1}})
        d = truncate(fam, 5)
        assert classify_weighting(d).tag is Tag.STRICTLY_SUBSTOCHASTIC
        # bead 1 is the loop at vertex 1, weighted 1 - h(lengths(2)) = 1 - h(2)
        assert d.arcs[(0, 0)] == F(2, 3)


class TestCorollary1:
    def test_gap_below_target_on_linear_lengths(self):
        fam = build_corollary1(GapTarget.exp2())
        for n in range(1, 13):
            host = truncate(fam, fam.omega_window(n))
            gap = 1 - sup_cycle_gain(host, max_length=n, proper_only=False).value
            assert gap < F(1, 2**n)

    def test_constant_tail_lengths(self):
        fam = build_corollary1(GapTarget.power(1), cycle_lengths=[1, 2, 4])
        for n in (4, 6, 10):
            host = truncate(fam, fam.omega_window(n))
            gap = 1 - sup_cycle_gain(host, max_length=n, proper_only=False).value
            assert gap < F(1, n)

    def test_strictly_substochastic_everywhere(self):
        fam = build_corollary1(GapTarget.exp2())
        assert classify_weighting(truncate(fam, 40)).tag is Tag.STRICTLY_SUBSTOCHASTIC

    def test_length_validation(self):
        with pytest.raises(ValueError):
            build_corollary1(GapTarget.exp2(), cycle_lengths=[3, 2]).omega_window(5)


class TestTheorem2Fast:
    def test_scale_below_initial_targets(self):
        fam = build_theorem2_fast(GapTarget.exp2())
        c = fam.extras["scale"]
        assert 0 < c < 1
        assert c < F(1, 2)  # g(1)

    def test_constant_half_gives_quarter(self):
        fam = build_theorem2_fast(GapTarget.constant(F(1, 2)))
        assert fam.extras["scale"] == F(1, 4)

    def test_ladder_gap_below_target_via_witness(self):
        fam = build_theorem2_fast(GapTarget.exp2())
        lam = float(fam.extras["scale"])
        for n in range(1, 13):
            verts = fam.witness_submatrix(n)
            host = truncate(fam, max(verts) + 1)
            lam_n = perron_root(host.induced(verts))
            assert lam - lam_n < F(1, 2**n)

    def test_scaling_homogeneity(self):
        fam = build_theorem2_fast(GapTarget.exp2())
        host = fam.extras["host"]
        c = float(fam.extras["scale"])
        for n in (5, 12):
            assert perron_root(truncate(fam, n)) == pytest.approx(
                c * perron_root(truncate(host, n)), rel=1e-10, abs=1e-12
            )

    def test_all_ones_certificate_strict_everywhere(self):
        fam = build_theorem2_fast(GapTarget.exp2())
        c = fam.extras["scale"]
        d = truncate(fam, 30)
        ok, strict = verify_pruitt(d, [F(1)] * 30, c)
        assert ok and strict == 0
        assert all(d.out_weight(v) < c for v in range(30))


def _unknown_key_cases():
    """A key "bogus" in every kind of every descriptor table, at a path that reads the table."""
    for name in BUILTIN_FAMILIES:
        yield pytest.param(name, {"bogus": 1}, f"{name} params.bogus: unknown key; {name} accepts ",
                           id=name)
    sites = [
        (constructions._SEQUENCES, "prop1", "lengths", lambda d: {"lengths": d}),
        (constructions._SEQUENCES, "prop1", "targets.lengths",
         lambda d: {"targets": {"kind": "one-minus-inverse-length", "lengths": d}}),
        (constructions._GAPS, "theorem2-fast", "g", lambda d: {"g": d}),
        (constructions._LIFETIMES, "example1", "f", lambda d: {"f": d}),
        (constructions._STAR_WEIGHTS, "example2", "a", lambda d: {"a": d}),
        (constructions._EPSILONS, "prop2", "epsilon", lambda d: {"epsilon": d}),
    ]
    for table, name, path, wrap in sites:
        for kind in table:
            yield pytest.param(name, wrap({"kind": kind, "bogus": 1}),
                               f"{name} params.{path}.bogus: unknown key; {kind} accepts ",
                               id=f"{name}.{path}.{kind}")


class TestFamilyRegistry:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("example1", {"a": "1/2", "f": {"kind": "geometric", "ratio": "1/2"}}),
            ("example2", {"a": {"kind": "power", "exponent": -0.75}}),
            ("prop1", {"lengths": {"kind": "powers-of-two"},
                       "targets": {"kind": "one-minus-geometric", "ratio": "1/2"}}),
            ("prop2", {"epsilon": {"kind": "geometric", "ratio": "1/4"}}),
            ("corollary1", {"g": {"kind": "exp2"}}),
            ("theorem2-fast", {"g": {"kind": "power", "exponent": 2}}),
        ],
    )
    def test_builtin_families_instantiate_and_truncate(self, name, params):
        fam = family_from_config(name, params)
        d = truncate(fam, 6)
        assert d.order == 6

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            family_from_config("nope", {})

    @pytest.mark.parametrize("name,params,message", _unknown_key_cases())
    def test_every_kind_rejects_an_unknown_key_by_its_path(self, name, params, message):
        with pytest.raises(ValueError) as exc:
            family_from_config(name, params)
        assert str(exc.value).startswith(message)


# ---------------------------------------------------------------------------
# Output pin: sha1 digests of family outputs, recorded before the lazy
# sequences were unified.  Any change to a weight, window, witness, closed
# form, certificate or minorant value changes a digest.
# ---------------------------------------------------------------------------

PIN_ORDERS = (1, 2, 7, 31, 60, 146, 400)

PIN_CONFIGS = {
    "example1": ("example1", {}),
    "example1-power": ("example1", {"f": {"kind": "power", "epsilon": 0.5}}),
    "example2": ("example2", {}),
    "example2-list": ("example2", {"a": ["3/5", "1/2", "1/4"]}),
    "prop1": ("prop1", {}),
    "prop1-powers": ("prop1", {
        "lengths": {"kind": "powers-of-two"},
        "targets": {"kind": "one-minus-inverse-length", "lengths": {"kind": "powers-of-two"}},
    }),
    "prop2": ("prop2", {}),
    "corollary1": ("corollary1", {}),
    "corollary1-tail": ("corollary1", {
        "g": {"kind": "power", "exponent": 1},
        "lengths": {"kind": "int-list", "values": [1, 2, 4]},
    }),
    "theorem2-fast": ("theorem2-fast", {"g": {"kind": "power", "exponent": 2}}),
}


def _sha1(lines) -> str:
    return hashlib.sha1("\n".join(lines).encode()).hexdigest()


def _outcome(fn, n) -> str:
    try:
        return repr(fn(n))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _family_lines(fam):
    for n in PIN_ORDERS:
        yield truncate(fam, n).to_json()
        yield f"omega {n} {_outcome(fam.omega_window, n)}"
        if fam.witness_submatrix is not None:
            yield f"witness {n} {_outcome(lambda m: tuple(fam.witness_submatrix(m)), n)}"
        if fam.facts.perron_closed_form is not None:
            yield f"closed {n} {_outcome(fam.facts.perron_closed_form, n)}"


PIN_DIGESTS = {
    "corollary1/exact": "bd1779122590fdade9e704e26a11c6ef329bbdb2",
    "corollary1/float": "191df457456545532173d54979ff8437f71021ae",
    "corollary1-tail/exact": "a839d15515a642574846f5d3e2ae1f9f84be10b4",
    "corollary1-tail/float": "29180d00a8adf759891c0650b7fd527dcb599caf",
    "example1/exact": "9a86460a1982e39be50e3e1d1a306608fdad511d",
    "example1/float": "ebeb07141e15b102fe0ecb0fa54cae36c6f76f12",
    "example1-power/exact": "470b7d06b8ccd6af72959a8cd6cd3551b17c686e",
    "example1-power/float": "470b7d06b8ccd6af72959a8cd6cd3551b17c686e",
    "example2/exact": "4ad3458b40cc98996f426acdb05e65dfb7845b47",
    "example2/float": "4ad3458b40cc98996f426acdb05e65dfb7845b47",
    "example2-list/exact": "0ed24ebbf06e971482a4722c37832db925a2746e",
    "example2-list/float": "2af60bcf8d58ffaa03a3017a39c4d91fa56e6048",
    "prop1/exact": "531ff889d4a3a49548b6bac41ed5328da415ef66",
    "prop1/float": "88f907fea7136549f2ad72f14898b0807d3692ab",
    "prop1-powers/exact": "4ec761806502ce560a3c7e07c3e92717d469b8a5",
    "prop1-powers/float": "28744e104d4f04247cd5003bc69613ed721a171a",
    "prop2/exact": "f6ff84d7eb7e3df01f1e7f550ecc9f6d39eec839",
    "prop2/float": "27cdba53b56f3d549fb46c7e8218de4c24ab139c",
    "theorem2-fast/exact": "543a753486922460270b46945f937e25fd04fc37",
    "theorem2-fast/float": "e5c063e91e3c1b76932e20fe73458cf6d9df713a",
    "prop2/certify": "83e03fc42ccae00e01ac2e7df2473a98d7145427",
    "prop2/cycle_system": "a3590b0c59491ed23f4d5e276aa0453c4d8f31a1",
    "minorant/exact": "cc9274b6889dbf6cb09129b49b4da441495cbec1",
    "minorant/float": "cf95352fa8163e7c5588f9247d87da60dfabecba",
}


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("config", sorted(PIN_CONFIGS))
def test_family_outputs_pinned(config, mode):
    name, params = PIN_CONFIGS[config]
    fam = family_from_config(name, params)
    if mode == "float":
        fam = family_to_float(fam)
    assert _sha1(_family_lines(fam)) == PIN_DIGESTS[f"{config}/{mode}"]


def test_prop2_certificates_and_cycle_system_pinned():
    extras = build_prop2(EpsilonSchedule.geometric(F(1, 4))).extras
    lines = [repr(extras["certify"](k)) for k in range(1, 5)]
    assert _sha1(lines) == PIN_DIGESTS["prop2/certify"]
    lines = [truncate(extras["cycle_system"], n).to_json() for n in PIN_ORDERS]
    assert _sha1(lines) == PIN_DIGESTS["prop2/cycle_system"]


@pytest.mark.parametrize("name", ["prop1", "corollary1", "theorem2-fast"])
@pytest.mark.parametrize("lengths, values", [
    ([2, 3], [2, 3]),
    ({"kind": "list", "values": ["2", 3]}, [2, 3]),
    ({"kind": "constant", "value": "3"}, [3]),
], ids=["bare-list", "list-kind", "constant"])
def test_lengths_build_integer_lengths(name, lengths, values):
    as_int_list = family_from_config(name, {"lengths": {"kind": "int-list", "values": values}})
    fam = family_from_config(name, {"lengths": lengths})
    assert truncate(fam, 20).to_json() == truncate(as_int_list, 20).to_json()


@pytest.mark.parametrize("name, params, where", [
    ("prop1", {"lengths": [2, "5/2"]}, "prop1 params.lengths: '5/2'"),
    ("corollary1", {"lengths": {"kind": "list", "values": [1, 1.5]}},
     "corollary1 params.lengths: 1.5"),
    ("theorem2-fast", {"lengths": {"kind": "int-list", "values": [2, 2.5]}},
     "theorem2-fast params.lengths: 2.5"),
    ("prop1", {"targets": {"kind": "one-minus-inverse-length", "lengths": [2, "7/2"]}},
     "prop1 params.targets.lengths: '7/2'"),
    ("corollary1", {"lengths": {"kind": "constant", "value": "5/2"}},
     "corollary1 params.lengths: '5/2'"),
], ids=["prop1-bare", "corollary1-list", "theorem2-fast-int-list", "nested", "constant"])
def test_a_non_integral_length_is_rejected_by_its_path(name, params, where):
    with pytest.raises(ValueError) as info:
        family_from_config(name, params)
    assert str(info.value) == f"{where} is not an integer"


@pytest.mark.parametrize("name, params, message", [
    ("example1", {"f": {"kind": "geometric", "ratio": "3/2"}},
     "example1 params.f: q must be in (0,1)"),
    ("example1", {"f": {"kind": "power", "epsilon": 0}},
     "example1 params.f: epsilon must be positive"),
    ("example2", {"a": {"kind": "power", "exponent": 0.5}},
     "example2 params.a: exponent must be negative"),
    ("prop2", {"epsilon": {"kind": "geometric", "ratio": "3/2"}},
     "prop2 params.epsilon: ratio must be in (0,1)"),
    ("example2", {"a": []}, "example2 params: a must not be empty"),
    ("example1", {"a": "3/2"}, "example1 params: a must lie in (0,1)"),
], ids=["lifetimes-geometric", "lifetimes-power", "star-weights", "epsilons",
        "families-example2", "families-example1"])
def test_a_builder_range_error_names_its_path_once(name, params, message):
    with pytest.raises(ValueError) as info:
        family_from_config(name, params)
    assert str(info.value) == message


@pytest.mark.parametrize("name, params, message", [
    ("corollary1", {"g": {"kind": "constant", "value": "-1"}},
     "corollary1 params.g.value: '-1' is not positive"),
    ("theorem2-fast", {"g": {"kind": "constant", "value": 0}},
     "theorem2-fast params.g.value: 0 is not positive"),
    ("prop1", {"lengths": [0]}, "prop1 params.lengths: length 0 must be >= 1"),
    ("prop1", {"lengths": [3, -2]}, "prop1 params.lengths: length -2 must be >= 1"),
    ("corollary1", {"lengths": {"kind": "int-list", "values": [0, 2]}},
     "corollary1 params.lengths: length 0 must be >= 1"),
    ("theorem2-fast", {"lengths": {"kind": "constant", "value": "0"}},
     "theorem2-fast params.lengths: length 0 must be >= 1"),
    ("prop1", {"targets": {"kind": "one-minus-inverse-length", "lengths": [0]}},
     "prop1 params.targets.lengths: length 0 must be >= 1"),
], ids=["gap-constant", "gap-constant-zero", "prop1-list", "prop1-later-entry", "int-list",
        "constant", "nested"])
def test_a_value_the_generator_would_reject_fails_at_build_time(name, params, message):
    # before any truncation is built, not as "generator failed at n=..."
    with pytest.raises(ValueError) as info:
        family_from_config(name, params)
    assert str(info.value) == message


@pytest.mark.parametrize("value", ["\u0663/\u0664", "1_0/2_0", "1/0", "3 / 4", "0x10", "inf",
                                   True])
def test_a_parameter_outside_the_weight_grammar_is_rejected(value):
    with pytest.raises(ValueError) as info:
        family_from_config("example1", {"a": value})
    assert str(info.value) == f"example1 params.a: {value!r} is not a number"


@pytest.mark.parametrize("value, exact", [
    (0.5, F(1, 2)), (1e-05, F(1, 100000)), ("3/4", F(3, 4)), (" .25 ", F(1, 4)),
    (F(2, 3), F(2, 3)),
])
def test_json_numbers_stay_in_the_weight_grammar(value, exact):
    assert constructions._number("at", value) == exact


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_non_monotone_minorant_pinned(kind):
    hi, lo = (F(3, 4), F(1, 2)) if kind == "exact" else (0.75, 0.5)
    h = GapTarget(lambda n: lo if n % 2 else hi).minorant()
    lines = [repr(h(n)) for n in range(1, 61)] + [repr(h.adjusted)]
    assert _sha1(lines) == PIN_DIGESTS[f"minorant/{kind}"]


# ---------------------------------------------------------------------------
# Thread safety: one family (and one lazy sequence) shared by a few threads
# ---------------------------------------------------------------------------

def test_memo_shared_across_threads_stays_indexed():
    def step(k, prev=None):
        time.sleep(0)  # hand the GIL over mid-step
        return k

    for _ in range(5):
        memo = _Memo1(step)
        results = run_threads(lambda i: [memo(k) for k in range(1, 201)])
        assert all(r == list(range(1, 201)) for r in results)
        assert memo.values == list(range(1, 201))


@pytest.mark.parametrize("name", BUILTIN_FAMILIES)
def test_family_shared_across_threads_matches_serial(name):
    orders = (146, 7, 60, 31)
    serial = [truncate(family_from_config(name), n).to_json() for n in orders]
    shared = family_from_config(name)
    results = run_threads(
        lambda i: [truncate(shared, n).to_json() for n in orders[i:] + orders[:i]]
    )
    for i, r in enumerate(results):
        assert r == serial[i:] + serial[:i]
