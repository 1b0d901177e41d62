"""Library input checks that no other test reaches, each with the message it raises."""

import random
from fractions import Fraction as F

import pytest

from substochastic.constructions import (
    EpsilonSchedule,
    GapTarget,
    _Memo1,
    a_power,
    as_sequence,
    build_corollary1,
    build_example1,
    f_geometric,
    f_power,
    power_series_sum,
)
from substochastic.digraph import WeightedDigraph
from substochastic.errors import FamilyDefinitionError
from substochastic.inequalities import instance_stream, random_strong_digraph, run_suite
from substochastic.spectral import perron_ladder
from substochastic.sweeps import SweepSpec, fit_decay

CHECKS = [
    (lambda: as_sequence([], name="a"), ValueError, "a must not be empty"),
    (lambda: _Memo1(lambda k, prev: k)(0), ValueError, "sequences are 1-indexed"),
    (lambda: EpsilonSchedule.geometric(F(1)), ValueError, "ratio must be in (0,1)"),
    (lambda: build_example1(), ValueError, "a lifetime sequence f is required"),
    (lambda: f_geometric(F(0)), ValueError, "q must be in (0,1)"),
    (lambda: power_series_sum(1.0), ValueError, "series diverges for s <= 1"),
    (lambda: f_power(-0.5), ValueError, "epsilon must be positive"),
    (lambda: a_power(0.0), ValueError, "exponent must be negative"),
    (lambda: build_corollary1(GapTarget.exp2()).witness_submatrix(0), FamilyDefinitionError,
     "corollary1: no witness bead of length <= 0"),
    (lambda: random_strong_digraph(random.Random(0), 0), ValueError, "order must be >= 1"),
    (lambda: random_strong_digraph(random.Random(0), 3, weighting="sub"), ValueError,
     "unknown weighting request 'sub'"),
    (lambda: run_suite("bogus", count=1), ValueError, "unknown suite 'bogus'"),
    (lambda: run_suite("zeta", count=1, mode="float"), ValueError,
     "the zeta suite is exact-only"),
    (lambda: WeightedDigraph.from_json_dict({"order": 2, "arcs": []}, mode="decimal"),
     ValueError, "unknown arithmetic mode 'decimal'"),
    (lambda: run_suite("ksv", count=1, mode="Exact"), ValueError,
     "unknown arithmetic mode 'Exact'"),
    (lambda: run_suite("zeta", count=1, mode="EXACT"), ValueError,
     "unknown arithmetic mode 'EXACT'"),
    (lambda: list(instance_stream(0, 1, 4, mode="rational")), ValueError,
     "unknown arithmetic mode 'rational'"),
    (lambda: SweepSpec("example1", n_grid=(5,), mode="Float"), ValueError,
     "unknown arithmetic mode 'Float'"),
    (lambda: perron_ladder(build_example1(f=f_geometric()), [3], mode="witness"), ValueError,
     "family example1 declares no witness submatrix"),
    (lambda: perron_ladder(build_example1(f=f_geometric()), [3], mode="top"), ValueError,
     "unknown ladder mode 'top'"),
    (lambda: fit_decay([(1, 0.5), (2, 0.25), (4, 0.125)], log_correction=True), ValueError,
     "log correction needs n > 1 throughout"),
]


@pytest.mark.parametrize("call, error, message", CHECKS,
                         ids=[message for _call, _error, message in CHECKS])
def test_input_check_raises_its_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert message in str(info.value)
