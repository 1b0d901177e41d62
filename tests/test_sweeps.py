import io
import math
from unittest import mock

import numpy as np
import pytest

from substochastic import DecayFit, SweepSpec, fit_decay, run_sweep, sweep_csv, sweep_json
from substochastic import families, sweeps


def spec(**kw):
    base = dict(
        family="example2",
        params={"a": {"kind": "power", "exponent": -0.75}},
        n_grid=(5, 10, 20),
        compute_fvs=True,
    )
    base.update(kw)
    return SweepSpec(**base)


class TestRunSweep:
    def test_deterministic_csv_bytes(self):
        sink = io.StringIO()
        a = sweep_csv(run_sweep(spec(), progress=sink))
        b = sweep_csv(run_sweep(spec(), progress=sink))
        assert a == b

    def test_versioned_header_and_columns(self):
        sink = io.StringIO()
        text = sweep_csv(run_sweep(spec(), progress=sink))
        lines = text.splitlines()
        assert lines[0].startswith("# substochastic-sweep-v1")
        assert lines[1] == "n,lambda_n,omega_n,one_minus_omega,one_minus_lambda,n_one_minus_lambda,gap_to_limit,fvs_size"
        assert len(lines) == 2 + 3

    def test_empty_grid_is_rejected(self):
        with pytest.raises(ValueError, match="n_grid must name at least one order"):
            SweepSpec("example2")

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            spec(n_grid=(5, 5))

    @pytest.mark.parametrize("n_grid", [(0, 5), (-3,)], ids=["zero", "negative"])
    def test_grid_orders_below_one_rejected(self, n_grid):
        with pytest.raises(ValueError, match="n_grid orders must be at least 1"):
            spec(n_grid=n_grid)

    def test_row_error_is_recorded_and_the_sweep_goes_on(self):
        # the partial sums of f reach 1 at index 2: order 2 builds, order 3 does not
        rows = run_sweep(spec(family="example1", params={"f": ["1/2", "1/2"]}, n_grid=(2, 3),
                              compute_fvs=False), progress=io.StringIO())
        assert isinstance(rows[0]["lambda_n"], float) and 0 < rows[0]["lambda_n"] < 1
        assert sweep_csv(rows).splitlines()[-1] == (
            "3,error:example1: partial sums of f reach 1 at index 2,,,,,,")

    @pytest.mark.parametrize("error", [KeyError("n"), AttributeError("lam"), TypeError("tol")],
                             ids=lambda e: type(e).__name__)
    def test_a_bug_is_not_recorded_as_a_cell(self, monkeypatch, error):
        def broken(d):
            raise error

        monkeypatch.setattr(sweeps, "perron_root", broken)
        with pytest.raises(type(error)):
            run_sweep(spec(n_grid=(5,)), progress=io.StringIO())

    @pytest.mark.parametrize("error", [RuntimeError("stalled"), ZeroDivisionError("pivot"),
                                       OverflowError("weight"), ValueError("order")],
                             ids=lambda e: type(e).__name__)
    def test_library_errors_are_recorded_as_cells(self, monkeypatch, error):
        def failing(d):
            raise error

        monkeypatch.setattr(sweeps, "perron_root", failing)
        [row] = run_sweep(spec(n_grid=(5,)), progress=io.StringIO())
        assert row["lambda_n"] == f"error:{error}"

    def test_transversal_error_is_recorded_in_its_cell(self, monkeypatch):
        # the root and gain of the row were already in place: the error used to vanish
        def failing(d, budget):
            raise RuntimeError("transversal check failed")

        monkeypatch.setattr(sweeps, "min_cycle_transversal", failing)
        [row] = run_sweep(spec(n_grid=(5,)), progress=io.StringIO())
        assert isinstance(row["lambda_n"], float)
        assert row["fvs_size"] == "error:transversal check failed"

    def test_gap_column_uses_declared_limit(self):
        sink = io.StringIO()
        rows = run_sweep(spec(), progress=sink)
        for row in rows:
            assert row["gap_to_limit"] > 0
        gaps = [row["gap_to_limit"] for row in rows]
        assert gaps == sorted(gaps, reverse=True)

    def test_fvs_column_is_one_for_the_star(self):
        sink = io.StringIO()
        rows = run_sweep(spec(), progress=sink)
        assert all(row["fvs_size"] == 1 for row in rows)

    def test_json_mirror(self):
        sink = io.StringIO()
        rows = run_sweep(spec(), progress=sink)
        payload = sweep_json(rows)
        assert '"columns"' in payload and '"rows"' in payload

    def test_one_truncation_per_order(self):
        # omega_n is computed on the order-n truncation the row already built
        with mock.patch.object(sweeps, "truncate", wraps=sweeps.truncate) as row_cuts, \
             mock.patch.object(families, "truncate", wraps=families.truncate) as gain_cuts:
            run_sweep(spec(family="example1", params={}, n_grid=(5, 10, 20), compute_fvs=False),
                      progress=io.StringIO())
        assert (row_cuts.call_count, gain_cuts.call_count) == (3, 0)


E1_POWER = {"a": "1/2", "f": {"kind": "power", "epsilon": 0.5}}


class TestExperiments:
    """``run_sweep`` then ``fit_decay`` on the grids of the README experiments.

    The expected fits are the ones the former standalone experiment scripts
    printed: the ladder-gap exponent of the star family with hub weights
    a_k = k^exponent, and the decay of 1 - omega_n on the return path.
    """

    @pytest.mark.parametrize("exponent, fitted", [
        (-0.625, ("-0.264658", "-0.266619", "-0.262696")),
        (-0.75, ("-0.505809", "-0.507217", "-0.504402")),
        (-1.0, ("-1.001951", "-1.002740", "-1.001162")),
    ])
    def test_ladder_gap_exponent(self, exponent, fitted):
        rows = run_sweep(SweepSpec("example2", {"a": {"kind": "power", "exponent": exponent}},
                                   (100, 182, 331, 603, 1098, 2000), compute_fvs=False),
                         progress=io.StringIO())
        fit = fit_decay([(row["n"], row["gap_to_limit"]) for row in rows])
        assert tuple(f"{x:.6f}" for x in (fit.slope, fit.ci_low, fit.ci_high)) == fitted

    def test_gain_rate(self):
        grid = (100, 110, 122, 134, 149, 164, 182, 201, 222, 245, 271, 300)
        rows = run_sweep(SweepSpec("example1", E1_POWER, grid, compute_fvs=False),
                         progress=io.StringIO())
        pairs = [(row["n"], row["one_minus_omega"]) for row in rows]
        plain = fit_decay(pairs)
        corrected = fit_decay(pairs, log_correction=True)
        assert f"{plain.slope:+.4f}" == "-0.8060"
        assert (f"{corrected.slope:+.4f}", f"{corrected.log_coefficient:+.4f}") == (
            "-1.0438", "+1.2221")


class TestFitDecay:
    def test_exact_power_law(self):
        pairs = [(n, n**-0.5) for n in (10, 20, 50, 100, 300, 1000)]
        fit = fit_decay(pairs)
        assert fit.slope == pytest.approx(-0.5, abs=1e-6)
        assert fit.ci_low <= -0.5 <= fit.ci_high

    def test_log_over_n_drifts_then_corrects(self):
        ns = np.geomspace(100, 100000, 20).astype(int)
        pairs = [(int(n), math.log(n) / n) for n in ns]
        plain = fit_decay(pairs)
        assert -1.0 < plain.slope < -0.8
        corrected = fit_decay(pairs, log_correction=True)
        assert corrected.slope == pytest.approx(-1.0, abs=1e-6)
        assert corrected.log_coefficient == pytest.approx(1.0, abs=1e-6)

    def test_window_selects_subrange(self):
        pairs = [(n, n**-0.5) for n in (10, 20, 50, 100, 300, 1000)]
        fit = fit_decay(pairs, window=(2, 6))
        assert isinstance(fit, DecayFit)
        assert fit.points == 4

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_decay([(10, 0.1), (20, 0.05)])

    def test_nonpositive_gaps_rejected(self):
        with pytest.raises(ValueError):
            fit_decay([(10, 0.1), (20, 0.0), (30, 0.01)])
