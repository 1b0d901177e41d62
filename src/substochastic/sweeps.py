"""Experiment sweeps over truncation ladders, and decay-exponent fitting."""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .constructions import family_from_config
from .cycles import min_cycle_transversal
from .digraph import _check_mode
from .families import family_gain, family_to_float, truncate
from .spectral import perron_root

CSV_VERSION = "substochastic-sweep-v1"
COLUMNS = (
    "n",
    "lambda_n",
    "omega_n",
    "one_minus_omega",
    "one_minus_lambda",
    "n_one_minus_lambda",
    "gap_to_limit",
    "fvs_size",
)


@dataclass(frozen=True)
class SweepSpec:
    family: str
    params: Mapping = field(default_factory=dict)
    n_grid: tuple[int, ...] = ()
    mode: str = "float"
    compute_fvs: bool = True

    def __post_init__(self):
        _check_mode(self.mode)
        if not self.n_grid:
            raise ValueError("n_grid must name at least one order")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if any(n < 1 for n in self.n_grid):
            raise ValueError("n_grid orders must be at least 1")


def run_sweep(spec: SweepSpec, progress=None) -> list[dict]:
    """Per-n ladder rows; deterministic for a fixed spec, errors recorded inline."""
    fam = family_from_config(spec.family, spec.params)
    fam = family_to_float(fam) if spec.mode == "float" else fam
    progress = progress if progress is not None else sys.stderr
    limit = fam.facts.spectral_limit
    rows = []
    for n in spec.n_grid:
        row: dict = {"n": n}
        try:
            d = truncate(fam, n)
            lam = perron_root(d)
            omega = family_gain(fam, n, d).value
            row.update(lambda_n=lam, omega_n=omega, one_minus_omega=1 - omega,
                       one_minus_lambda=1 - lam, n_one_minus_lambda=n * (1 - lam),
                       gap_to_limit=(float(limit) - lam) if limit is not None else "")
            row["fvs_size"] = (min_cycle_transversal(d, budget=20_000).size
                               if spec.compute_fvs else "")
        except Exception as exc:  # keep sweeping, record the cell error
            row.setdefault("lambda_n", f"error:{exc}")
            for col in COLUMNS:
                row.setdefault(col, "")
        rows.append(row)
        print(f"sweep {spec.family}: n={n} done", file=progress)
    return rows


def sweep_csv(rows: Sequence[Mapping]) -> str:
    out = io.StringIO()
    out.write(f"# {CSV_VERSION} columns: {','.join(COLUMNS)}\n")
    out.write(",".join(COLUMNS) + "\n")
    for row in rows:
        cells = (row.get(c, "") for c in COLUMNS)
        out.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in cells) + "\n")
    return out.getvalue()


def sweep_json(rows: Sequence[Mapping]) -> str:
    return json.dumps({"version": CSV_VERSION, "columns": list(COLUMNS), "rows": list(rows)},
                      indent=2, default=str)


# ---------------------------------------------------------------------------
# Decay fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    stderr: float
    ci_low: float
    ci_high: float
    points: int
    log_coefficient: float | None = None


def fit_decay(
    series: Sequence[tuple[float, float]],
    window: tuple[int, int] | None = None,
    log_correction: bool = False,
) -> DecayFit:
    """Least-squares slope of log(gap) against log(n).

    ``window`` selects an index range [lo, hi).  With ``log_correction`` the
    model gains a log(log n) term whose coefficient is reported, which
    separates gaps like (log n)/n from pure power laws.
    """
    pts = list(series)
    if window is not None:
        pts = pts[window[0]: window[1]]
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit")
    if not all(math.isfinite(v) for pt in pts for v in pt):
        raise ValueError("points must be finite in the fitted window")
    if any(g <= 0 for _, g in pts):
        raise ValueError("gaps must be positive in the fitted window")
    if any(n <= 0 for n, _ in pts):
        raise ValueError("n must be positive in the fitted window")
    if log_correction and any(n <= 1 for n, _ in pts):
        raise ValueError("log correction needs n > 1 throughout")
    params = 3 if log_correction else 2
    if len({n for n, _ in pts}) < params:  # the design matrix would be singular
        raise ValueError(f"need {params} distinct n to fit {params} parameters")
    x = np.log([float(n) for n, _ in pts])
    y = np.log([float(g) for _, g in pts])
    cols = [x, np.ones_like(x)]
    if log_correction:
        cols.insert(1, np.log(x))
    design = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = max(1, len(pts) - design.shape[1])
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    se = math.sqrt(max(cov[0, 0], 0.0))
    slope = float(coef[0])
    return DecayFit(
        slope=slope,
        intercept=float(coef[-1]),
        stderr=se,
        ci_low=slope - 1.96 * se,
        ci_high=slope + 1.96 * se,
        points=len(pts),
        log_coefficient=float(coef[1]) if log_correction else None,
    )
