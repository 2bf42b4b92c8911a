"""Brute-force estimand oracles over fully observed potential outcomes.

Everything here is computed by direct averaging/enumeration of the
simulated potential outcomes, evaluated from their structural form, never
through the estimation stack, so these values can serve as independent
references for what the recursive impact coefficient should recover under
each policy regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateAssignment,
    EmptyCell,
    EmptyTreatedSet,
    GridMismatch,
    RegimeMismatch,
)
from .scenarios import DUMMY_REGIMES, PotentialOutcomePanel

__all__ = [
    "EstimandReport",
    "oracle_estimands",
    "selection_bias",
    "did_four_means",
    "dummy_gamma",
]


@dataclass(frozen=True)
class EstimandReport:
    """Oracle values of the usual estimands on one simulated panel.

    ``acr_grid`` differentiates the mean potential outcome in the dose;
    ``acrt_grid`` does the same restricted to cells whose realized dose
    falls in each grid bin.  ``mc_se`` holds cell-level Monte-Carlo
    standard errors for the scalar entries.
    """

    grid: np.ndarray
    ate: float
    att: float
    acr_grid: np.ndarray
    acrt_grid: np.ndarray
    selection_bias: float
    mc_se: dict
    atte: float | None = None
    aste: float | None = None


def _check_grid(pop: PotentialOutcomePanel, grid) -> np.ndarray:
    if grid is None:
        return pop.lambda_grid
    grid = np.asarray(grid, dtype=float)
    if grid[0] < pop.lambda_grid[0] - 1e-9 or grid[-1] > pop.lambda_grid[-1] + 1e-9:
        raise GridMismatch("requested grid extends beyond the panel's dose grid")
    return grid


def oracle_estimands(pop: PotentialOutcomePanel, grid=None) -> EstimandReport:
    """ATE, ATT, dose-response derivatives, and selection bias by enumeration.

    ATE averages po(1) - po(0) over every cell; ATT restricts the same
    average to realized-treated cells (assignment != 0).  ACR takes
    central finite differences of the mean potential outcome across the
    grid (one-sided at the boundary), where the mean is
    ``mean(scale) * g(lam) + mean(base)``; ACRT bins cells by realized
    dose and differentiates the bin's own potential-outcome path.
    """
    grid = _check_grid(pop, grid)
    w = pop.assignments
    n_cells = w.size

    po1 = pop.po_at(1.0) if grid[-1] >= 1.0 - 1e-12 and grid[0] <= 1e-12 else None
    if po1 is not None:
        po0 = pop.po_at(0.0)
        effects = po1 - po0
        ate = float(effects.mean())
        se_ate = float(effects.std(ddof=1) / np.sqrt(n_cells))
    else:
        ate, se_ate, effects = float("nan"), float("nan"), None

    treated = np.abs(w) > 1e-12
    if not treated.any():
        raise EmptyTreatedSet("no realized-treated cells")
    if effects is not None:
        treated_effects = effects[treated]
        att = float(treated_effects.mean())
        se_att = float(
            treated_effects.std(ddof=1) / np.sqrt(treated_effects.size)
            if treated_effects.size > 1
            else 0.0
        )
    else:
        att, se_att = float("nan"), float("nan")

    mean_scale = np.broadcast_to(pop.impact_scale, pop.base.shape).mean()
    mean_po = mean_scale * pop.impact(grid) + pop.base.mean()
    acr = np.gradient(mean_po, grid)

    # ACRT differentiates the realized conditional mean m(lam) =
    # E[outcome | dose = lam], so the movement of the conditioning set
    # (the selection slope) is part of the derivative.
    mids = (grid[:-1] + grid[1:]) / 2.0
    bins = np.searchsorted(mids, w.ravel())
    in_range = (w.ravel() >= grid[0] - 1e-9) & (w.ravel() <= grid[-1] + 1e-9)
    counts = np.bincount(bins[in_range], minlength=grid.size)
    sums = np.bincount(
        bins[in_range], weights=pop.realized_outcomes.ravel()[in_range], minlength=grid.size
    )
    with np.errstate(invalid="ignore"):
        cond_mean = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    empty = counts == 0
    if empty.all():
        acrt = np.full(grid.size, np.nan)
    else:
        idx = np.arange(grid.size)
        filled = cond_mean.copy()
        filled[empty] = np.interp(idx[empty], idx[~empty], cond_mean[~empty])
        acrt = np.gradient(filled, grid)
        acrt[empty] = np.nan

    if pop.regime in DUMMY_REGIMES:
        delta = selection_bias(pop)
    else:
        delta = float("nan")

    return EstimandReport(
        grid=grid,
        ate=ate,
        att=att,
        acr_grid=acr,
        acrt_grid=acrt,
        selection_bias=delta,
        mc_se={"ate": se_ate, "att": se_att},
    )


def selection_bias(pop: PotentialOutcomePanel) -> float:
    """Covariance wedge between the binary contrast and the ATE.

    cov(po(1), treated) / mean(treated) - cov(po(0), untreated) /
    mean(untreated), with population-style (divisor n) sample covariances,
    so the decomposition ``contrast = ATE + bias`` holds exactly on any
    finite dummy panel.
    """
    if pop.regime not in DUMMY_REGIMES:
        raise RegimeMismatch(f"selection bias needs a dummy regime, got {pop.regime!r}")
    w = pop.assignments.ravel()
    ind = w == 1.0
    if ind.all() or not ind.any():
        raise DegenerateAssignment("assignment has no variation across cells")
    po1 = pop.po_at(1.0).ravel()
    po0 = pop.po_at(0.0).ravel()

    def _cov(a, b):
        return float(np.mean((a - a.mean()) * (b - b.mean())))

    return _cov(po1, ind.astype(float)) / ind.mean() - _cov(
        po0, (~ind).astype(float)
    ) / (~ind).mean()


def did_four_means(outcome_residuals, treated_units, treated_times) -> float:
    """Four-cell difference of means over the unit/time group partition.

    mean(treated units, treated times) - mean(control units, treated times)
    - mean(treated units, control times) + mean(control units, control times).
    """
    y = np.asarray(outcome_residuals, dtype=float)
    iu = np.asarray(treated_units, dtype=bool)
    it = np.asarray(treated_times, dtype=bool)
    if y.shape != (iu.size, it.size):
        raise GridMismatch(
            f"residuals {y.shape} do not align with groups ({iu.size}, {it.size})"
        )
    cells = {
        "treated/treated": y[np.ix_(iu, it)],
        "control/treated": y[np.ix_(~iu, it)],
        "treated/control": y[np.ix_(iu, ~it)],
        "control/control": y[np.ix_(~iu, ~it)],
    }
    for name, block in cells.items():
        if block.size == 0:
            raise EmptyCell(f"empty cell: {name}")
    return float(
        cells["treated/treated"].mean()
        - cells["control/treated"].mean()
        - cells["treated/control"].mean()
        + cells["control/control"].mean()
    )


def dummy_gamma(w, y) -> float:
    """Treated-minus-control mean of y for a 0/1 assignment.

    Identical to the pooled regression coefficient
    cov(w, y) / var(w) when w is binary.
    """
    w = np.asarray(w, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if not np.isin(w, (0.0, 1.0)).all():
        raise DegenerateAssignment("assignment must be 0/1")
    treated = w == 1.0
    if treated.all() or not treated.any():
        raise DegenerateAssignment("assignment has no variation")
    return float(y[treated].mean() - y[~treated].mean())
