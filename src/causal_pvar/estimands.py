"""Brute-force estimand oracles over fully observed potential outcomes.

Everything here is computed by direct averaging/enumeration of the
simulated potential outcomes, evaluated from their structural form, never
through the estimation stack, so these values can serve as independent
references for what the recursive impact coefficient should recover under
each policy regime.  ATE and ATT need no dose grid; the dose-response
curves (``acr_on_grid``, ``acrt_on_grid``) take the grid a caller passes.
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
    "average_effects",
    "acr_on_grid",
    "acrt_on_grid",
    "selection_bias",
    "did_four_means",
    "dummy_gamma",
]


@dataclass(frozen=True)
class EstimandReport:
    """Oracle ATE, ATT and selection bias of one simulated panel.

    ``mc_se`` holds the cell-level Monte-Carlo standard errors of ``ate``
    and ``att``; ``selection_bias`` is NaN outside the dummy regimes.
    """

    ate: float
    att: float
    selection_bias: float
    mc_se: dict


def _effects(pop: PotentialOutcomePanel) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's po(1) - po(0), and the realized-treated mask (assignment != 0)."""
    treated = np.abs(pop.assignments) > 1e-12
    if not treated.any():
        raise EmptyTreatedSet("no realized-treated cells")
    return pop.po_at(1.0) - pop.po_at(0.0), treated


def oracle_estimands(pop: PotentialOutcomePanel) -> EstimandReport:
    """ATE, ATT and selection bias by enumeration.

    ATE averages po(1) - po(0) over every cell and ATT over the
    realized-treated cells, both from the structural form, on no dose
    grid; ``selection_bias`` is that of the dummy regimes.
    """
    effects, treated = _effects(pop)
    treated_effects = effects[treated]
    se_att = (treated_effects.std(ddof=1) / np.sqrt(treated_effects.size)
              if treated_effects.size > 1 else 0.0)
    return EstimandReport(
        ate=float(effects.mean()),
        att=float(treated_effects.mean()),
        selection_bias=selection_bias(pop) if pop.regime in DUMMY_REGIMES else float("nan"),
        mc_se={"ate": float(effects.std(ddof=1) / np.sqrt(effects.size)), "att": float(se_att)},
    )


def average_effects(pop: PotentialOutcomePanel) -> tuple[float, float]:
    """ATE and ATT of ``oracle_estimands`` alone."""
    effects, treated = _effects(pop)
    return float(effects.mean()), float(effects[treated].mean())


def acr_on_grid(pop: PotentialOutcomePanel, grid: np.ndarray) -> np.ndarray:
    """Average causal response at each grid dose.

    Central finite differences (one-sided at the boundary) of the mean
    potential outcome ``mean(scale) * g(lam) + mean(base)``.
    """
    mean_scale = np.broadcast_to(pop.impact_scale, pop.base.shape).mean()
    mean_po = mean_scale * pop.impact(grid) + pop.base.mean()
    return np.gradient(mean_po, grid)


def acrt_on_grid(pop: PotentialOutcomePanel, grid: np.ndarray) -> np.ndarray:
    """Average causal response on the treated at each grid dose.

    Cells are binned by realized dose to the nearest grid point and the
    bin means of the realized outcome differentiated across the grid;
    empty bins are interpolated for the differences and reported as NaN.
    """
    # ACRT differentiates the realized conditional mean m(lam) =
    # E[outcome | dose = lam], so the movement of the conditioning set
    # (the selection slope) is part of the derivative.
    w = pop.assignments.ravel()
    mids = (grid[:-1] + grid[1:]) / 2.0
    bins = np.searchsorted(mids, w)
    in_range = (w >= grid[0] - 1e-9) & (w <= grid[-1] + 1e-9)
    counts = np.bincount(bins[in_range], minlength=grid.size)
    sums = np.bincount(
        bins[in_range], weights=pop.realized_outcomes.ravel()[in_range], minlength=grid.size
    )
    with np.errstate(invalid="ignore"):
        cond_mean = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    empty = counts == 0
    if empty.all():
        return np.full(grid.size, np.nan)
    idx = np.arange(grid.size)
    filled = cond_mean.copy()
    filled[empty] = np.interp(idx[empty], idx[~empty], cond_mean[~empty])
    acrt = np.gradient(filled, grid)
    acrt[empty] = np.nan
    return acrt


def selection_bias(pop: PotentialOutcomePanel) -> float:
    """Selection wedge between the binary contrast and the ATE.

    (mean po(1) | treated - mean po(1)) - (mean po(0) | control - mean po(0)),
    which equals cov(po(1), treated) / mean(treated) - cov(po(0), untreated)
    / mean(untreated) with population-style (divisor n) covariances, so the
    decomposition ``contrast = ATE + bias`` holds exactly on any finite
    dummy panel.
    """
    if pop.regime not in DUMMY_REGIMES:
        raise RegimeMismatch(f"selection bias needs a dummy regime, got {pop.regime!r}")
    treated = pop.assignments == 1.0
    if treated.all() or not treated.any():
        raise DegenerateAssignment("assignment has no variation across cells")
    po1, po0 = pop.po_at(1.0), pop.po_at(0.0)
    return float((po1[treated].mean() - po1.mean()) - (po0[~treated].mean() - po0.mean()))


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
