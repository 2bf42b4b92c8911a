"""Panel data model and fixed-effects (within) estimation of a panel VAR.

The data model is a balanced (unit, time, variable) array with the policy
series stored first and the outcome series after them.  Estimation removes
unit effects (and optional exogenous dummies) by residualizing, regresses
each variable on its own and the others' lags pooled across units, and
returns slope matrices, unit effects, residuals, and the residual
covariance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadConfig,
    BadOrdering,
    DegenerateDummy,
    InsufficientObs,
    NonFinite,
    SingularDesign,
    UnbalancedPanel,
)

# Largest condition number of a lag Gram matrix scaled to a unit diagonal.
COND_LIMIT = 1e12

__all__ = [
    "PanelDataset",
    "PVARSpec",
    "PVARFit",
    "CompanionMatrix",
    "panel_from_records",
    "validate_panel",
    "within_demean",
    "fit_pvar",
    "companion",
]


@dataclass(frozen=True)
class PanelDataset:
    """Balanced panel of K policy series followed by J outcome series.

    Parameters
    ----------
    values : ndarray, shape (n_units, n_times, m)
        Dense panel with the K policy variables in the first columns.
    n_policies : int
        Number of policy variables K; the remaining m - K are outcomes.
    variable_names : tuple of str
        One label per variable, policies first.
    exogenous_dummies : ndarray, optional, shape (n_units, n_times, d)
        0/1 controls (e.g. a pandemic-period dummy) partialled out
        alongside the unit effects.
    """

    values: np.ndarray
    n_policies: int
    variable_names: tuple[str, ...]
    exogenous_dummies: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "variable_names", tuple(self.variable_names))
        if self.exogenous_dummies is not None:
            object.__setattr__(
                self, "exogenous_dummies", np.asarray(self.exogenous_dummies, dtype=float)
            )

    @property
    def n_units(self) -> int:
        return self.values.shape[0]

    @property
    def n_times(self) -> int:
        return self.values.shape[1]

    @property
    def n_vars(self) -> int:
        return self.values.shape[2]

    @property
    def n_outcomes(self) -> int:
        return self.n_vars - self.n_policies


@dataclass(frozen=True)
class PVARSpec:
    """Estimation specification: lag order and exogenous dummy controls."""

    lag_order: int = 1
    dummy_columns: tuple[int, ...] = ()

    def __post_init__(self):
        if self.lag_order < 1:
            raise BadConfig(f"lag_order must be >= 1, got {self.lag_order}")
        object.__setattr__(self, "dummy_columns", tuple(self.dummy_columns))


@dataclass(frozen=True)
class PVARFit:
    """Estimated panel VAR: slopes, unit effects, residuals, covariance.

    ``phi`` holds one m x m slope matrix per lag (row = equation).
    ``residuals`` covers t = p+1..T, so its time axis is shorter than the
    input panel by ``spec.lag_order`` periods.  ``dummy_coef`` holds the
    coefficients of the spec's dummies in the joint regression on [lags,
    dummies].
    """

    phi: tuple[np.ndarray, ...]
    mu: np.ndarray
    residuals: np.ndarray
    sigma: np.ndarray
    spec: PVARSpec
    effective_obs: int
    intercepts: np.ndarray = field(repr=False, default=None)
    dummy_coef: np.ndarray | None = field(repr=False, default=None)

    @property
    def n_vars(self) -> int:
        return self.sigma.shape[0]

    @property
    def n_units(self) -> int:
        return self.residuals.shape[0]


@dataclass(frozen=True)
class CompanionMatrix:
    """VAR(1) companion form of a VAR(p): stacked slopes over identity blocks."""

    matrix: np.ndarray
    n_vars: int
    lag_order: int


def panel_from_records(units, times, values, n_policies, variable_names=None):
    """Assemble a PanelDataset from long-format records.

    ``units``/``times`` are per-row labels and ``values`` the per-row
    variable vectors.  Raises UnbalancedPanel on the first missing
    (unit, time) combination, and on the first missing period when the
    sorted time labels are not equally spaced (a period absent for every
    unit).
    """
    units = np.asarray(units)
    times = np.asarray(times)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or len(units) != len(times) or len(units) != values.shape[0]:
        raise BadOrdering("records must align: one (unit, time, value-row) per line")
    unit_ids, unit_idx = np.unique(units, return_inverse=True)
    time_ids, time_idx = np.unique(times, return_inverse=True)
    n, t, m = len(unit_ids), len(time_ids), values.shape[1]
    out = np.full((n, t, m), np.nan)
    out[unit_idx, time_idx] = values
    missing = np.isnan(out).all(axis=2)
    if missing.any():
        i, j = np.argwhere(missing)[0]
        raise UnbalancedPanel(unit_ids[i], time_ids[j])
    step = np.diff(time_ids)
    if step.size and (gap := step != step.min()).any():
        raise UnbalancedPanel(unit_ids[0], time_ids[gap.argmax()] + step.min())
    if variable_names is None:
        variable_names = tuple(f"v{k + 1}" for k in range(m))
    panel = PanelDataset(out, n_policies, variable_names)
    return validate_panel(panel)


def validate_panel(raw: PanelDataset) -> PanelDataset:
    """Check balance, finiteness, and policies-first ordering metadata.

    Returns the dataset unchanged on success.  A fully-NaN (unit, time)
    cell is reported as a missing cell; any other non-finite entry as a
    NonFinite error.
    """
    vals = raw.values
    if vals.ndim != 3:
        raise BadOrdering(f"values must be (unit, time, variable), got ndim={vals.ndim}")
    missing = np.isnan(vals).all(axis=2)
    if missing.any():
        i, j = np.argwhere(missing)[0]
        raise UnbalancedPanel(i + 1, j + 1)
    if not np.isfinite(vals).all():
        bad = np.argwhere(~np.isfinite(vals))[0]
        raise NonFinite(
            f"non-finite value at (unit={bad[0] + 1}, time={bad[1] + 1}, "
            f"variable={bad[2] + 1})"
        )
    m = raw.n_vars
    if m < 2:
        raise BadOrdering(f"need at least 2 variables, got m={m}")
    if not 0 <= raw.n_policies <= m - 1:
        raise BadOrdering(
            f"need K + J = m with J >= 1: K={raw.n_policies}, m={m}"
        )
    if len(raw.variable_names) != m:
        raise BadOrdering(
            f"{len(raw.variable_names)} variable names for {m} variables"
        )
    if raw.exogenous_dummies is not None:
        d = raw.exogenous_dummies
        if d.shape[:2] != vals.shape[:2]:
            raise BadOrdering("exogenous_dummies must share the (unit, time) grid")
        if not np.isfinite(d).all():
            raise NonFinite("non-finite exogenous dummy value")
    return raw


def _sample_dummies(panel: PanelDataset, spec: PVARSpec, drop: int):
    """The spec's raw (n, T - drop, d) dummy block on periods drop+1..T and its
    per-unit demeaned (n * (T - drop), d) rows, unit-major; (None, None) without."""
    if not spec.dummy_columns:
        return None, None
    if panel.exogenous_dummies is None:
        raise BadConfig("spec names dummy_columns but panel has no dummies")
    raw = panel.exogenous_dummies[:, drop:, list(spec.dummy_columns)]
    flat = raw - raw.mean(axis=1, keepdims=True)
    return raw, flat.reshape(-1, raw.shape[2])


def within_demean(panel: PanelDataset, spec: PVARSpec | None = None) -> PanelDataset:
    """Remove unit effects (and optional dummy effects) from every series.

    Each (unit, variable) series has mean zero afterwards.  When the spec
    names dummy columns, the dummies are partialled out jointly with the
    unit means (Frisch-Waugh: both the series and the dummies are demeaned
    per unit first, then the dummy projection is removed).
    """
    spec = spec or PVARSpec()
    vals = panel.values - panel.values.mean(axis=1, keepdims=True)
    _, dflat = _sample_dummies(panel, spec, 0)
    if dflat is not None:
        flat = vals.reshape(1, dflat.shape[0], -1)
        vals = (flat - dflat @ _within_cross(flat, dflat)[1]).reshape(vals.shape)
    return PanelDataset(vals, panel.n_policies, panel.variable_names, panel.exogenous_dummies)


def _within_design(values: np.ndarray, p: int):
    """Z = [lags 1..p, dep] of (a, T, ..., m) series on periods p+1..T, lags never wrapped.

    Returns ``(z, means)``: Z demeaned over time (axis 1), shape (a, T - p,
    ..., m p + m), and its time means.  Z is filled in place, not concatenated,
    so that it is C-ordered for any strides of ``values`` and flattens to
    rows without a copy.
    """
    t, m = values.shape[1], values.shape[-1]
    if t - p < m * p + 2:
        raise InsufficientObs(f"need T - p >= m*p + 2 per unit: T={t}, m={m}, p={p}")
    z = np.empty((values.shape[0], t - p, *values.shape[2:-1], m * p + m))
    for i, l in enumerate((*range(1, p + 1), 0)):
        z[..., i * m : (i + 1) * m] = values[:, p - l : t - l]
    means = z.mean(axis=1, keepdims=True)
    z -= means
    return z, means


def _within_cross(z: np.ndarray, dummies: np.ndarray | None):
    """Cross-products Z'Z of (b, rows, q) demeaned designs, less the dummy projection.

    With per-unit demeaned (rows, d) ``dummies`` D, ``Z'D (D'D)^-1 D'Z`` is
    subtracted (Frisch-Waugh).  Returns ``(cross, proj)``: the (b, q, q)
    cross-products and ``proj = (D'D)^-1 D'Z`` of shape (b, d, q), or None.
    """
    cross = z.transpose(0, 2, 1) @ z
    if dummies is None:
        return cross, None
    gram = dummies.T @ dummies
    if np.abs(gram).max() < 1e-12:
        raise DegenerateDummy("dummy columns are collinear with the unit means")
    if np.linalg.cond(gram) > 1e12:
        raise DegenerateDummy("dummy columns are mutually collinear after demeaning")
    dz = dummies.T @ z
    proj = np.linalg.solve(gram, dz)
    cross -= dz.transpose(0, 2, 1) @ proj
    return cross, proj


def _within_ols(cross: np.ndarray, mp: int, eff: int):
    """Within-OLS slopes and residual covariance from (b, mp + m, mp + m) cross-products.

    ``cross`` is Z'Z of Z = [lags, dep], within-demeaned and with any dummy
    projection removed.  From the lag Gram G, the cross term C and the
    dependent block DD: ``coef = G^-1 C`` (rows stacked lag by lag) and
    ``sigma = (DD - C' coef) / eff``, solved on G scaled to a unit diagonal.

    Returns ``(coef, sigma, ok)`` over the leading axis; ``ok`` is False, and
    that design's coef and sigma are NaN, where the rule documented on
    :class:`~causal_pvar.errors.SingularDesign` rejects it.
    """
    b, m = cross.shape[0], cross.shape[1] - mp
    coef = np.full((b, mp, m), np.nan)
    sigma = np.full((b, m, m), np.nan)
    diag = np.diagonal(cross[:, :mp, :mp], axis1=1, axis2=2)
    ok = np.isfinite(cross).all(axis=(1, 2)) & (diag > 0).all(axis=1)
    scale = 1.0 / np.sqrt(diag[ok])
    gram = cross[ok, :mp, :mp] * scale[:, :, None] * scale[:, None, :]
    well = np.linalg.cond(gram) <= COND_LIMIT
    ok[ok] = well
    cross, scale, gram = cross[ok], scale[well, :, None], gram[well]
    lag_dep, dep = cross[:, :mp, mp:], cross[:, mp:, mp:]
    slopes = scale * np.linalg.solve(gram, scale * lag_dep)
    cov = (dep - lag_dep.transpose(0, 2, 1) @ slopes) / eff
    coef[ok] = slopes
    sigma[ok] = (cov + cov.transpose(0, 2, 1)) / 2.0
    return coef, sigma, ok


def _within_ols_one(cross: np.ndarray, mp: int, eff: int):
    """``_within_ols`` of one (mp + m, mp + m) cross-product; SingularDesign if rejected."""
    coef, sigma, ok = _within_ols(cross[None], mp, eff)
    if not ok[0]:
        raise SingularDesign(f"the {mp} x {mp} lag Gram matrix, scaled to a unit diagonal, "
                             f"is singular or has condition number above {COND_LIMIT:.0e}")
    return coef[0], sigma[0]


def fit_pvar(panel: PanelDataset, spec: PVARSpec) -> PVARFit:
    """Within-OLS fit of the panel VAR.

    Lags are built within unit only; the first ``lag_order`` periods per
    unit are dropped, never wrapped.  Slopes come from pooled OLS of the
    demeaned series on their demeaned lags and dummies; the residual
    covariance uses the divisor N * (T - p) with no small-sample
    correction.  Raises SingularDesign by the rule documented there.
    """
    validate_panel(panel)
    p = spec.lag_order
    n, t, m = panel.values.shape
    if p >= t - 1:
        raise BadConfig(f"lag_order={p} too large for T={t}")
    mp, eff = m * p, n * (t - p)
    z, means = _within_design(panel.values, p)
    raw_dummies, dummies = _sample_dummies(panel, spec, p)
    flat = z.reshape(1, eff, mp + m)
    cross, proj = _within_cross(flat, dummies)
    coef, _ = _within_ols_one(cross[0], mp, eff)

    # Z [-coef; I] = dep - lags coef: on the rows, the means and the dummy
    # projection it gives the joint regression's residuals, intercepts and dummy_coef
    beta = np.vstack([-coef, np.eye(m)])
    resid, intercepts, dummy_coef = flat[0] @ beta, means[:, 0] @ beta, None
    if proj is not None:
        dummy_coef = proj[0] @ beta
        resid -= dummies @ dummy_coef
        intercepts -= raw_dummies.mean(axis=1) @ dummy_coef
    sigma = resid.T @ resid / eff
    phi = tuple(coef[(l * m) : (l + 1) * m, :].T.copy() for l in range(p))
    phi_sum = np.eye(m) - sum(phi)
    try:
        mu = np.linalg.solve(phi_sum, intercepts.T).T
    except np.linalg.LinAlgError:  # a unit root: the minimum-norm solution
        mu = (np.linalg.pinv(phi_sum) @ intercepts.T).T
    return PVARFit(
        phi=phi,
        mu=mu,
        residuals=resid.reshape(n, t - p, m),
        sigma=(sigma + sigma.T) / 2.0,
        spec=spec,
        effective_obs=eff,
        intercepts=intercepts,
        dummy_coef=dummy_coef,
    )


def companion(fit: PVARFit) -> CompanionMatrix:
    """Stack the slope matrices into the VAR(1) companion form."""
    m = fit.n_vars
    p = fit.spec.lag_order
    out = np.zeros((m * p, m * p))
    out[:m, :] = np.hstack(fit.phi)
    if p > 1:
        out[m:, :-m] = np.eye(m * (p - 1))
    return CompanionMatrix(out, m, p)
