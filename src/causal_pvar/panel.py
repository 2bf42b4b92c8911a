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
    input panel by ``spec.lag_order + sample_offset`` periods.
    """

    phi: tuple[np.ndarray, ...]
    mu: np.ndarray
    residuals: np.ndarray
    sigma: np.ndarray
    spec: PVARSpec
    effective_obs: int
    intercepts: np.ndarray = field(repr=False, default=None)
    dummy_coef: np.ndarray | None = field(repr=False, default=None)
    sample_offset: int = 0

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
    (unit, time) combination.
    """
    units = np.asarray(units)
    times = np.asarray(times)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or len(units) != len(times) or len(units) != values.shape[0]:
        raise BadOrdering("records must align: one (unit, time, value-row) per line")
    unit_ids = np.unique(units)
    time_ids = np.unique(times)
    n, t, m = len(unit_ids), len(time_ids), values.shape[1]
    out = np.full((n, t, m), np.nan)
    u_idx = {u: i for i, u in enumerate(unit_ids)}
    t_idx = {s: i for i, s in enumerate(time_ids)}
    for u, s, row in zip(units, times, values):
        out[u_idx[u], t_idx[s]] = row
    missing = np.isnan(out).all(axis=2)
    if missing.any():
        i, j = np.argwhere(missing)[0]
        raise UnbalancedPanel(unit_ids[i], time_ids[j])
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


def _partial_out_dummies(columns: np.ndarray, dummies: np.ndarray):
    """Residualize pooled columns on already-demeaned dummy regressors."""
    gram = dummies.T @ dummies
    scale = np.abs(gram).max()
    if scale < 1e-12:
        raise DegenerateDummy("dummy columns are collinear with the unit means")
    if np.linalg.cond(gram) > 1e12:
        raise DegenerateDummy("dummy columns are mutually collinear after demeaning")
    coef = np.linalg.solve(gram, dummies.T @ columns)
    return columns - dummies @ coef, coef


def within_demean(panel: PanelDataset, spec: PVARSpec | None = None) -> PanelDataset:
    """Remove unit effects (and optional dummy effects) from every series.

    Each (unit, variable) series has mean zero afterwards.  When the spec
    names dummy columns, the dummies are partialled out jointly with the
    unit means (Frisch-Waugh: both the series and the dummies are demeaned
    per unit first, then the dummy projection is removed).
    """
    spec = spec or PVARSpec()
    vals = panel.values - panel.values.mean(axis=1, keepdims=True)
    if spec.dummy_columns:
        if panel.exogenous_dummies is None:
            raise BadConfig("spec names dummy_columns but panel has no dummies")
        dmat = panel.exogenous_dummies[:, :, list(spec.dummy_columns)]
        dmat = dmat - dmat.mean(axis=1, keepdims=True)
        n, t, m = vals.shape
        flat, _ = _partial_out_dummies(
            vals.reshape(n * t, m), dmat.reshape(n * t, -1)
        )
        vals = flat.reshape(n, t, m)
    return PanelDataset(vals, panel.n_policies, panel.variable_names, panel.exogenous_dummies)


def fit_pvar(panel: PanelDataset, spec: PVARSpec, *, drop_initial: int | None = None) -> PVARFit:
    """Within-OLS fit of the panel VAR.

    Lags are built within unit only; the first ``drop_initial`` periods per
    unit (default: the lag order) are dropped, never wrapped.  Slopes come
    from pooled OLS of the demeaned series on their demeaned lags; the
    residual covariance uses the divisor N * (T - drop_initial) with no
    small-sample correction.

    Parameters
    ----------
    drop_initial : int, optional
        Number of initial periods excluded per unit.  Passing a value
        larger than the lag order fits on a common subsample, which keeps
        information criteria comparable across lag orders.
    """
    validate_panel(panel)
    p = spec.lag_order
    n, t, m = panel.values.shape
    drop = p if drop_initial is None else drop_initial
    if drop < p:
        raise BadConfig(f"drop_initial={drop} below lag_order={p}")
    if p >= t - 1:
        raise BadConfig(f"lag_order={p} too large for T={t}")
    if (t - drop) < m * p + 2:
        raise InsufficientObs(
            f"need T - drop >= m*p + 2 per unit: T={t}, drop={drop}, m={m}, p={p}"
        )

    vals = panel.values
    dep = vals[:, drop:, :]                                   # (n, tr, m)
    lags = np.concatenate(
        [vals[:, drop - l : t - l, :] for l in range(1, p + 1)], axis=2
    )                                                         # (n, tr, m*p)
    tr = t - drop

    dep_c = dep - dep.mean(axis=1, keepdims=True)
    lags_c = lags - lags.mean(axis=1, keepdims=True)

    dummy_coef = None
    if spec.dummy_columns:
        if panel.exogenous_dummies is None:
            raise BadConfig("spec names dummy_columns but panel has no dummies")
        dmat = panel.exogenous_dummies[:, drop:, list(spec.dummy_columns)]
        dmat = dmat - dmat.mean(axis=1, keepdims=True)
        dflat = dmat.reshape(n * tr, -1)
        dep_flat, dummy_coef = _partial_out_dummies(dep_c.reshape(n * tr, m), dflat)
        lag_flat, _ = _partial_out_dummies(lags_c.reshape(n * tr, m * p), dflat)
    else:
        dep_flat = dep_c.reshape(n * tr, m)
        lag_flat = lags_c.reshape(n * tr, m * p)

    coef, _, rank, _ = np.linalg.lstsq(lag_flat, dep_flat, rcond=None)
    if rank < m * p:
        raise SingularDesign(
            f"lag regressor Gram matrix has rank {rank} < {m * p}"
        )
    resid_flat = dep_flat - lag_flat @ coef
    residuals = resid_flat.reshape(n, tr, m)
    eff = n * tr
    sigma = resid_flat.T @ resid_flat / eff
    sigma = (sigma + sigma.T) / 2.0

    phi = tuple(coef[(l * m) : (l + 1) * m, :].T.copy() for l in range(p))

    # Per-unit intercepts on the raw scale, then back out the unit means.
    fitted_dyn = np.einsum("ntq,qm->ntm", lags, coef)
    adj = dep - fitted_dyn
    if spec.dummy_columns and dummy_coef is not None:
        raw_dmat = panel.exogenous_dummies[:, drop:, list(spec.dummy_columns)]
        adj = adj - np.einsum("ntd,dm->ntm", raw_dmat, dummy_coef)
    intercepts = adj.mean(axis=1)                              # (n, m)
    phi_sum = np.eye(m) - sum(phi)
    try:
        mu = np.linalg.solve(phi_sum, intercepts.T).T
    except np.linalg.LinAlgError:
        mu = np.linalg.lstsq(phi_sum, intercepts.T, rcond=None)[0].T

    return PVARFit(
        phi=phi,
        mu=mu,
        residuals=residuals,
        sigma=sigma,
        spec=spec,
        effective_obs=eff,
        intercepts=intercepts,
        dummy_coef=dummy_coef,
        sample_offset=drop,
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
