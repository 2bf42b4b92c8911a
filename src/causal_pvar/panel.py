"""Panel data model and fixed-effects (within) estimation of a panel VAR.

The data model is a balanced (unit, time, variable) array with the policy
series stored first and the outcome series after them, and the sorted
unit and time labels of the records it was built from.  Estimation removes
unit effects (and optional exogenous dummies) by residualizing, regresses
each variable on its own and the others' lags pooled across units, and
returns slope matrices, unit effects, residuals, and the residual
covariance matrix.  The lag design is never built: one moments kernel
centres each unit once and reads every block of the within cross-product,
and the residuals, from lag-shifted views of that copy, for one panel or a
chunk of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
# Panel bytes per chunk of the Monte-Carlo engine, at least one replication
# per chunk: its working set, each replication's draw and state with the
# burn-in, is a few times this for any number of replications.  The
# bootstrap holds two panels per replication, its state slab and centring
# buffer, and takes twice this, a working set of about 4 x CHUNK_BYTES; a
# chunk keeps only each replication's within cross-products, which are
# solved, factored and propagated once per call, so the chunking does not
# change the bands.
CHUNK_BYTES = 512 * 1024

__all__ = [
    "PanelDataset",
    "PVARSpec",
    "PVARFit",
    "panel_from_records",
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
    unit_labels, time_labels : ndarray, optional, shapes (n_units,), (n_times,)
        The sorted unit and time labels of the input records, which the
        written artifacts carry; 1..n_units and 1..n_times by default.

    Building a panel checks it: BadOrdering if the values are not 3-D, m < 2
    or the labels, names, K or dummies do not fit; NonFinite on a NaN or
    infinite value, named by unit, time and variable (an all-NaN cell
    included), or dummy.  An array mutated in place is not checked again.
    """

    values: np.ndarray
    n_policies: int
    variable_names: tuple[str, ...]
    exogenous_dummies: np.ndarray | None = None
    unit_labels: np.ndarray | None = None
    time_labels: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "variable_names", tuple(self.variable_names))
        if vals.ndim != 3:
            raise BadOrdering(f"values must be (unit, time, variable), got ndim={vals.ndim}")
        for name, size in zip(("unit_labels", "time_labels"), vals.shape):
            labels = getattr(self, name)
            object.__setattr__(self, name, np.arange(1, size + 1) if labels is None
                               else np.asarray(labels))
        units, times = self.unit_labels, self.time_labels
        if (len(units), len(times)) != vals.shape[:2]:
            raise BadOrdering("one unit label per unit and one time label per period")
        finite = np.isfinite(vals)
        if not finite.all():
            bad = np.argwhere(~finite)[0]
            raise NonFinite(
                f"non-finite value at (unit={units[bad[0]]}, time={times[bad[1]]}, "
                f"variable={bad[2] + 1})"
            )
        m = vals.shape[2]
        if m < 2:
            raise BadOrdering(f"need at least 2 variables, got m={m}")
        if not 0 <= self.n_policies <= m - 1:
            raise BadOrdering(f"need K + J = m with J >= 1: K={self.n_policies}, m={m}")
        if len(self.variable_names) != m:
            raise BadOrdering(f"{len(self.variable_names)} variable names for {m} variables")
        if self.exogenous_dummies is not None:
            dummies = np.asarray(self.exogenous_dummies, dtype=float)
            object.__setattr__(self, "exogenous_dummies", dummies)
            if dummies.ndim != 3 or dummies.shape[:2] != vals.shape[:2]:
                raise BadOrdering("exogenous_dummies must share the (unit, time) grid")
            if not np.isfinite(dummies).all():
                raise NonFinite("non-finite exogenous dummy value")

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


def panel_from_records(units, times, values, n_policies, variable_names=None):
    """Assemble a PanelDataset from long-format records.

    ``units``/``times`` are per-row labels, in any order, and ``values``
    the per-row variable vectors; the panel keeps the sorted labels.
    Raises UnbalancedPanel on the first (unit, time) cell, in label order,
    that more than one record fills, then on the first cell that no record
    fills, and on the first missing period when the sorted time labels are
    not equally spaced (a period absent for every unit).  A record present
    with NaN or infinite values raises NonFinite when the panel is built.
    """
    units = np.asarray(units)
    times = np.asarray(times)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or len(units) != len(times) or len(units) != values.shape[0]:
        raise BadOrdering("records must align: one (unit, time, value-row) per line")
    unit_ids, unit_idx = np.unique(units, return_inverse=True)
    time_ids, time_idx = np.unique(times, return_inverse=True)
    n, t, m = len(unit_ids), len(time_ids), values.shape[1]
    counts = np.bincount(unit_idx * t + time_idx, minlength=n * t)
    for problem, bad in (("repeated", counts > 1), ("missing", counts == 0)):
        if bad.any():
            i, j = divmod(int(bad.argmax()), t)
            raise UnbalancedPanel(unit_ids[i], time_ids[j], problem)
    out = np.full((n, t, m), np.nan)
    out[unit_idx, time_idx] = values
    step = np.diff(time_ids)
    if step.size and (gap := step != step.min()).any():
        raise UnbalancedPanel(unit_ids[0], time_ids[gap.argmax()] + step.min())
    if variable_names is None:
        variable_names = tuple(f"v{k + 1}" for k in range(m))
    return PanelDataset(out, n_policies, variable_names,
                        unit_labels=unit_ids, time_labels=time_ids)


def _sample_dummies(panel: PanelDataset, spec: PVARSpec, drop: int):
    """The spec's raw (n, T - drop, d) dummy block on periods drop+1..T and its
    per-unit demeaned ((T - drop) * n, d) rows, time-major; (None, None) without."""
    if not spec.dummy_columns:
        return None, None
    if panel.exogenous_dummies is None:
        raise BadConfig("spec names dummy_columns but panel has no dummies")
    raw = panel.exogenous_dummies[:, drop:, list(spec.dummy_columns)]
    flat = (raw - raw.mean(axis=1, keepdims=True)).transpose(1, 0, 2)
    return raw, flat.reshape(-1, raw.shape[2])


def within_demean(panel: PanelDataset, spec: PVARSpec | None = None) -> PanelDataset:
    """Remove unit effects (and optional dummy effects) from every series.

    Each (unit, variable) series has mean zero afterwards.  When the spec
    names dummy columns, the dummies are partialled out jointly with the
    unit means (Frisch-Waugh: both the series and the dummies are demeaned
    per unit first, then the dummy projection is removed).
    """
    spec = spec or PVARSpec()
    _, dummies = _sample_dummies(panel, spec, 0)
    _, proj, (vals,), _, _ = _within_moments(panel.values.transpose(1, 0, 2)[:, None], 0, dummies)
    if proj is not None:
        vals = vals - proj[0].T @ dummies.T
    vals = vals[0].reshape(panel.n_vars, panel.n_times, panel.n_units).transpose(2, 1, 0)
    return replace(panel, values=vals)


def _within_moments(states: np.ndarray, p: int, dummies: np.ndarray | None = None,
                    out: np.ndarray | None = None):
    """Within moments of Z = [lags 1..p, dep] on periods p+1..t of b time-major
    (t, b, n, m) panels, lags never wrapped, without building Z.

    Each unit is centred once, by a copy into ``out`` (b, m, t, n) and a
    subtraction.  Each lag of Z is then a view of m time-major rows, so an
    off-diagonal block of Z'Z is a product of views and a diagonal one the
    Gram matrix of all t periods less that of the at most p edge periods
    outside the window; both less ``(t - p) sum_units w w'`` over the window
    means w, minus the edges' sum over t - p as the centred series sum to zero.
    With per-unit demeaned, time-major dummy rows D, ``Z'D (D'D)^-1 D'Z`` is
    subtracted (Frisch-Waugh).

    Returns ``(cross, proj, rows, means, unit_means)``: the (b, q, q) Z'Z; the
    (b, d, q) ``(D'D)^-1 D'Z`` or None; the (b, m, (t - p) n) views of lags
    1..p and dep; the (b, q, n) window means; and the (b, m, n) unit means.
    A non-finite panel yields a non-finite Z'Z.
    """
    t, b, n, m = states.shape
    if p and t - p < m * p + 2:
        raise InsufficientObs(f"need T - p >= m*p + 2 per unit: T={t}, m={m}, p={p}")
    unit_means = states.sum(axis=0).transpose(0, 2, 1) / t
    centred = np.empty((b, m, t, n)) if out is None else out
    np.copyto(centred, states.transpose(1, 3, 0, 2))
    centred -= unit_means[:, :, None]
    lags = (*range(1, p + 1), 0)
    rows = [centred[:, :, p - l : t - l].reshape(b, m, -1) for l in lags]
    # numpy hands x @ x.T to BLAS syrk, which at a few rows and thousands of
    # columns is 2-3x slower than a gemv and a gemm on the first row and the rest
    flat = centred.reshape(b, m, -1)
    whole = np.concatenate([flat @ flat[:, :1].transpose(0, 2, 1),
                            flat @ flat[:, 1:].transpose(0, 2, 1)], axis=2)
    cross, means = np.empty((b, m * (p + 1), m * (p + 1))), np.empty((b, m * (p + 1), n))
    for i, l in enumerate(lags):
        at = slice(i * m, (i + 1) * m)
        edges = centred[:, :, [*range(p - l), *range(t - l, t)]]
        means[:, at] = edges.sum(axis=2)
        edges = edges.reshape(b, m, -1)
        cross[:, at, at] = whole - edges @ edges.transpose(0, 2, 1)
        for j in range(i):
            cross[:, j * m : (j + 1) * m, at] = rows[j] @ rows[i].transpose(0, 2, 1)
            cross[:, at, j * m : (j + 1) * m] = cross[:, j * m : (j + 1) * m, at].transpose(0, 2, 1)
    means /= -(t - p)
    cross -= (t - p) * (means @ means.transpose(0, 2, 1))
    proj = None
    if dummies is not None:
        gram = dummies.T @ dummies
        if np.abs(gram).max() < 1e-12:
            raise DegenerateDummy("dummy columns are collinear with the unit means")
        if np.linalg.cond(gram) > 1e12:
            raise DegenerateDummy("dummy columns are mutually collinear after demeaning")
        dz = np.concatenate([r @ dummies for r in rows], axis=1).transpose(0, 2, 1)
        proj = np.linalg.solve(gram, dz)
        cross -= dz.transpose(0, 2, 1) @ proj
    return cross, proj, rows, means, unit_means


def _within_resid(rows, means: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Residuals ``Z beta`` of ``beta = [-coef; I]``, as (..., m, (t - p) n) time-major
    rows, from ``_within_moments``' lag views (dep last) and window means."""
    m, n = rows[-1].shape[-2], means.shape[-1]
    beta_t = np.swapaxes(beta, -1, -2)
    resid = rows[-1].reshape(*rows[-1].shape[:-1], -1, n) - (beta_t @ means)[..., None, :]
    resid = resid.reshape(rows[-1].shape)
    for l, lag in enumerate(rows[:-1]):
        resid += beta_t[..., l * m : (l + 1) * m] @ lag
    return resid


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
    p = spec.lag_order
    n, t, m = panel.values.shape
    if p >= t - 1:
        raise BadConfig(f"lag_order={p} too large for T={t}")
    mp, eff = m * p, n * (t - p)
    raw_dummies, dummies = _sample_dummies(panel, spec, p)
    cross, proj, rows, means, unit_means = _within_moments(
        panel.values.transpose(1, 0, 2)[:, None], p, dummies)
    coef, _ = _within_ols_one(cross[0], mp, eff)

    # Z [-coef; I] = dep - lags coef: on the rows, the window means and the
    # dummy projection it gives the joint regression's residuals, intercepts and dummy_coef
    beta = np.vstack([-coef, np.eye(m)])
    resid = _within_resid([r[0] for r in rows], means[0], beta).T
    intercepts = (means[0] + np.tile(unit_means[0], (p + 1, 1))).T @ beta
    dummy_coef = None
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
        residuals=resid.reshape(t - p, n, m).transpose(1, 0, 2).copy(),
        sigma=(sigma + sigma.T) / 2.0,
        spec=spec,
        effective_obs=eff,
        intercepts=intercepts,
        dummy_coef=dummy_coef,
    )


def _var_recursion(states: np.ndarray, phi) -> np.ndarray:
    """Run VAR(p) dynamics in place over time-major (T, N, m) ``states``.

    On entry ``states[:p]`` holds the p initial states and ``states[p:]`` the
    innovations, intercepts included.  On return ``states[s]`` is
    ``innovation_s + states[s - 1] @ phi[0].T + ... + states[s - p] @ phi[p - 1].T``,
    summed in that order, for s >= p.  In the stacked form, (T, b, 1, m)
    states are b separate systems and each ``phi[l]`` is one (m, m) slope
    matrix shared by all of them or a (b, m, m) stack, one per system.
    """
    # C-ordered copies multiply 1.7-2.6x faster than the transposed views; a
    # one-row product keeps the views, which BLAS rounds differently in the
    # last bit
    one_row = states.shape[-2] == 1
    phi_t = [np.swapaxes(f, -1, -2) for f in phi]
    phi_t = phi_t if one_row else [np.ascontiguousarray(f) for f in phi_t]
    rows, step = list(states), np.empty(states.shape[1:])
    for s in range(len(phi_t), len(rows)):
        for l, f in enumerate(phi_t, 1):
            rows[s] += np.matmul(rows[s - l], f, out=step)
    return states


def companion(fit: PVARFit) -> np.ndarray:
    """The (mp, mp) VAR(1) companion form: stacked slopes over identity blocks."""
    m = fit.n_vars
    p = fit.spec.lag_order
    out = np.zeros((m * p, m * p))
    out[:m, :] = np.hstack(fit.phi)
    if p > 1:
        out[m:, :-m] = np.eye(m * (p - 1))
    return out
