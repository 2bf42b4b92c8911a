"""Lag-order selection and residual diagnostics.

Covers the three checks a recursive panel-VAR analysis leans on: log-det
information criteria on a common sample for lag choice, residual
cross-autocorrelation against a sampling bound, and the spectral radius of
the companion matrix for stationarity.  A small distribution probe on the
policy residuals helps decide which causal regime the data resembles
(binary, Gaussian, or zero-inflated non-negative).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import BadConfig
from .panel import PanelDataset, PVARFit, _within_moments, _within_ols_one, companion

__all__ = [
    "LagSelectionTable",
    "AutocorrDiagnostic",
    "StationarityDiagnostic",
    "PolicyProbe",
    "lag_criteria",
    "residual_autocorr",
    "stationarity",
    "policy_regime_probe",
]

CRITERIA = ("bic_like", "aic_like", "hq_like")


@dataclass(frozen=True)
class LagSelectionTable:
    """Information-criterion values per candidate lag order.

    All candidates are fitted on the common sample t > pmax so the
    criteria are comparable; ``chosen[c]`` is the argmin per criterion
    with ties broken toward the smaller order.
    """

    lags: np.ndarray
    bic_like: np.ndarray
    aic_like: np.ndarray
    hq_like: np.ndarray
    chosen: dict


@dataclass(frozen=True)
class AutocorrDiagnostic:
    """Residual cross-correlation tensor corr(x_j,t , x_l,t-s), s = 1..smax.

    ``violated`` is set when any entry exceeds ``bound``, a two-sided 5%
    normal bound adjusted for the number of entries tested (about
    2.5/sqrt(effective_obs) for a handful of comparisons).
    """

    tensor: np.ndarray
    bound: float
    violated: bool
    effective_obs: int


@dataclass(frozen=True)
class StationarityDiagnostic:
    spectral_radius: float
    stationary: bool


@dataclass(frozen=True)
class PolicyProbe:
    """Distribution probe of a policy residual series."""

    is_binary: bool
    share_zero: float
    skewness: float
    excess_kurtosis: float
    normality_stat: float


def lag_criteria(panel: PanelDataset, pmax: int) -> LagSelectionTable:
    """Fit p = 1..pmax on the common sample and score each with three criteria.

    The within cross-product of the pmax lags is built once and order p is
    solved from its leading m p lags, so every fit shares the sample
    t > pmax and the rule of SingularDesign; InsufficientObs is raised
    unless T - pmax >= m pmax + 2.  Each fit is scored by
    ln det(Sigma_p) plus a penalty in the number of slope parameters m^2 p:

    - bic_like: (m^2 p / eff) * ln(eff)
    - aic_like: 2 m^2 p / eff
    - hq_like:  (2 m^2 p / eff) * ln(ln(eff))

    with eff = N * (T - pmax).  The penalties are strictly increasing in p,
    so ranking differences across p come from the fit improvement alone.
    """
    if pmax < 1:
        raise BadConfig("pmax must be >= 1")
    n, t, m = panel.values.shape
    eff = n * (t - pmax)
    cross = _within_moments(panel.values.transpose(1, 0, 2)[:, None], pmax)[0]
    rows = {c: np.empty(pmax) for c in CRITERIA}
    for p in range(1, pmax + 1):
        keep = np.r_[: m * p, m * pmax : m * pmax + m]  # lags 1..p and dep
        _, sigma = _within_ols_one(cross[0][np.ix_(keep, keep)], m * p, eff)
        sign, logdet = np.linalg.slogdet(sigma)
        if sign <= 0:
            logdet = -np.inf
        k = m * m * p / eff
        rows["bic_like"][p - 1] = logdet + k * np.log(eff)
        rows["aic_like"][p - 1] = logdet + 2.0 * k
        rows["hq_like"][p - 1] = logdet + 2.0 * k * np.log(np.log(eff))
    chosen = {c: int(np.argmin(rows[c])) + 1 for c in CRITERIA}
    return LagSelectionTable(
        lags=np.arange(1, pmax + 1),
        bic_like=rows["bic_like"],
        aic_like=rows["aic_like"],
        hq_like=rows["hq_like"],
        chosen=chosen,
    )


def residual_autocorr(fit: PVARFit, smax: int) -> AutocorrDiagnostic:
    """Cross-correlations of residuals with their lags, within unit.

    Needs 1 <= smax < T - p, the length of each unit's residual series, so
    that every lag has a pair of periods to correlate.  Zero-variance series
    define correlations as 0 rather than NaN; any other series is
    correlated, in any units.
    """
    res = fit.residuals
    n, tr, m = res.shape
    if not 1 <= smax < tr:
        raise BadConfig(f"smax={smax} must be in [1, T - p) = [1, {tr})")
    tensor = np.zeros((m, m, smax))
    for s in range(1, smax + 1):
        cur = res[:, s:, :].reshape(-1, m)
        lag = res[:, :-s, :].reshape(-1, m)
        cur = cur - cur.mean(axis=0)
        lag = lag - lag.mean(axis=0)
        sd_cur = np.sqrt((cur**2).mean(axis=0))
        sd_lag = np.sqrt((lag**2).mean(axis=0))
        cross = cur.T @ lag / cur.shape[0]
        denom = np.outer(sd_cur, sd_lag)
        tensor[:, :, s - 1] = np.divide(cross, denom, out=np.zeros_like(cross),
                                        where=denom > 0)
    n_tests = m * m * smax
    z = NormalDist().inv_cdf(1.0 - 0.05 / (2 * n_tests))
    bound = z / np.sqrt(fit.effective_obs)
    violated = bool(np.abs(tensor).max() > bound)
    return AutocorrDiagnostic(tensor, float(bound), violated, fit.effective_obs)


def stationarity(fit: PVARFit) -> StationarityDiagnostic:
    """Spectral radius of the companion matrix: its largest eigenvalue modulus.

    The companion matrix is only mp x mp, so the eigenvalues are computed
    directly; the fit is stationary when the radius is below one.
    """
    radius = float(np.abs(np.linalg.eigvals(companion(fit))).max())
    return StationarityDiagnostic(radius, radius < 1.0)


def policy_regime_probe(series: np.ndarray) -> PolicyProbe:
    """Probe the distribution of a policy residual series.

    Reports whether the demeaned series takes at most two distinct values
    (to 1e-10 of its own root mean square, so in any units), the share of
    exact zeros, sample skewness and excess kurtosis, and the
    skewness/kurtosis normality statistic n * (skew^2/6 + exkurt^2/24),
    asymptotically chi-squared with 2 degrees of freedom under normality.
    A constant series is binary with zero moments.
    """
    x = np.asarray(series, dtype=float).ravel()
    n = x.size
    if n < 30:
        raise BadConfig(f"need >= 30 observations, got {n}")
    centered = x - x.mean()
    share_zero = float(np.mean(x == 0.0))
    m2 = float(np.mean(centered**2))
    if np.ptp(x) == 0 or m2 < 1e-300:
        return PolicyProbe(True, share_zero, 0.0, 0.0, 0.0)
    is_binary = np.unique(np.round(centered / np.sqrt(m2), 10)).size <= 2
    skew = float(np.mean(centered**3) / m2**1.5)
    exkurt = float(np.mean(centered**4) / m2**2 - 3.0)
    stat = n * (skew**2 / 6.0 + exkurt**2 / 24.0)
    return PolicyProbe(is_binary, share_zero, skew, exkurt, float(stat))
