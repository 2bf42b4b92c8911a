"""Dose-mixing weight functions for continuous policy regimes.

A recursive impact coefficient on a continuous policy averages the local
dose-response derivative with weights set entirely by the policy
distribution.  Every profile has one shape: a density part ``q`` over the
dose grid [d_L, d_U] and a scalar ``q0`` attached to the extensive margin,
with integral(q) + q0 = 1.  For a mean-zero Gaussian policy ``q`` is the
policy density itself and q0 = 0.  For a non-negative policy with a point
mass at zero

    q(lam) = (E[W | W >= lam] - E[W]) P(W >= lam) / var(W)   on [d_L, d_U],
    q0 = (E[W | W > 0] - E[W]) P(W > 0) d_L / var(W),

and q0 = 0 when the policy has no mass at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import AllZeros, BadConfig, GridMismatch, GridTooNarrow
from .estimands import acr_on_grid, acrt_on_grid
from .scenarios import PotentialOutcomePanel

__all__ = [
    "WeightProfile",
    "ZeroInflatedUniform",
    "gaussian_weights",
    "nonneg_weights",
    "weighted_estimand",
]

# Points of the non-negative dose grid, evenly spaced over [d_L, d_U].
_NONNEG_POINTS = 201


@dataclass(frozen=True)
class WeightProfile:
    """Weights over the dose grid plus the scalar extensive-margin weight."""

    grid: np.ndarray
    q: np.ndarray
    q_integral: float
    q0: float


@dataclass(frozen=True)
class ZeroInflatedUniform:
    """Point mass at zero mixed with a uniform positive part on [low, high]."""

    zero_prob: float
    low: float
    high: float

    def __post_init__(self):
        if not (0.0 <= self.zero_prob < 1.0 and 0.0 < self.low <= self.high):
            raise BadConfig("need 0 <= zero_prob < 1 and 0 < low <= high")

    def mean(self) -> float:
        return (1.0 - self.zero_prob) * (self.low + self.high) / 2.0

    def variance(self) -> float:
        lo, hi = self.low, self.high
        return (1.0 - self.zero_prob) * (lo * lo + lo * hi + hi * hi) / 3.0 - self.mean() ** 2

    def prob_ge(self, lam):
        lam = np.asarray(lam, dtype=float)
        if self.high == self.low:
            tail = (lam <= self.low).astype(float)
        else:
            tail = np.clip((self.high - lam) / (self.high - self.low), 0.0, 1.0)
            tail = np.where(lam <= self.low, 1.0, tail)
        return (1.0 - self.zero_prob) * tail

    def partial_mean_ge(self, lam):
        """E[W 1{W >= lam}]."""
        lam = np.asarray(lam, dtype=float)
        if self.high == self.low:
            mass = np.where(lam <= self.low, self.low, 0.0)
            return (1.0 - self.zero_prob) * mass
        cut = np.clip(lam, self.low, self.high)
        mass = (self.high**2 - cut**2) / (2.0 * (self.high - self.low))
        full = (self.low + self.high) / 2.0
        mass = np.where(lam <= self.low, full, mass)
        return (1.0 - self.zero_prob) * mass


def _dose_grid(grid, name: str) -> np.ndarray:
    """``grid`` as floats; BadConfig unless 1-D with at least 2 points, finite
    and strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    if (grid.ndim != 1 or grid.size < 2 or not np.isfinite(grid).all()
            or not (np.diff(grid) > 0).all()):
        raise BadConfig(f"{name} must be finite and strictly increasing")
    return grid


def gaussian_weights(sigma: float, grid) -> WeightProfile:
    """Dose weights for a mean-zero Gaussian policy innovation.

    theta(lam) = E[W 1{W <= lam}] = -sigma^2 f(lam) in closed form, so the
    weights (E[W] F(lam) - theta(lam)) / sigma^2 are the Gaussian density
    itself and q0 = 0.  The grid must capture all but 1e-6 of the
    probability mass.
    """
    if sigma <= 0:
        raise BadConfig("sigma must be positive")
    grid = _dose_grid(grid, "grid")
    law = NormalDist(0.0, sigma)
    mass = law.cdf(grid[-1]) - law.cdf(grid[0])
    if mass < 1.0 - 1e-6:
        raise GridTooNarrow(f"grid captures only {mass:.8f} of the policy mass")
    z = grid / sigma
    q = np.exp(-z * z / 2) / math.sqrt(2 * math.pi) / sigma
    return WeightProfile(
        grid=grid,
        q=q,
        q_integral=float(np.trapezoid(q, grid)),
        q0=0.0,
    )


def nonneg_weights(sample=None, law=None) -> WeightProfile:
    """Dose weights for a non-negative policy, from a sample or a law.

    The positive support is [d_L, d_U], the smallest and largest positive
    values observed (or the law's endpoints), and the weights are taken at
    201 evenly spaced points over it.  ``q_integral`` is computed from
    exact moment identities rather than grid quadrature, so
    q_integral + q0 = 1 holds to machine precision.  When the input has no
    mass at zero, q0 = 0.
    """
    if (sample is None) == (law is None):
        raise BadConfig("pass exactly one of sample= or law=")
    if sample is not None:
        w = np.asarray(sample, dtype=float).ravel()
        if w.size == 0 or (w < 0).any():
            raise BadConfig("sample must be non-negative and non-empty")
        pos = w[w > 0]
        if pos.size == 0:
            raise AllZeros("sample has no positive values")
        d_lo, d_hi = float(pos.min()), float(pos.max())
        ew = float(w.mean())
        var = float(w.var())
        p0 = float(np.mean(w == 0.0))
        if var <= 0:
            raise BadConfig("policy sample has zero variance")
        grid = np.linspace(d_lo, d_hi, _NONNEG_POINTS)
        pos_sorted = np.sort(pos)
        suffix = np.concatenate([np.cumsum(pos_sorted[::-1])[::-1], [0.0]])
        idx = np.searchsorted(pos_sorted, grid, side="left")
        prob_ge = (pos_sorted.size - idx) / w.size
        partial_ge = suffix[idx] / w.size
        q_int = float(
            (np.mean(pos * (pos - d_lo)) * pos.size - ew * np.sum(pos - d_lo)) / (var * w.size)
        )
    else:
        d_lo, d_hi = float(law.low), float(law.high)
        ew = float(law.mean())
        var = float(law.variance())
        p0 = float(law.zero_prob)
        if var <= 0:
            raise BadConfig("policy law has zero variance")
        grid = np.linspace(d_lo, d_hi, _NONNEG_POINTS)
        prob_ge = law.prob_ge(grid)
        partial_ge = law.partial_mean_ge(grid)
        q_int = float(1.0 - ew * p0 * d_lo / var)

    q0 = ew * p0 * d_lo / var
    return WeightProfile(
        grid=grid,
        q=(partial_ge - ew * prob_ge) / var,
        q_integral=q_int,
        q0=float(q0),
    )


def weighted_estimand(profile: WeightProfile, pop: PotentialOutcomePanel, mode: str,
                      curve_grid) -> float:
    """Compose the dose weights with the oracle ACR or ACRT into one scalar.

    ``mode`` picks the curve, computed on ``curve_grid``, a finite and
    strictly increasing dose grid: "acr" (unconditional derivative) or
    "acrt" (derivative conditioned on dose).  The value is the integral of
    q * curve over the profile's grid, plus
    q0 * (mean po(d_L) - mean po(0)) / d_L when q0 is nonzero.  A profile
    grid reaching past ``curve_grid`` raises GridMismatch.
    """
    curve_grid = _dose_grid(curve_grid, "curve_grid")
    grid = profile.grid
    if grid[0] < curve_grid[0] - 1e-9 or grid[-1] > curve_grid[-1] + 1e-9:
        raise GridMismatch("weight grid extends beyond the curve grid")
    if mode == "acr":
        curve = acr_on_grid(pop, curve_grid)
    elif mode == "acrt":
        curve = _fill_nan(acrt_on_grid(pop, curve_grid))
    else:
        raise BadConfig(f"unknown mode {mode!r}")
    value = float(np.trapezoid(profile.q * np.interp(grid, curve_grid, curve), grid))
    if profile.q0 != 0:
        d_lower = float(grid[0])
        gain = float(pop.po_at(d_lower).mean() - pop.po_at(0.0).mean())
        value += profile.q0 * gain / d_lower
    return value


def _fill_nan(values: np.ndarray) -> np.ndarray:
    """Linear-interpolate NaN grid entries (empty realized-dose bins)."""
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    if not bad.any():
        return values
    if bad.all():
        raise GridMismatch("no realized doses on the grid")
    idx = np.arange(values.size)
    out = values.copy()
    out[bad] = np.interp(idx[bad], idx[~bad], values[~bad])
    return out
