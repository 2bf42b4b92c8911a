"""Exposure mappings and spillover-adjusted impact estimation.

When treatments leak across a known network, the recursive impact
coefficient mixes the total effect on the treated (ATTE) with the pure
spillover effect on the treated (ASTE): its probability limit is
ATTE - ASTE.  Regressing the outcome residual on the policy residual and
an exposure regressor that is zero on treated cells separates the two:
the policy coefficient absorbs the full treated-cell mean and recovers
ATTE, while the exposure coefficient prices the spillover reaching
untreated neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadConfig,
    BootstrapUnstable,
    CollinearRegressors,
    EmptyTreatedSet,
    NonFinite,
    RegimeMismatch,
)
from .panel import CHUNK_BYTES
from .scenarios import (
    BINARY_ANY_NEIGHBOR,
    TREATED_NEIGHBOR_SHARE,
    PotentialOutcomePanel,
    ScenarioConfig,
    build_exposure,
)
from .workers import in_shares

__all__ = [
    "SpilloverFit",
    "build_exposure",
    "spillover_regression",
    "estimate_adjusted_impact",
    "oracle_atte_aste",
    "verify_interference",
    "TREATED_NEIGHBOR_SHARE",
    "BINARY_ANY_NEIGHBOR",
]


@dataclass(frozen=True)
class SpilloverFit:
    """Two-regressor fit of outcome residuals on policy residual and exposure.

    ``n_dropped`` counts the bootstrap draws whose Gram matrix failed the
    collinearity guard; the standard errors use the rest.
    """

    delta: float
    rho: float
    se_delta: float | None
    se_rho: float | None
    n_reps: int
    seed: int | None
    degenerate_exposure: bool = False
    drift_adjusted: bool = False
    n_dropped: int = 0


def _drop_drift(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """``x`` less its mean, if that mean exceeds 1e-8 of the root mean square
    of ``x``, and whether it did: a threshold in the series' own units."""
    mean = x.mean()
    if abs(mean) > 1e-8 * np.sqrt(np.mean(x * x)):
        return x - mean, True
    return x, False


def spillover_regression(
    policy_residuals,
    outcome_residuals,
    exposure,
    n_reps: int = 200,
    seed: int | None = None,
) -> SpilloverFit:
    """No-intercept least squares of outcome residuals on (policy, exposure).

    The three series must align (else BadConfig) and be finite (else
    NonFinite, naming the series).  Residual inputs are expected mean-zero;
    a policy or outcome mean above 1e-8 of that series' root mean square is
    subtracted and flagged.  The exposure regressor is used as given; only
    an all-zero exposure is degenerate (dropped, rho 0, flagged), so rho
    carries the exposure's units at any scale.  Standard errors come from an
    i.i.d. cell bootstrap with ``n_reps`` replications (skipped when
    n_reps = 0), draw r from child r of ``SeedSequence(seed)``; draws that
    cannot be fitted are dropped and counted, and BootstrapUnstable is
    raised when fewer than two remain.  The draws run in chunks of about
    ``CHUNK_BYTES`` of resampled indices, shared among forked workers as
    ``bootstrap_irf``'s chunks are, and are joined in draw
    order before the one batched solve, so the standard errors do not
    depend on the number of processes.
    """
    w = np.asarray(policy_residuals, dtype=float).ravel()
    y = np.asarray(outcome_residuals, dtype=float).ravel()
    s = np.asarray(exposure, dtype=float).ravel()
    if not (w.size == y.size == s.size):
        raise BadConfig("policy, outcome, and exposure series must align")
    for name, x in (("policy residual", w), ("outcome residual", y), ("exposure", s)):
        if not np.isfinite(x).all():
            raise NonFinite(f"{name} has a non-finite value")
    (w, w_drift), (y, y_drift) = _drop_drift(w), _drop_drift(y)
    drift = w_drift or y_drift

    if n_reps < 0:
        raise BadConfig(f"n_reps must be non-negative, got {n_reps}")
    if n_reps > 0 and seed is None:
        raise BadConfig("bootstrap standard errors need a seed")
    degenerate = not s.any()
    prods = np.stack([w * w, w * s, s * s, w * y, s * y])
    # draws per chunk: about CHUNK_BYTES of resampled indices
    per_chunk = max(1, CHUNK_BYTES // (8 * w.size))

    def share(first: int, stop: int) -> np.ndarray:
        """The sums of the cells that each draw of chunks first..stop - 1 resampled."""
        draws = range(first * per_chunk, min(stop * per_chunk, n_reps))
        sums = np.empty((len(draws), 5))
        for i, r in enumerate(draws):
            # child r of SeedSequence(seed)
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
            idx = rng.integers(0, w.size, size=w.size)
            sums[i] = prods @ np.bincount(idx, minlength=w.size)
        return sums

    # row 0 fits the point estimate, row r the cells that draw r - 1 resampled
    sums = np.concatenate([prods.sum(axis=1)[None], *in_shares(share, -(-n_reps // per_chunk))])
    coef, ok = _two_regressor_ols(sums, degenerate)
    if not ok[0]:
        why = "has zero variance" if degenerate else "and exposure are collinear"
        raise CollinearRegressors(f"policy residual {why}")
    coef, draws = coef[0], coef[1:][ok[1:]]
    n_dropped = n_reps - len(draws)
    se_delta = se_rho = None
    if n_reps > 0:
        if len(draws) < 2:
            raise BootstrapUnstable(
                f"{len(draws)} of {n_reps} bootstrap draws fitted; standard errors need 2"
            )
        se_delta, se_rho = (float(draws[:, j].std(ddof=1)) for j in (0, 1))

    return SpilloverFit(
        delta=float(coef[0]),
        rho=float(coef[1]),
        se_delta=se_delta,
        se_rho=se_rho,
        n_reps=n_reps,
        seed=seed,
        degenerate_exposure=bool(degenerate),
        drift_adjusted=drift,
        n_dropped=n_dropped,
    )


def _two_regressor_ols(sums: np.ndarray, degenerate: bool):
    """Batched no-intercept OLS of y on (w, s) from (b, 5) sums of w w, w s, s s, w y, s y.

    Returns (b, 2) coefficients and ``ok``, False (and the row NaN) where a
    regressor has no variation or the Gram matrix, scaled to a unit
    diagonal, has condition number above 1e10, so that the rule does not
    depend on the regressors' units.  A ``degenerate`` exposure is dropped:
    the Gram matrix becomes diag(w w, w w) and rho is 0.
    """
    ww, ws, ss, wy, sy = sums.T
    if degenerate:
        ws, ss, sy = np.zeros_like(ws), ww, np.zeros_like(sy)
    gram = np.stack([ww, ws, ws, ss], axis=1).reshape(-1, 2, 2)
    ok = (ww > 0) & (ss > 0)
    # scaled to a unit diagonal the Gram matrix is [[1, c], [c, 1]], with
    # condition number (1 + |c|) / (1 - |c|)
    corr = np.abs(ws[ok]) / np.sqrt(ww[ok] * ss[ok])
    ok[ok] = 1.0 + corr <= 1e10 * (1.0 - corr)
    coef = np.full((len(ok), 2), np.nan)
    coef[ok] = np.linalg.solve(gram[ok], np.stack([wy, sy], axis=1)[ok, :, None])[:, :, 0]
    return coef, ok


def oracle_atte_aste(pop: PotentialOutcomePanel) -> tuple[float, float]:
    """Total and spillover effects on the treated, from the structural form.

    ATTE averages po(1, s) - po(0, 0) = scale * (g(1) - g(0)) + rho * s over
    treated cells at their realized exposure s; ASTE averages
    po(0, s) - po(0, 0) = rho * s over the same cells.
    """
    if pop.exposure is None:
        raise RegimeMismatch("potential-outcome panel carries no exposure truth")
    treated = pop.assignments == 1.0
    if not treated.any():
        raise EmptyTreatedSet("no treated cells")
    spill = pop.exposure.rho * pop.exposure.s_values
    own = pop.impact_scale * float(pop.impact(1.0) - pop.impact(0.0))
    atte = float((own + spill)[treated].mean())
    aste = float(spill[treated].mean())
    return atte, aste


def estimate_adjusted_impact(
    fit,
    exposure,
    treatment,
    outcome: int = 1,
    n_reps: int = 0,
    seed: int | None = None,
) -> SpilloverFit:
    """Regress a fitted panel's outcome residual on its policy residual and exposure.

    ``exposure`` is the (n_units, n_times) array of ``build_exposure`` and
    ``treatment`` the 0/1 policy path on the same grid (else BadConfig);
    ``outcome`` is the residual column used as the dependent series, one
    after the policy column 0 (``1 <= outcome < m``, else BadConfig).  The
    regressor is the exposure zeroed out on treated cells, trimmed to the
    fit's sample and within-demeaned per unit like the residuals it sits
    next to; the treated cells' own exposure is deliberately left inside
    the policy coefficient, which therefore targets the total effect on
    the treated.
    """
    treatment = np.asarray(treatment, dtype=float)
    if treatment.ndim != 2 or np.shape(exposure) != treatment.shape:
        raise BadConfig("exposure and treatment must share one (n_units, n_times) grid")
    if not np.isin(treatment, (0.0, 1.0)).all():
        raise BadConfig("treatment indicator must be 0/1")
    resid = fit.residuals
    if not 1 <= outcome < resid.shape[2]:
        raise BadConfig(f"need 1 <= outcome < m, got outcome={outcome}, m={resid.shape[2]}")
    s_reg = (exposure * (1.0 - treatment))[:, fit.spec.lag_order :]
    s_reg = s_reg - s_reg.mean(axis=1, keepdims=True)
    return spillover_regression(
        resid[:, :, 0], resid[:, :, outcome], s_reg, n_reps=n_reps, seed=seed
    )


def verify_interference(config: ScenarioConfig, reps: int = 200):
    """The "interference" check of ``verify.verify_theorem`` on ``config``."""
    from .verify import verify_theorem  # verify imports this module

    return verify_theorem("interference", config, reps)
