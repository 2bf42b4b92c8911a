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

from .errors import BadConfig, CollinearRegressors, NoTreatedCells, RegimeMismatch
from .scenarios import (
    BINARY_ANY_NEIGHBOR,
    TREATED_NEIGHBOR_SHARE,
    ExposureMap,
    PotentialOutcomePanel,
    build_exposure,
)

__all__ = [
    "ExposureMap",
    "SpilloverFit",
    "build_exposure",
    "spillover_regression",
    "estimate_adjusted_impact",
    "oracle_atte_aste",
    "TREATED_NEIGHBOR_SHARE",
    "BINARY_ANY_NEIGHBOR",
]


@dataclass(frozen=True)
class SpilloverFit:
    """Two-regressor fit of outcome residuals on policy residual and exposure."""

    delta: float
    rho: float
    se_delta: float | None
    se_rho: float | None
    n_reps: int
    seed: int | None
    degenerate_exposure: bool = False
    drift_adjusted: bool = False


def spillover_regression(
    policy_residuals,
    outcome_residuals,
    exposure,
    n_reps: int = 200,
    seed: int | None = None,
) -> SpilloverFit:
    """No-intercept least squares of outcome residuals on (policy, exposure).

    Residual inputs are expected mean-zero; any drift above 1e-8 in the
    policy or outcome series is subtracted and flagged.  The exposure
    regressor is used as given.  Standard errors come from an i.i.d. cell
    bootstrap with ``n_reps`` replications (skipped when n_reps = 0).
    """
    w = np.asarray(policy_residuals, dtype=float).ravel()
    y = np.asarray(outcome_residuals, dtype=float).ravel()
    s = np.asarray(exposure, dtype=float).ravel()
    if not (w.size == y.size == s.size):
        raise BadConfig("policy, outcome, and exposure series must align")
    drift = False
    if abs(w.mean()) > 1e-8:
        w = w - w.mean()
        drift = True
    if abs(y.mean()) > 1e-8:
        y = y - y.mean()
        drift = True

    degenerate = float(s @ s) / s.size < 1e-20
    if degenerate:
        denom = float(w @ w)
        if denom <= 0:
            raise CollinearRegressors("policy residual has zero variance")
        coef = np.array([float(w @ y) / denom, 0.0])
    else:
        coef = _two_regressor_ols(w, y, s)

    if n_reps > 0:
        if seed is None:
            raise BadConfig("bootstrap standard errors need a seed")
        children = np.random.SeedSequence(seed).spawn(n_reps)
        draws = np.empty((n_reps, 2))
        n = w.size
        for r in range(n_reps):
            rng = np.random.default_rng(children[r])
            idx = rng.integers(0, n, size=n)
            if degenerate:
                denom = float(w[idx] @ w[idx])
                draws[r] = (float(w[idx] @ y[idx]) / denom if denom > 0 else np.nan, 0.0)
            else:
                try:
                    draws[r] = _two_regressor_ols(w[idx], y[idx], s[idx])
                except CollinearRegressors:
                    draws[r] = np.nan
        good = draws[np.isfinite(draws).all(axis=1)]
        se_delta = float(good[:, 0].std(ddof=1))
        se_rho = float(good[:, 1].std(ddof=1))
    else:
        se_delta = se_rho = None

    return SpilloverFit(
        delta=float(coef[0]),
        rho=float(coef[1]),
        se_delta=se_delta,
        se_rho=se_rho,
        n_reps=n_reps,
        seed=seed,
        degenerate_exposure=bool(degenerate),
        drift_adjusted=drift,
    )


def _two_regressor_ols(w, y, s) -> np.ndarray:
    x = np.column_stack([w, s])
    gram = x.T @ x
    if np.linalg.cond(gram) > 1e10:
        raise CollinearRegressors("policy residual and exposure are collinear")
    return np.linalg.solve(gram, x.T @ y)


def oracle_atte_aste(pop: PotentialOutcomePanel) -> tuple[float, float]:
    """Enumerated total and spillover effects on the treated.

    ATTE averages po(1, s) - po(0, 0) over treated cells at their realized
    exposure s; ASTE averages po(0, s) - po(0, 0) over the same cells.
    """
    if pop.exposure is None:
        raise RegimeMismatch("potential-outcome panel carries no exposure truth")
    treated = pop.assignments == 1.0
    if not treated.any():
        raise NoTreatedCells("no treated cells")
    exp = pop.exposure
    atte = float((exp.po_treated_realized - exp.po_baseline)[treated].mean())
    aste = float((exp.po_control_realized - exp.po_baseline)[treated].mean())
    return atte, aste


def estimate_adjusted_impact(
    fit,
    adjacency,
    treatment,
    mode: str = TREATED_NEIGHBOR_SHARE,
    outcome: int = 1,
    n_reps: int = 0,
    seed: int | None = None,
) -> SpilloverFit:
    """Regress a fitted panel's outcome residual on its policy residual and exposure.

    The exposure regressor is the network exposure zeroed out on treated
    cells, trimmed to the fit's sample and within-demeaned per unit like
    the residuals it sits next to; the treated cells' own exposure is
    deliberately left inside the policy coefficient, which therefore
    targets the total effect on the treated.  ``treatment`` is the 0/1
    policy path on the full (n_units, n_times) grid and ``outcome`` the
    residual column used as the dependent series.
    """
    s_reg = build_exposure(adjacency, treatment, mode).s_values * (1.0 - treatment)
    s_reg = s_reg[:, fit.sample_offset :]
    s_reg = s_reg - s_reg.mean(axis=1, keepdims=True)
    return spillover_regression(
        fit.residuals[:, :, 0], fit.residuals[:, :, outcome], s_reg, n_reps=n_reps, seed=seed
    )


def __getattr__(name):
    # verify_interference lives in causal_pvar.verify, which imports this
    # module.  perfbench/spans.py traces it as spillover.verify_interference,
    # so the name resolves here too, looked up on first use so that this
    # module does not import verify at load time.
    if name == "verify_interference":
        from .verify import verify_interference

        return verify_interference
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
