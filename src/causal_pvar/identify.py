"""Recursive identification of impact effects and bootstrap impulse responses.

The contemporaneous impact of policy shock k on a later-ordered variable j
is read off the lower-triangular factor of the residual covariance matrix:
``gamma = lower[j, k] / lower[k, k]``.  In the two-variable case this
equals the regression coefficient cov(policy residual, outcome residual) /
var(policy residual).  Dynamics come from powers of the companion matrix;
confidence bands from a recursive residual bootstrap.

The bootstrap is batched: each replication's resampled residuals are
gathered straight into one state slab, which holds a chunk of replications
(twice ``CHUNK_BYTES`` of panel), regenerated there by the VAR recursion
that ``simulate_var_panel`` runs, one loop over time, and refitted from the
within moments that ``fit_pvar`` reads, then factored and propagated by the
same batched helpers that ``cholesky_lower`` and ``irf`` apply, with a
leading axis of one, to the point estimate from ``fit_pvar``.

Ordering caveat (documented, not asserted): permuting two policy columns
leaves the residual covariance matrix unchanged but changes the factor,
and with it which estimand each impact coefficient targets.  Variable
order is a modelling choice, not a mechanical detail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BootstrapUnstable, CausalPvarError, NotPSD, ZeroPolicyVariance
from .panel import CHUNK_BYTES, PanelDataset, PVARFit, PVARSpec, companion, fit_pvar
from .panel import _sample_dummies, _var_recursion, _within_moments, _within_ols

__all__ = [
    "CholeskyFactor",
    "ImpulseResponse",
    "BootstrapBands",
    "cholesky_lower",
    "impact_gamma",
    "irf",
    "irf_from_impact",
    "bootstrap_irf",
]

UNIT_SHOCK = "unit-shock"
ONE_SD = "one-sd"

# Factor policy, shared by the point estimate and every bootstrap replication.
PSD_FLOOR = -1e-8  # a covariance eigenvalue below this is not PSD
RIDGE = 1e-10  # eigenvalues below this are lifted to it before factoring
UNIT_FLOOR = 1e-12  # |lower[k, k]| below this leaves shock k without variance


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor O with O @ O.T equal to the covariance."""

    lower: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.lower.shape[0]


@dataclass(frozen=True)
class ImpulseResponse:
    """Responses of every variable to one identified shock.

    ``responses[v, h]`` is the response of variable v at horizon h.
    Under unit-shock normalization the shocked variable responds by
    exactly 1 at h = 0.
    """

    shock_index: int
    horizons: np.ndarray
    responses: np.ndarray
    normalization: str


@dataclass(frozen=True)
class BootstrapBands:
    """Percentile bands around an impulse response.

    ``n_reps`` replications were drawn; the bands come from the
    ``n_reps - n_failed`` that refit.
    """

    level: float
    lower: np.ndarray
    upper: np.ndarray
    n_reps: int
    n_failed: int
    seed: int


def _factor(sigma: np.ndarray, clamp: float = RIDGE):
    """Batched factor rule of ``cholesky_lower`` over (b, m, m) covariances.

    Returns ``(lower, psd, eigmin)``: the (b', m, m) factors of the b'
    covariances with no eigenvalue below ``PSD_FLOOR``, their (b,) mask and
    every covariance's smallest eigenvalue.
    """
    sigma = (sigma + sigma.transpose(0, 2, 1)) / 2.0
    eigmin = np.linalg.eigvalsh(sigma).min(axis=1)
    psd = eigmin >= PSD_FLOOR
    sigma, low = sigma[psd], eigmin[psd] < clamp
    sigma[low] += (clamp - eigmin[psd][low])[:, None, None] * np.eye(sigma.shape[1])
    return np.linalg.cholesky(sigma), psd, eigmin


def _impact(lower: np.ndarray, k: int, normalization: str):
    """Impact columns of shock k from (b, m, m) factors.

    Returns ``(impact, unit)``: the (b', m) columns, rescaled under
    unit-shock normalization so that variable k moves by one, and the (b,)
    mask of factors with ``|lower[k, k]| >= UNIT_FLOOR`` (all of them under
    one-sd normalization).
    """
    impact = lower[:, :, k]
    if normalization == ONE_SD:
        return impact, np.ones(lower.shape[0], dtype=bool)
    if normalization != UNIT_SHOCK:
        raise CausalPvarError(f"unknown normalization {normalization!r}")
    diag = lower[:, k, k]
    unit = np.abs(diag) >= UNIT_FLOOR
    return impact[unit] / diag[unit, None], unit


def _propagate(comp: np.ndarray, impact: np.ndarray, horizon: int) -> np.ndarray:
    """Responses (b, m, horizon + 1) of (b, mp, mp) companions to (b, m) impacts."""
    b, m = impact.shape
    state = np.zeros((b, comp.shape[1], 1))
    state[:, :m, 0] = impact
    out = np.empty((b, m, horizon + 1))
    out[:, :, 0] = impact
    for h in range(1, horizon + 1):
        state = comp @ state
        out[:, :, h] = state[:, :m, 0]
    return out


def cholesky_lower(sigma: np.ndarray, clamp: float = RIDGE) -> CholeskyFactor:
    """Lower-triangular factorization of a symmetric PSD matrix.

    Eigenvalues in (-1e-8, clamp) are lifted to ``clamp`` by a ridge so
    that numerically semidefinite inputs still factor; anything below
    -1e-8 raises NotPSD.
    """
    lower, psd, eigmin = _factor(np.asarray(sigma, dtype=float)[None], clamp)
    if not psd[0]:
        raise NotPSD(f"minimum eigenvalue {eigmin[0]:.3e} below -1e-8")
    return CholeskyFactor(lower[0])


def impact_gamma(chol: CholeskyFactor, k: int, j: int) -> float:
    """Impact coefficient of shock k on variable j: lower[j, k] / lower[k, k].

    Indices are zero-based positions in the (policies-first) ordering and
    must satisfy k < j.  Equals the coefficient on variable k in the
    least-squares regression of variable j's residual on the residuals of
    variables 0..k.
    """
    if not 0 <= k < j < chol.n_vars:
        raise CausalPvarError(f"need 0 <= k < j < m, got k={k}, j={j}, m={chol.n_vars}")
    diag = chol.lower[k, k]
    if abs(diag) < UNIT_FLOOR:
        raise ZeroPolicyVariance(f"policy residual {k} has ~zero variance")
    return float(chol.lower[j, k] / diag)


def irf(
    fit: PVARFit,
    chol: CholeskyFactor,
    k: int,
    horizon: int,
    normalization: str = UNIT_SHOCK,
) -> ImpulseResponse:
    """Impulse response to shock k over horizons 0..horizon.

    The h = 0 column is the k-th column of the lower factor, rescaled so
    the shocked variable moves by one under unit-shock normalization; the
    h-step block applies the companion matrix h times.
    """
    if horizon < 0:
        raise CausalPvarError("horizon must be >= 0")
    impact, unit = _impact(chol.lower[None], k, normalization)
    if not unit[0]:
        raise ZeroPolicyVariance(f"policy residual {k} has ~zero variance")
    return ImpulseResponse(
        shock_index=k,
        horizons=np.arange(horizon + 1),
        responses=_propagate(companion(fit).matrix[None], impact, horizon)[0],
        normalization=normalization,
    )


def irf_from_impact(fit: PVARFit, impact: np.ndarray, horizon: int) -> ImpulseResponse:
    """Propagate a caller-supplied impact vector (e.g. a plug-in (1, delta)).

    Used when the impact column is identified outside the recursive scheme,
    as with the spillover-adjusted estimate; only the supplied column is
    needed, the remaining rotation stays unidentified.
    """
    impact = np.asarray(impact, dtype=float)
    if impact.shape != (fit.n_vars,) or not np.isfinite(impact).all():
        raise CausalPvarError("impact must be a finite vector of length m")
    return ImpulseResponse(
        shock_index=-1,
        horizons=np.arange(horizon + 1),
        responses=_propagate(companion(fit).matrix[None], impact[None], horizon)[0],
        normalization="plug-in",
    )


def _refit(states: np.ndarray, p: int, fixed):
    """``(coef, sigma, ok)`` of ``_within_ols`` for a (t, b, n, m) chunk of regenerated
    panels; ``fixed`` is ``(dummies, centred)``: the time-major dummy rows or None,
    and the (b', m, t, n) centring buffer, b' >= b, that every chunk reuses."""
    dummies, centred = fixed
    t, b, n, m = states.shape
    with np.errstate(invalid="ignore", over="ignore"):
        cross = _within_moments(states, p, dummies, out=centred[:b])[0]
    return _within_ols(cross, m * p, n * (t - p))


def _responses(coef, sigma, ok, k: int, horizon: int, normalization: str):
    """Impulse responses of a chunk of refits, by the rules of ``cholesky_lower`` and ``irf``.

    Returns ``(responses, ok)``: (b, m, horizon + 1) responses, NaN where a
    replication failed, and the refit mask narrowed to the replications
    that factor and, under unit-shock normalization, admit a unit shock.
    """
    b, mp, m = coef.shape
    out = np.full((b, m, horizon + 1), np.nan)
    lower, psd, _ = _factor(sigma[ok])
    impact, unit = _impact(lower, k, normalization)
    psd[psd] = unit
    ok = ok.copy()
    ok[ok] = psd
    comp = np.zeros((impact.shape[0], mp, mp))
    comp[:, :m, :] = coef[ok].transpose(0, 2, 1)
    comp[:, m:, :-m] = np.eye(mp - m)
    out[ok] = _propagate(comp, impact, horizon)
    return out, ok


def bootstrap_irf(
    panel: PanelDataset,
    spec: PVARSpec,
    k: int,
    horizon: int,
    n_reps: int,
    level: float,
    seed: int,
    normalization: str = UNIT_SHOCK,
) -> tuple[ImpulseResponse, BootstrapBands]:
    """Point impulse response plus percentile bootstrap bands.

    Residual vectors are resampled i.i.d. over (unit, time) cells with
    replacement, panels regenerated from the fitted dynamics, refitted, and
    the impulse response recomputed.  Replication r draws from its own RNG
    stream, child r of ``SeedSequence(seed)``.  Replications run in chunks
    of about twice ``CHUNK_BYTES`` of regenerated panel, in one state slab
    and one centring buffer allocated per call, each chunk regenerated by
    one loop over time and refitted from batched moments, so the bands
    do not depend on the chunking (on a one-unit panel, up to last-bit
    rounding of a single-row matmul).  The point fit raises SingularDesign
    by the rule documented there; a replication fails when its panel is
    non-finite or breaks that rule, when its covariance has an eigenvalue
    below -1e-8, or (unit-shock) when its policy factor is below 1e-12.
    Failures are counted in ``n_failed`` and more than 5% raises
    BootstrapUnstable.
    """
    if n_reps < 100:
        raise CausalPvarError("need at least 100 bootstrap replications")
    if not 0.0 < level < 1.0:
        raise CausalPvarError("level must be in (0, 1)")
    fit = fit_pvar(panel, spec)
    point = irf(fit, cholesky_lower(fit.sigma), k, horizon, normalization)

    n, t, m = panel.values.shape
    p = spec.lag_order
    tr = t - p
    pool = fit.residuals.reshape(n * tr, m)
    drift = fit.intercepts
    raw_dummies, dummies = _sample_dummies(panel, spec, p)
    if dummies is not None:
        drift = drift + np.einsum("ntd,dm->tnm", raw_dummies, fit.dummy_coef)[:, None]

    results = np.empty((n_reps, m, horizon + 1))
    ok = np.empty(n_reps, dtype=bool)
    # A chunk holds two panels per replication: the state slab, whose first p
    # periods stay the observed ones, and the centring buffer of the refit.
    per_chunk = max(1, min(n_reps, 2 * (CHUNK_BYTES // panel.values.nbytes)))
    slab = np.empty((t, per_chunk, n, m))
    slab[:p] = panel.values[:, :p].transpose(1, 0, 2)[:, None]
    fixed = (dummies, np.empty((per_chunk, m, t, n)))
    for start in range(0, n_reps, per_chunk):
        reps = slice(start, min(start + per_chunk, n_reps))
        states = slab[:, : reps.stop - start]
        for r in range(reps.start, reps.stop):
            # child r of SeedSequence(seed); its draws index the pool unit-major
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
            draws = rng.integers(0, n * tr, size=n * tr).reshape(n, tr).T
            np.take(pool, draws, axis=0, out=states[p:, r - start], mode="clip")
        states[p:] += drift
        _var_recursion(states.reshape(t, -1, m), fit.phi)
        coef, sigma, refit_ok = _refit(states, p, fixed)
        results[reps], ok[reps] = _responses(coef, sigma, refit_ok, k, horizon, normalization)
    del slab, states, fixed  # the working set is done with; free it before the quantiles

    n_failed = int(n_reps - ok.sum())
    if n_failed > 0.05 * n_reps:
        raise BootstrapUnstable(f"{n_failed}/{n_reps} replications failed to refit")
    good = results[ok]
    alpha = (1.0 - level) / 2.0
    bands = BootstrapBands(
        level=level,
        lower=np.quantile(good, alpha, axis=0),
        upper=np.quantile(good, 1.0 - alpha, axis=0),
        n_reps=n_reps,
        n_failed=n_failed,
        seed=seed,
    )
    return point, bands
