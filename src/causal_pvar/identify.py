"""Recursive identification of impact effects and bootstrap impulse responses.

The contemporaneous impact of policy shock k on a later-ordered variable j
is read off the lower-triangular factor of the residual covariance matrix:
``gamma = lower[j, k] / lower[k, k]``.  In the two-variable case this
equals the regression coefficient cov(policy residual, outcome residual) /
var(policy residual).  Impulse responses carry that unit-shock impact
forward through the fitted dynamics, by the VAR recursion that simulates
panels; confidence bands come from a recursive residual bootstrap.

The bootstrap has the shape of ``fit_pvar``: moments, then one solve.
Each replication's resampled residuals are gathered straight into one
state slab, which holds a chunk of replications (twice ``CHUNK_BYTES`` of
panel), regenerated there by the VAR recursion that ``simulate_var_panel``
runs, one loop over time, and reduced to the within cross-products that
``fit_pvar`` reads.  The chunks, fixed from replication 0, run in shares
of whole chunks (``workers.in_shares``), one on each forked worker where
the fork rule of ``workers.processes`` allows, each through its own slab.
Once every share is back, joined in replication order, one
``_within_ols`` call solves all replications and
one pass of the batched helpers that ``cholesky_lower`` and ``irf`` apply,
with a leading axis of one, to the point estimate factors and propagates
them, so the bands do not depend on the number of processes.

Ordering caveat (documented, not asserted): permuting two policy columns
leaves the residual covariance matrix unchanged but changes the factor,
and with it which estimand each impact coefficient targets.  Variable
order is a modelling choice, not a mechanical detail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BootstrapUnstable, CausalPvarError, NotPSD, ZeroPolicyVariance
from .panel import CHUNK_BYTES, PanelDataset, PVARFit, PVARSpec, fit_pvar
from .panel import _var_recursion, _within_moments, _within_ols
from .workers import in_shares

__all__ = [
    "CholeskyFactor",
    "BootstrapBands",
    "cholesky_lower",
    "impact_gamma",
    "irf",
    "bootstrap_irf",
]

# Factor policy, shared by the point estimate and every bootstrap replication.
# PSD_FLOOR and RIDGE apply to the covariance scaled to a unit diagonal, so
# they do not depend on the data's units; UNIT_FLOOR is absolute, in them.
PSD_FLOOR = -1e-8  # a scaled covariance eigenvalue below this is not PSD
RIDGE = 1e-10  # scaled eigenvalues below this are lifted to it before factoring
UNIT_FLOOR = 1e-12  # |lower[k, k]| below this leaves shock k without variance


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor O with O @ O.T equal to the covariance."""

    lower: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.lower.shape[0]


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


def _factor(sigma: np.ndarray):
    """Batched factor rule of ``cholesky_lower`` over (b, m, m) covariances.

    Each covariance is judged scaled to a unit diagonal, as the lag Gram
    matrix is for ``SingularDesign`` (a zero variance keeps unit scale), and
    factored unscaled, lifted first by ``(RIDGE - eigmin) * |diag|`` when its
    smallest scaled eigenvalue ``eigmin`` is below ``RIDGE``.  A variable of
    zero variance keeps a zero factor row, so that as a shock it fails the
    ``UNIT_FLOOR`` test of ``_impact``.  Returns
    ``(lower, psd, eigmin)``: the (b', m, m) factors of the b' covariances
    with no scaled eigenvalue below ``PSD_FLOOR``, their (b,) mask and every
    covariance's ``eigmin``.
    """
    sigma = (sigma + sigma.transpose(0, 2, 1)) / 2.0
    var = np.abs(np.diagonal(sigma, axis1=1, axis2=2))
    zero = var == 0
    var = np.where(zero, 1.0, var)
    scale = 1.0 / np.sqrt(var)
    eigmin = np.linalg.eigvalsh(sigma * scale[:, :, None] * scale[:, None, :]).min(axis=1)
    psd = eigmin >= PSD_FLOOR
    sigma, var, low = sigma[psd], var[psd], eigmin[psd] < RIDGE
    lift = (RIDGE - eigmin[psd][low])[:, None] * var[low]
    sigma[low] += lift[:, :, None] * np.eye(sigma.shape[1])
    lower = np.linalg.cholesky(sigma)
    # the lift gives a zero variance a factor of about sqrt(RIDGE); its row is zero
    at, var_at = np.nonzero(zero[psd])
    lower[at, var_at, var_at] = 0.0
    return lower, psd, eigmin


def _impact(lower: np.ndarray, k: int):
    """Unit-shock impact columns of shock k from (b, m, m) factors.

    Returns ``(impact, unit)``: the (b', m) columns ``lower[:, k] / lower[k, k]``,
    so that variable k moves by one, of the b' factors in the (b,) mask
    ``unit`` of those with ``|lower[k, k]| >= UNIT_FLOOR``.
    """
    diag = lower[:, k, k]
    unit = np.abs(diag) >= UNIT_FLOOR
    return lower[unit, :, k] / diag[unit, None], unit


def _unit_column(chol: CholeskyFactor, k: int) -> np.ndarray:
    """The unit-shock impact column of shock k; ZeroPolicyVariance without one."""
    if not 0 <= k < chol.n_vars:
        raise CausalPvarError(f"need 0 <= k < m, got k={k}, m={chol.n_vars}")
    impact, unit = _impact(chol.lower[None], k)
    if not unit[0]:
        raise ZeroPolicyVariance(f"policy residual {k} has ~zero variance")
    return impact[0]


def _propagate(phi, impact: np.ndarray, horizon: int) -> np.ndarray:
    """Responses (b, m, horizon + 1) to (b, m) impacts of the VAR with slopes ``phi``:
    p (m, m) matrices shared by the b impacts, or p (b, m, m) stacks."""
    if horizon < 0:
        raise CausalPvarError("horizon must be >= 0")
    p, (b, m) = len(phi), impact.shape
    states = np.zeros((p + horizon + 1, b, 1, m))
    states[p, :, 0] = impact
    return _var_recursion(states, phi)[p:, :, 0].transpose(1, 2, 0)


def cholesky_lower(sigma: np.ndarray) -> CholeskyFactor:
    """Lower-triangular factorization of a symmetric PSD matrix.

    The decisions are taken on the matrix scaled to a unit diagonal, so they
    do not depend on the variables' units: scaled eigenvalues in
    (-1e-8, ``RIDGE``) are lifted to ``RIDGE`` so that numerically
    semidefinite inputs still factor, and a scaled eigenvalue below -1e-8
    raises NotPSD.  The factor is of the unscaled matrix (lifted, if it was).
    """
    lower, psd, eigmin = _factor(np.asarray(sigma, dtype=float)[None])
    if not psd[0]:
        raise NotPSD(f"minimum eigenvalue {eigmin[0]:.3e} of the matrix scaled to a unit "
                     f"diagonal is below -1e-8")
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
    return float(_unit_column(chol, k)[j])


def irf(fit: PVARFit, chol: CholeskyFactor, k: int, horizon: int) -> np.ndarray:
    """Impulse response (m, horizon + 1) to a unit shock k over horizons 0..horizon.

    ``irf[v, h]`` is the response of variable v at horizon h.  The h = 0
    column is the k-th column of the lower factor, rescaled so that the
    shocked variable moves by one; later columns carry it through the fitted
    VAR dynamics.
    """
    return _propagate(fit.phi, _unit_column(chol, k)[None], horizon)[0]


def bootstrap_irf(
    panel: PanelDataset,
    spec: PVARSpec,
    k: int,
    horizon: int,
    n_reps: int,
    level: float,
    seed: int,
) -> tuple[np.ndarray, BootstrapBands]:
    """Point impulse response plus percentile bootstrap bands.

    Residual vectors are resampled i.i.d. over (unit, time) cells with
    replacement, panels regenerated from the fitted dynamics, refitted, and
    the impulse response recomputed.  Replication r draws from its own RNG
    stream, child r of ``SeedSequence(seed)``.  Replications are regenerated
    in chunks of about twice ``CHUNK_BYTES`` of panel, each chunk by one loop
    over time and reduced to its within cross-products.  The chunks run in
    shares, one on each forked worker (one per usable CPU, by the rule of
    ``workers.processes``) or one in this process, each share through one
    state slab and one centring buffer of its own; all
    replications are then solved, factored and propagated once per call
    in this process, so the bands do not depend on the number of processes,
    nor on the chunking (on a one-unit panel, up to last-bit rounding of a
    single-row matmul; the chunks are fixed, so its bands are too).  The
    point fit raises ZeroPolicyVariance when shock k's factor
    ``|lower[k, k]|`` is below 1e-12, a zero variance included, and
    SingularDesign by the rule documented there; a replication fails when
    its panel is non-finite or breaks that rule, when its covariance, scaled
    to a unit diagonal, has an eigenvalue below -1e-8, or when its policy
    factor is below 1e-12 (a zero variance included).  Failures are counted
    in ``n_failed`` and more than 5% raises BootstrapUnstable.
    """
    if n_reps < 100:
        raise CausalPvarError("need at least 100 bootstrap replications")
    if not 0.0 < level < 1.0:
        raise CausalPvarError("level must be in (0, 1)")
    fit = fit_pvar(panel, spec)
    point = irf(fit, cholesky_lower(fit.sigma), k, horizon)

    n, t, m = panel.values.shape
    p = spec.lag_order
    tr = t - p
    pool = fit.residuals.reshape(n * tr, m)

    # A chunk holds two panels per replication: the state slab, whose first p
    # periods stay the observed ones, and the centring buffer of the moments.
    per_chunk = max(1, min(n_reps, 2 * (CHUNK_BYTES // panel.values.nbytes)))

    def share(first: int, stop: int) -> np.ndarray:
        """The within cross-products of the replications in chunks
        first..stop - 1, through one working set of this process."""
        reps = range(first * per_chunk, min(stop * per_chunk, n_reps))
        cross = np.empty((len(reps), m * (p + 1), m * (p + 1)))
        size = min(per_chunk, len(reps))
        slab = np.empty((t, size, n, m))
        slab[:p] = panel.values[:, :p].transpose(1, 0, 2)[:, None]
        centred = np.empty((size, m, t, n))
        for start in range(reps.start, reps.stop, per_chunk):
            chunk = range(start, min(start + per_chunk, reps.stop))
            states = slab[:, : len(chunk)]
            for i, r in enumerate(chunk):
                # child r of SeedSequence(seed); its draws index the pool unit-major
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
                draws = rng.integers(0, n * tr, size=n * tr).reshape(n, tr).T
                np.take(pool, draws, axis=0, out=states[p:, i], mode="clip")
            states[p:] += fit.intercepts
            _var_recursion(states.reshape(t, -1, m), fit.phi)
            with np.errstate(invalid="ignore", over="ignore"):
                cross[start - reps.start : chunk.stop - reps.start] = _within_moments(
                    states, p, out=centred[: len(chunk)])[0]
        return cross

    cross = np.concatenate(in_shares(share, -(-n_reps // per_chunk)))

    # every replication at once, by the rules of fit_pvar, cholesky_lower and irf
    coef, sigma, ok = _within_ols(cross, m * p, n * tr)
    lower, psd, _ = _factor(sigma[ok])
    impact, unit = _impact(lower, k)
    psd[psd] = unit
    ok[ok] = psd
    n_failed = int(n_reps - ok.sum())
    if n_failed > 0.05 * n_reps:
        raise BootstrapUnstable(f"{n_failed}/{n_reps} replications failed to refit")
    # coef stacks phi_l.T lag by lag
    phi = [np.swapaxes(coef[ok, l : l + m], -1, -2) for l in range(0, m * p, m)]
    good = _propagate(phi, impact, horizon)
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
