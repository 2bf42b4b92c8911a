"""Monte-Carlo verification of which estimand the impact coefficient recovers.

Each check runs seeded end-to-end pipelines (simulate -> within fit ->
recursive identification -> impact coefficient), computes the predicted
estimand from the potential-outcome oracles on the same simulated data,
and compares the mean discrepancy against three Monte-Carlo standard
errors of that mean.  T1 is an exact finite-sample decomposition and is
checked at 1e-10 instead.  ``CHECKS`` holds every check, the interference
pair included: its default scenario, its per-replication (estimate,
oracle) pairs and its test.  ``verify_theorem`` runs any of them into one
``VerificationReport``, whose fields hold the reported pair and whose
``details`` hold any further one (T2's selection bias, the naive
coefficient of the interference check).

Replications run in chunks of about ``CHUNK_BYTES`` of panel.  Each
replication draws from its own seed, as ``simulate_scenario`` does, and
its oracles are computed on its own ground truth; the chunk's panels are
then propagated through the VAR dynamics by one time-major loop and fitted
together from the within moments kernel, whose covariance gives the impact
coefficient ``sigma[1, 0] / sigma[0, 0]`` and whose lag views give the
interference pair its residuals.  The chunking does not change the
results.  ``verify_suite`` scores checks that share a scenario (T6 and T7,
T9 and T10) on one run of its replications.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import BadConfig, RegimeMismatch, SingularDesign
from .estimands import average_effects, did_four_means, dummy_gamma, selection_bias
from .panel import CHUNK_BYTES, PanelDataset, PVARSpec
from .panel import _within_moments, _within_ols, _within_resid
from .scenarios import (
    GAUSSIAN_CONTINUOUS,
    HETEROGENEOUS_DUMMY,
    HOMOGENEOUS_DUMMY,
    NONNEGATIVE_CONTINUOUS,
    SPILLOVER_DUMMY,
    TREATED_NEIGHBOR_SHARE,
    ScenarioConfig,
    linear_impact,
    quadratic_impact,
)
from .scenarios import _draw, _propagate, _validate_config
from .spillover import estimate_adjusted_impact, oracle_atte_aste
from .weights import ZeroInflatedUniform, gaussian_weights, nonneg_weights, weighted_estimand

__all__ = [
    "CHECKS",
    "VerificationReport",
    "default_config",
    "verify_interference",
    "verify_suite",
    "verify_theorem",
    "THEOREMS",
]

@dataclass(frozen=True)
class VerificationReport:
    """Aggregate of one Monte-Carlo check: its reported (estimate, oracle)
    pair, and in ``details`` each further pair as ``<name>_mean``,
    ``_oracle_mean``, ``_discrepancy``, ``_se`` and ``_pass``.  ``passed``
    requires every pair to pass."""

    theorem: str
    n_reps: int
    estimate_mean: float
    oracle_mean: float
    discrepancy: float
    mc_se: float
    passed: bool
    details: dict

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{self.theorem}: {status}  |mean gamma_hat - oracle| = "
            f"{self.discrepancy:.6g} vs 3*SE = {3 * self.mc_se:.6g} "
            f"({self.n_reps} reps)"
        )
        for key in self.details:
            if key.endswith("_discrepancy"):
                name = key[: -len("_discrepancy")]
                line += (f"; {name} |mean - oracle| = {self.details[key]:.6g} "
                         f"vs 3*SE = {3 * self.details[name + '_se']:.6g}")
        return line

    def record(self) -> dict:
        """One row of ``verify.csv``."""
        return {
            "theorem": RECORD_NAMES.get(self.theorem, self.theorem),
            "n_reps": self.n_reps,
            "estimate_mean": self.estimate_mean,
            "oracle_mean": self.oracle_mean,
            "discrepancy": self.discrepancy,
            "mc_se": self.mc_se,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class _RepFit:
    """One replication's VAR(1) within fit, as read by the checks: the
    recursive impact coefficient ``gamma``, and the lag and dep rows, window
    means and slopes from which ``residuals`` are read
    (``estimate_adjusted_impact`` reads those and ``spec`` of a ``PVARFit``)."""

    gamma: float
    rows: tuple
    means: np.ndarray
    coef: np.ndarray
    spec: PVARSpec = PVARSpec(1)

    @property
    def residuals(self) -> np.ndarray:
        """(n, t - 1, 2) residuals ``Z [-coef; I]``, as ``fit_pvar`` gives them."""
        beta = np.vstack([-self.coef, np.eye(2)])
        resid = _within_resid(self.rows, self.means, beta)
        return resid.reshape(2, -1, self.means.shape[-1]).transpose(2, 1, 0)


def _t1_pairs(config, pop):
    # Binary contrast = ATE + selection bias, on the true innovations.
    pair = (dummy_gamma(pop.assignments, pop.realized_outcomes),
            average_effects(pop)[0] + selection_bias(pop))
    return lambda fit: (pair,)


def _t2_pairs(config, pop):
    ate, bias = average_effects(pop)[0], selection_bias(pop)
    return lambda fit: ((fit.gamma, ate), (bias, 0.0))


@functools.lru_cache(maxsize=16)
def _gaussian_quadrature_oracle(sigma: float, impact) -> float:
    """Independent fine-grid quadrature of density-weighted derivative."""
    lam = np.linspace(-8.0 * sigma, 8.0 * sigma, 20_001)
    dens = gaussian_weights(sigma, lam).q
    return float(np.trapezoid(dens * impact.derivative(lam), lam))


def _gamma_vs(oracle: float):
    return lambda fit: ((fit.gamma, oracle),)


def _t3_pairs(config, pop):
    return _gamma_vs(_gaussian_quadrature_oracle(config.policy_sigma, config.impact))


def _gaussian_pairs(mode):
    def pairs(config, pop):
        profile = gaussian_weights(config.policy_sigma, pop.lambda_grid)
        return _gamma_vs(weighted_estimand(profile, pop, mode))

    return pairs


def _t6_pairs(config, pop):
    profile = nonneg_weights(law=ZeroInflatedUniform(config.zero_prob, *config.support))
    return _gamma_vs(weighted_estimand(profile, pop, "acrt"))


def _t7_pairs(config, pop):
    profile = nonneg_weights(sample=pop.assignments)
    return _gamma_vs(weighted_estimand(profile, pop, "acrt"))


def _t9_pairs(config, pop):
    groups = pop.groups
    return _gamma_vs(did_four_means(pop.realized_outcomes, groups.treated_units,
                                    groups.treated_times))


def _t10_pairs(config, pop):
    return _gamma_vs(average_effects(pop)[1])


def _interference_pairs(config, pop, mode=TREATED_NEIGHBOR_SHARE):
    # Exposure-adjusted coefficient vs ATTE, naive coefficient vs ATTE - ASTE.
    atte, aste = oracle_atte_aste(pop)
    adjacency, treatment = pop.exposure.adjacency, pop.assignments

    def score(fit):
        adjusted = estimate_adjusted_impact(fit, adjacency, treatment, mode)
        return (adjusted.delta, atte), (fit.gamma, atte - aste)

    return score


@dataclass(frozen=True)
class Check:
    """One verification: a default scenario satisfying the claim's premises,
    sized for desk runs; its per-replication (estimate, oracle) pairs; and
    whether every pair must agree to 1e-10 (``exact``) or its mean
    discrepancy must fall within three Monte-Carlo standard errors.

    ``pairs(config, pop, **options)`` computes the oracles on one
    replication's ground truth and returns a function of the replication's
    within fit (None for an exact check, which needs none) that gives its
    pairs: the reported pair first, then one pair per name in ``further``."""

    config: ScenarioConfig
    pairs: Callable
    exact: bool = False
    further: tuple[str, ...] = ()


_T6_T7 = ScenarioConfig(
    # Coarse dose grid: the conditional-mean bins carry outcome noise into
    # the ACRT gradient, and a quadratic impact has no binning bias, so
    # fewer bins just means a quieter oracle.
    regime=NONNEGATIVE_CONTINUOUS, n_units=100, n_times=100, seed=0,
    impact=quadratic_impact(0.5, 0.3), zero_prob=0.5, support=(1.0, 2.0),
    lambda_grid=np.concatenate([[0.0], np.linspace(1.0, 2.0, 41)]),
)
_T9_T10 = ScenarioConfig(
    regime=HETEROGENEOUS_DUMMY, n_units=100, n_times=150, seed=0,
    impact=linear_impact(1.0), treat_prob=0.4, time_frac=0.4,
)

CHECKS = {
    "T1": Check(ScenarioConfig(
        regime=HETEROGENEOUS_DUMMY, n_units=40, n_times=60, seed=0,
        impact=linear_impact(2.0), effect_sd=0.6, treat_on_gain=0.4,
        treat_prob=0.4, time_frac=0.4,
    ), _t1_pairs, exact=True),
    "T2": Check(ScenarioConfig(
        regime=HOMOGENEOUS_DUMMY, n_units=200, n_times=200, seed=0,
        impact=linear_impact(2.0), treat_prob=0.3, effect_sd=0.5,
    ), _t2_pairs, further=("selection_bias",)),
    "T3": Check(ScenarioConfig(
        regime=GAUSSIAN_CONTINUOUS, n_units=100, n_times=150, seed=0,
        impact=quadratic_impact(1.0, 0.4), policy_sigma=1.0,
    ), _t3_pairs),
    # T4 reports the discrepancy under nonlinear selection too; its bound
    # is asserted only on linear designs.
    "T4": Check(ScenarioConfig(
        regime=GAUSSIAN_CONTINUOUS, n_units=100, n_times=150, seed=0,
        impact=linear_impact(1.0), policy_sigma=1.0, selection_strength=0.5,
    ), _gaussian_pairs("acrt")),
    "T5": Check(ScenarioConfig(
        regime=GAUSSIAN_CONTINUOUS, n_units=100, n_times=150, seed=0,
        impact=linear_impact(1.0), policy_sigma=1.0,
    ), _gaussian_pairs("acr")),
    "T6": Check(_T6_T7, _t6_pairs),
    "T7": Check(_T6_T7, _t7_pairs),
    "T9": Check(_T9_T10, _t9_pairs),
    "T10": Check(_T9_T10, _t10_pairs),
    "interference": Check(ScenarioConfig(
        regime=SPILLOVER_DUMMY, n_units=100, n_times=120, seed=0,
        impact=linear_impact(1.0), treat_prob=0.35, spillover_rho=0.5,
    ), _interference_pairs, further=("naive",)),
}
THEOREMS = tuple(name for name in CHECKS if name != "interference")
# verify.csv names the interference row after the two claims it checks.
RECORD_NAMES = {"interference": "T11_T12_interference"}


def _check_name(name: str) -> str:
    """The key of ``CHECKS`` that ``name`` spells, in any case."""
    for key in CHECKS:
        if key.upper() == name.upper():
            return key
    raise BadConfig(f"unknown theorem {name!r}; choose from {tuple(CHECKS)}")


def default_config(name: str) -> ScenarioConfig:
    """The default scenario of a check: a theorem name or "interference"."""
    return CHECKS[_check_name(name)].config


def _rep_seeds(seed: int, reps: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.integers(0, 2**63 - 1, size=reps)


@dataclass(frozen=True)
class _Pair:
    """One (estimate, oracle) pair over all replications, and its test."""

    estimates: np.ndarray
    oracles: np.ndarray
    discrepancy: float
    mc_se: float
    passed: bool


def _fit_chunk(states: np.ndarray, n_times: int) -> list[_RepFit]:
    """Fit the last ``n_times`` periods of a chunk of ``_propagate`` states at once."""
    states = states[-n_times:]
    stacked = states.reshape(n_times, -1, 2).transpose(1, 0, 2)  # every unit of the chunk
    PanelDataset(stacked, 1, ("policy1", "outcome1"))  # raises NonFinite on overflow
    cross, _, rows, means, _ = _within_moments(states, 1)
    coef, sigma, ok = _within_ols(cross, 2, states.shape[2] * (n_times - 1))
    if not ok.all():
        raise SingularDesign("a replication's lag Gram matrix is singular or ill-conditioned")
    gamma = sigma[:, 1, 0] / sigma[:, 0, 0]
    return [_RepFit(float(g), (lag, dep), w, c)
            for g, lag, dep, w, c in zip(gamma, *rows, means, coef)]


def _chunk_pairs(checks, config: ScenarioConfig, phi, seeds, options) -> list:
    """Per replication of one chunk, each of ``checks``' pairs.  Each replication
    is drawn from its own seed and every check's oracles computed on its ground
    truth; then the chunk's panels are propagated together through the VAR
    dynamics and fitted together, once for all the checks."""
    draws = [_draw(config.with_seed(s)) for s in seeds]
    scores = [[check.pairs(config, d.pop, **options) for check in checks] for d in draws]
    fits = [None] * len(draws)
    if not all(check.exact for check in checks):
        states = _propagate(phi, draws)
        del draws  # scored: only the panels are needed from here on
        fits = _fit_chunk(states, config.n_times)
    return [[score(fit) for score in rep] for rep, fit in zip(scores, fits)]


def _run_shared(names, config: ScenarioConfig, reps: int, **options) -> list[list[_Pair]]:
    """Run the checks ``names`` on the same ``reps`` seeded replications of
    ``config``, in chunks of about ``CHUNK_BYTES`` of panel: each check's pairs."""
    checks = [CHECKS[name] for name in names]
    for name, check in zip(names, checks):
        if config.regime != check.config.regime:
            raise RegimeMismatch(
                f"{name} needs regime {check.config.regime!r}, got {config.regime!r}"
            )
    if reps < 2:
        raise BadConfig("need at least 2 replications")
    phi = _validate_config(config)
    seeds = _rep_seeds(config.seed, reps)
    panel_bytes = config.n_units * config.n_times * 2 * 8
    per_chunk = max(1, CHUNK_BYTES // panel_bytes)
    rows = []
    for start in range(0, reps, per_chunk):
        rows += _chunk_pairs(checks, config, phi, seeds[start : start + per_chunk], options)
    runs = [[] for _ in checks]
    # per check, (reps, pairs, 2) -> per pair: estimates, oracles
    for check, check_rows, pairs in zip(checks, zip(*rows), runs):
        for estimates, oracles in np.asarray(check_rows, dtype=float).transpose(1, 2, 0):
            diffs = estimates - oracles
            if check.exact:
                discrepancy, mc_se = float(np.abs(diffs).max()), 0.0
                passed = discrepancy < 1e-10
            else:
                discrepancy = float(abs(diffs.mean()))
                mc_se = float(diffs.std(ddof=1) / np.sqrt(reps))
                passed = discrepancy < 3.0 * mc_se
            pairs.append(_Pair(estimates, oracles, discrepancy, mc_se, bool(passed)))
    return runs


def _run(name: str, config: ScenarioConfig, reps: int, **options) -> list[_Pair]:
    """The pairs of check ``name`` alone."""
    return _run_shared([name], config, reps, **options)[0]


def _report(name: str, pairs: list[_Pair], reps: int, options: dict) -> VerificationReport:
    """The report of check ``name`` from its pairs, run with ``options``."""
    check = CHECKS[name]
    main, *further = pairs
    if check.exact:
        details = {"criterion": "max |estimate - oracle| < 1e-10"}
    else:
        details = {
            "estimates_sd": float(main.estimates.std(ddof=1)),
            "oracle_sd": float(main.oracles.std(ddof=1)),
        }
    details.update(options)
    for label, pair in zip(check.further, further):
        details.update({f"{label}_mean": float(pair.estimates.mean()),
                        f"{label}_oracle_mean": float(pair.oracles.mean()),
                        f"{label}_discrepancy": pair.discrepancy,
                        f"{label}_se": pair.mc_se, f"{label}_pass": pair.passed})
    return VerificationReport(name, reps, float(main.estimates.mean()), float(main.oracles.mean()),
                              main.discrepancy, main.mc_se, all(p.passed for p in pairs), details)


def verify_theorem(theorem: str, config: ScenarioConfig | None = None, reps: int = 200,
                   **options) -> VerificationReport:
    """Run the check ``theorem``, any key of ``CHECKS``, for ``reps`` seeded
    replications of ``config`` (default: the check's default scenario).

    T2 also requires the mean selection bias to be zero, and "interference"
    the naive coefficient to centre on ATTE - ASTE, within three Monte-Carlo
    standard errors.  ``options`` go to the check's pairs (interference
    takes the exposure ``mode``) and are recorded in ``details``.
    """
    name = _check_name(theorem)
    pairs = _run(name, config or CHECKS[name].config, reps, **options)
    return _report(name, pairs, reps, options)


def verify_interference(config: ScenarioConfig, reps: int = 200,
                        mode: str = TREATED_NEIGHBOR_SHARE) -> VerificationReport:
    """The "interference" check of ``verify_theorem`` with exposure regressor ``mode``."""
    return verify_theorem("interference", config, reps, mode=mode)


def verify_suite(seed: int, reps: int = 200, names=None, rho: float | None = None):
    """Run checks on their default scenarios at ``seed``, yielding each report.

    ``names`` are keys of ``CHECKS``, in the order to run (default: all of
    them); ``rho``, if given, replaces the interference scenario's
    spillover strength.  Checks that share a default scenario (T6 and T7,
    T9 and T10) are scored on one run of its replications, as
    ``verify_theorem`` scores each.
    """
    names = names or tuple(CHECKS)
    shared = {}
    for name in names:
        config = default_config(name).with_seed(seed)
        if name == "interference" and rho is not None:
            config = replace(config, spillover_rho=rho)
        group = [other for other in names if default_config(other) is default_config(name)]
        if len(group) == 1:
            yield verify_theorem(name, config, reps=reps)
            continue
        if name not in shared:
            for other, pairs in zip(group, _run_shared(group, config, reps)):
                shared[other] = _report(other, pairs, reps, {})
        yield shared.pop(name)
