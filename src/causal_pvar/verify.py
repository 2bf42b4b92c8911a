"""Monte-Carlo verification of which estimand the impact coefficient recovers.

Each check runs seeded end-to-end pipelines (simulate -> within fit ->
recursive identification -> impact coefficient), computes the predicted
estimand from the potential-outcome oracles on the same simulated data,
and compares the mean discrepancy against three Monte-Carlo standard
errors of that mean.  T1 is an exact finite-sample decomposition and is
checked at 1e-10 instead.  ``CHECKS`` holds every check: its default
scenario, its per-replication (estimate, oracle) pairs and its test.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import stats as _stats

from .errors import BadConfig, RegimeMismatch
from .estimands import did_four_means, dummy_gamma, oracle_estimands
from .identify import cholesky_lower, impact_gamma
from .panel import PVARSpec, fit_pvar
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
    simulate_scenario,
)
from .spillover import estimate_adjusted_impact, oracle_atte_aste
from .weights import ZeroInflatedUniform, gaussian_weights, nonneg_weights, weighted_estimand

__all__ = [
    "CHECKS",
    "InterferenceReport",
    "VerificationReport",
    "default_config",
    "verify_interference",
    "verify_theorem",
    "THEOREMS",
]

THEOREMS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T9", "T10")


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate of one theorem-style Monte-Carlo check."""

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
        return (
            f"{self.theorem}: {status}  |mean gamma_hat - oracle| = "
            f"{self.discrepancy:.6g} vs 3*SE = {3 * self.mc_se:.6g} "
            f"({self.n_reps} reps)"
        )

    def record(self) -> dict:
        """One row of ``verify.csv``."""
        return {
            "theorem": self.theorem,
            "n_reps": self.n_reps,
            "estimate_mean": self.estimate_mean,
            "oracle_mean": self.oracle_mean,
            "discrepancy": self.discrepancy,
            "mc_se": self.mc_se,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class InterferenceReport:
    """Joint check: naive coefficient vs ATTE - ASTE, adjusted vs ATTE."""

    n_reps: int
    naive_mean: float
    adjusted_mean: float
    atte_mean: float
    aste_mean: float
    naive_discrepancy: float
    naive_se: float
    naive_passed: bool
    adjusted_discrepancy: float
    adjusted_se: float
    adjusted_passed: bool
    details: dict

    @property
    def passed(self) -> bool:
        return self.naive_passed and self.adjusted_passed

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"interference: {status}  naive vs ATTE-ASTE: {self.naive_discrepancy:.6g} "
            f"(3*SE {3 * self.naive_se:.6g}); adjusted vs ATTE: "
            f"{self.adjusted_discrepancy:.6g} (3*SE {3 * self.adjusted_se:.6g})"
        )

    def record(self) -> dict:
        """One row of ``verify.csv``, reporting the adjusted coefficient."""
        return {
            "theorem": "T11_T12_interference",
            "n_reps": self.n_reps,
            "estimate_mean": self.adjusted_mean,
            "oracle_mean": self.atte_mean,
            "discrepancy": self.adjusted_discrepancy,
            "mc_se": self.adjusted_se,
            "passed": self.passed,
        }


def _pipeline_gamma(panel, lag_order: int = 1) -> tuple:
    fit = fit_pvar(panel, PVARSpec(lag_order))
    gamma = impact_gamma(cholesky_lower(fit.sigma), 0, 1)
    return gamma, fit


def _t1_pairs(config, panel, pop):
    # Binary contrast = ATE + selection bias, on the true innovations.
    report = oracle_estimands(pop)
    return ((dummy_gamma(pop.assignments, pop.realized_outcomes),
             report.ate + report.selection_bias),)


def _t2_pairs(config, panel, pop):
    report = oracle_estimands(pop)
    return (_pipeline_gamma(panel)[0], report.ate), (report.selection_bias, 0.0)


@functools.lru_cache(maxsize=16)
def _gaussian_quadrature_oracle(sigma: float, impact) -> float:
    """Independent fine-grid quadrature of density-weighted derivative."""
    lam = np.linspace(-8.0 * sigma, 8.0 * sigma, 20_001)
    dens = _stats.norm.pdf(lam, scale=sigma)
    return float(np.trapezoid(dens * impact.derivative(lam), lam))


def _t3_pairs(config, panel, pop):
    oracle = _gaussian_quadrature_oracle(config.policy_sigma, config.impact)
    return ((_pipeline_gamma(panel)[0], oracle),)


def _gaussian_pairs(mode):
    def pairs(config, panel, pop):
        profile = gaussian_weights(config.policy_sigma, pop.lambda_grid)
        return ((_pipeline_gamma(panel)[0], weighted_estimand(profile, pop, mode)),)

    return pairs


def _t6_pairs(config, panel, pop):
    profile = nonneg_weights(law=ZeroInflatedUniform(config.zero_prob, *config.support))
    return ((_pipeline_gamma(panel)[0], weighted_estimand(profile, pop, "nonneg")),)


def _t7_pairs(config, panel, pop):
    profile = nonneg_weights(sample=pop.assignments)
    return ((_pipeline_gamma(panel)[0], weighted_estimand(profile, pop, "nonneg")),)


def _t9_pairs(config, panel, pop):
    groups = pop.groups
    oracle = did_four_means(pop.realized_outcomes, groups.treated_units, groups.treated_times)
    return ((_pipeline_gamma(panel)[0], oracle),)


def _t10_pairs(config, panel, pop):
    return ((_pipeline_gamma(panel)[0], oracle_estimands(pop).att),)


def _interference_pairs(config, panel, pop, mode=TREATED_NEIGHBOR_SHARE):
    # Naive coefficient vs ATTE - ASTE, exposure-adjusted coefficient vs ATTE.
    gamma, fit = _pipeline_gamma(panel)
    adjusted = estimate_adjusted_impact(fit, pop.exposure.adjacency, pop.assignments, mode)
    atte, aste = oracle_atte_aste(pop)
    return (gamma, atte - aste), (adjusted.delta, atte)


@dataclass(frozen=True)
class Check:
    """One verification: a default scenario satisfying the claim's premises,
    sized for desk runs; per-replication (estimate, oracle) pairs; and
    whether every pair must agree to 1e-10 (``exact``) or its mean
    discrepancy must fall within three Monte-Carlo standard errors."""

    config: ScenarioConfig
    pairs: Callable
    exact: bool = False


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
    ), _t2_pairs),
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
        impact=linear_impact(1.0), treat_prob=0.35, time_frac=0.4, spillover_rho=0.5,
    ), _interference_pairs),
}


def default_config(name: str) -> ScenarioConfig:
    """The default scenario of a check: a theorem name or "interference"."""
    if name not in CHECKS:
        raise BadConfig(f"unknown theorem {name!r}")
    return CHECKS[name].config


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


def _run(name: str, config: ScenarioConfig, reps: int, **options) -> list[_Pair]:
    """Run check ``name`` on ``reps`` seeded replications of ``config``."""
    check = CHECKS[name]
    if config.regime != check.config.regime:
        raise RegimeMismatch(
            f"{name} needs regime {check.config.regime!r}, got {config.regime!r}"
        )
    if reps < 2:
        raise BadConfig("need at least 2 replications")
    draws = []
    for s in _rep_seeds(config.seed, reps):
        rep_config = config.with_seed(s)
        panel, pop = simulate_scenario(rep_config)
        draws.append(check.pairs(rep_config, panel, pop, **options))
    pairs = []
    # (reps, pairs, 2) -> per pair: estimates, oracles
    for estimates, oracles in np.asarray(draws, dtype=float).transpose(1, 2, 0):
        diffs = estimates - oracles
        if check.exact:
            discrepancy, mc_se = float(np.abs(diffs).max()), 0.0
            passed = discrepancy < 1e-10
        else:
            discrepancy = float(abs(diffs.mean()))
            mc_se = float(diffs.std(ddof=1) / np.sqrt(reps))
            passed = discrepancy < 3.0 * mc_se
        pairs.append(_Pair(estimates, oracles, discrepancy, mc_se, bool(passed)))
    return pairs


def verify_theorem(theorem: str, config: ScenarioConfig | None = None, reps: int = 200) -> VerificationReport:
    """Run one theorem check for ``reps`` seeded replications.

    T2 also requires the mean selection bias to be zero within three
    Monte-Carlo standard errors.
    """
    theorem = theorem.upper()
    if theorem not in THEOREMS:
        raise BadConfig(f"unknown theorem {theorem!r}; choose from {THEOREMS}")
    main, *bias = _run(theorem, config or default_config(theorem), reps)
    if CHECKS[theorem].exact:
        details = {"criterion": "max |estimate - oracle| < 1e-10"}
    else:
        details = {
            "estimates_sd": float(main.estimates.std(ddof=1)),
            "oracle_sd": float(main.oracles.std(ddof=1)),
        }
    for b in bias:
        details["selection_bias_mean"] = float(b.estimates.mean())
        details["selection_bias_se"] = b.mc_se
        details["selection_bias_pass"] = b.passed
    return VerificationReport(
        theorem=theorem,
        n_reps=reps,
        estimate_mean=float(main.estimates.mean()),
        oracle_mean=float(main.oracles.mean()),
        discrepancy=main.discrepancy,
        mc_se=main.mc_se,
        passed=main.passed and all(b.passed for b in bias),
        details=details,
    )


def verify_interference(config: ScenarioConfig, reps: int = 200,
                        mode: str = TREATED_NEIGHBOR_SHARE) -> InterferenceReport:
    """Monte-Carlo check of the naive and exposure-adjusted estimators.

    Per replication: the naive recursive coefficient should center on
    ATTE - ASTE, the adjusted policy coefficient on ATTE, both at three
    Monte-Carlo standard errors; the naive bias is reported and should
    approximate -ASTE.
    """
    naive, adjusted = _run("interference", config, reps, mode=mode)
    atte = adjusted.oracles
    aste = atte - naive.oracles
    return InterferenceReport(
        n_reps=reps,
        naive_mean=float(naive.estimates.mean()),
        adjusted_mean=float(adjusted.estimates.mean()),
        atte_mean=float(atte.mean()),
        aste_mean=float(aste.mean()),
        naive_discrepancy=naive.discrepancy,
        naive_se=naive.mc_se,
        naive_passed=naive.passed,
        adjusted_discrepancy=adjusted.discrepancy,
        adjusted_se=adjusted.mc_se,
        adjusted_passed=adjusted.passed,
        details={
            "mode": mode,
            "naive_bias_vs_atte": float((naive.estimates - atte).mean()),
            "mean_aste": float(aste.mean()),
        },
    )
