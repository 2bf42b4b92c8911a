"""Monte-Carlo verification of which estimand the impact coefficient recovers.

Each check runs seeded end-to-end pipelines (simulate -> within fit ->
recursive identification -> impact coefficient), computes the predicted
estimand from the potential-outcome oracles on the same simulated data,
and compares the mean discrepancy against three Monte-Carlo standard
errors of that mean.  T1 is an exact finite-sample decomposition and is
checked at 1e-10 instead.  ``CHECKS`` holds every check, the interference
pair included: its default scenario, the function that gives one
replication's (estimate, oracle) pairs and its test.  ``verify_theorem``
runs any of them into one ``VerificationReport``, whose fields hold the
reported pair and whose ``further`` holds a report of its own for each
further pair (T2's selection bias, the naive coefficient of the
interference check).  A check runs on the scenario it is given; a variant,
such as another spillover strength, is another config or ``CHECKS`` entry.

Replications run in chunks of about ``CHUNK_BYTES`` of panel, through one
working set per check run: a state slab and a centring buffer sized for the
largest chunk, which every chunk reuses.  Each replication draws from its
own seed, as ``simulate_scenario`` does; the chunk's panels are then
propagated through the VAR dynamics by one time-major loop over the slab,
centred in the buffer and fitted together by the within moments kernel,
whose covariance gives the impact coefficient
``sigma[1, 0] / sigma[0, 0]`` and whose lag views give the interference pair
its residuals.  Each check then scores each replication with one call on its
ground truth and its fit, as floats, before the next chunk overwrites the
working set.  The chunking does not change the results.  ``verify_suite``
scores checks that share a scenario (T6 and T7, T9 and T10) on one run of
its replications.

``verify_suite`` runs its groups (T1, T2, T3, T4, T5, T6+T7, T9+T10 and
interference) in shares of whole groups (``workers.in_shares``), one on each
forked worker, one per usable CPU (``os.sched_getaffinity``) and at most one
per group.  Where that is one worker, another thread runs (fork copies only
the calling thread) or the platform cannot fork, it runs the same groups in
this process: the fork rule of ``workers.processes``, which the bootstraps
of ``irf`` and ``spillover`` follow too.  A worker's watch thread counts as
another thread, so a check that bootstraps inside a worker does so
in-process rather than forking workers of its own.  Each group is seeded on
its own and scored as in this process, so the reports, and ``verify.csv``'s
bytes, are the same for any worker count.  A worker's memory is its own:
the calling process's peak RSS does not include it.  A worker runs its
groups whole, as sending it blocks of chunks was slower.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
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
    ScenarioConfig,
    linear_impact,
    quadratic_impact,
)
from .scenarios import BURN_IN, _draw, _propagate, _validate_config
from .spillover import estimate_adjusted_impact, oracle_atte_aste, verify_interference
from .weights import ZeroInflatedUniform, gaussian_weights, nonneg_weights, weighted_estimand
from .workers import in_shares

__all__ = [
    "CHECKS",
    "VerificationReport",
    "verify_interference",
    "verify_suite",
    "verify_theorem",
]

@dataclass(frozen=True)
class VerificationReport:
    """Aggregate of one Monte-Carlo check: its reported (estimate, oracle)
    pair, and in ``further`` a report of its own for each further pair, by
    name.  ``passed`` requires every pair to pass."""

    theorem: str
    n_reps: int
    estimate_mean: float
    oracle_mean: float
    discrepancy: float
    mc_se: float
    passed: bool
    further: dict = field(default_factory=dict)

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{self.theorem}: {status}  |mean gamma_hat - oracle| = "
            f"{self.discrepancy:.6g} vs 3*SE = {3 * self.mc_se:.6g} "
            f"({self.n_reps} reps)"
        )
        for name, rep in self.further.items():
            line += (f"; {name} |mean - oracle| = {rep.discrepancy:.6g} "
                     f"vs 3*SE = {3 * rep.mc_se:.6g}")
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
    (``estimate_adjusted_impact`` reads those and ``spec`` of a ``PVARFit``).
    ``rows`` are views into the check run's centring buffer, valid only until
    its next chunk is fitted."""

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


def _t1_pairs(config, pop, fit):
    # Binary contrast = ATE + selection bias, on the true innovations.
    return ((dummy_gamma(pop.assignments, pop.realized_outcomes),
             average_effects(pop)[0] + selection_bias(pop)),)


def _t2_pairs(config, pop, fit):
    return (fit.gamma, average_effects(pop)[0]), (selection_bias(pop), 0.0)


@functools.lru_cache(maxsize=16)
def _gaussian_quadrature_oracle(sigma: float, impact) -> float:
    """Independent fine-grid quadrature of density-weighted derivative."""
    lam = np.linspace(-8.0 * sigma, 8.0 * sigma, 20_001)
    dens = gaussian_weights(sigma, lam).q
    return float(np.trapezoid(dens * impact.derivative(lam), lam))


def _t3_pairs(config, pop, fit):
    return ((fit.gamma, _gaussian_quadrature_oracle(config.policy_sigma, config.impact)),)


def _gaussian_pairs(config, pop, fit, mode):
    sigma = config.policy_sigma
    grid = np.linspace(-5.0 * sigma, 5.0 * sigma, 201)
    return ((fit.gamma, weighted_estimand(gaussian_weights(sigma, grid), pop, mode, grid)),)


def _nonneg_grid(config) -> np.ndarray:
    # Coarse dose grid: the conditional-mean bins carry outcome noise into
    # the ACRT gradient, so fewer bins mean a quieter oracle.  The bins do
    # bias it, by O(h) even for a quadratic impact: -0.0044 at these 41
    # points on a noise-free T6 panel (ROADMAP item 13).
    return np.concatenate([[0.0], np.linspace(*config.support, 41)])


def _t6_pairs(config, pop, fit):
    profile = nonneg_weights(law=ZeroInflatedUniform(config.zero_prob, *config.support))
    return ((fit.gamma, weighted_estimand(profile, pop, "acrt", _nonneg_grid(config))),)


def _t7_pairs(config, pop, fit):
    profile = nonneg_weights(sample=pop.assignments)
    return ((fit.gamma, weighted_estimand(profile, pop, "acrt", _nonneg_grid(config))),)


def _t9_pairs(config, pop, fit):
    groups = pop.groups
    return ((fit.gamma, did_four_means(pop.realized_outcomes, groups.treated_units,
                                       groups.treated_times)),)


def _t10_pairs(config, pop, fit):
    return ((fit.gamma, average_effects(pop)[1]),)


def _interference_pairs(config, pop, fit):
    # Exposure-adjusted coefficient vs ATTE, naive coefficient vs ATTE - ASTE.
    atte, aste = oracle_atte_aste(pop)
    adjusted = estimate_adjusted_impact(fit, pop.exposure.s_values, pop.assignments)
    return (adjusted.delta, atte), (fit.gamma, atte - aste)


@dataclass(frozen=True)
class Check:
    """One verification: a default scenario satisfying the claim's premises,
    sized for desk runs; its per-replication (estimate, oracle) pairs; and
    whether every pair must agree to 1e-10 (``exact``) or its mean
    discrepancy must fall within three Monte-Carlo standard errors.

    ``pairs(config, pop, fit)`` gives one replication's pairs from its
    scenario, its ground truth and its within fit (None for an exact check,
    which needs none): the reported pair first, then one pair per name in
    ``further``.  A variant of a check is its own entry."""

    config: ScenarioConfig
    pairs: Callable
    exact: bool = False
    further: tuple[str, ...] = ()


_T6_T7 = ScenarioConfig(
    regime=NONNEGATIVE_CONTINUOUS, n_units=100, n_times=100, seed=0,
    impact=quadratic_impact(0.5, 0.3), zero_prob=0.5, support=(1.0, 2.0),
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
    ), functools.partial(_gaussian_pairs, mode="acrt")),
    "T5": Check(ScenarioConfig(
        regime=GAUSSIAN_CONTINUOUS, n_units=100, n_times=150, seed=0,
        impact=linear_impact(1.0), policy_sigma=1.0,
    ), functools.partial(_gaussian_pairs, mode="acr")),
    "T6": Check(_T6_T7, _t6_pairs),
    "T7": Check(_T6_T7, _t7_pairs),
    "T9": Check(_T9_T10, _t9_pairs),
    "T10": Check(_T9_T10, _t10_pairs),
    "interference": Check(ScenarioConfig(
        regime=SPILLOVER_DUMMY, n_units=100, n_times=120, seed=0,
        impact=linear_impact(1.0), treat_prob=0.35, spillover_rho=0.5,
    ), _interference_pairs, further=("naive",)),
}
# verify.csv names the interference row after the two claims it checks.
RECORD_NAMES = {"interference": "T11_T12_interference"}


def _check_name(name: str) -> str:
    """The key of ``CHECKS`` that ``name`` spells, in any case."""
    for key in CHECKS:
        if key.upper() == name.upper():
            return key
    raise BadConfig(f"unknown theorem {name!r}; choose from {tuple(CHECKS)}")


def _rep_seeds(seed: int, reps: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.integers(0, 2**63 - 1, size=reps)


def _fit_chunk(states: np.ndarray, n_times: int, centred: np.ndarray) -> list[_RepFit]:
    """Fit the last ``n_times`` periods of a chunk of ``_propagate`` states at
    once, centring them in ``centred`` (b, 2, n_times, n)."""
    states = states[-n_times:]
    stacked = states.reshape(n_times, -1, 2).transpose(1, 0, 2)  # every unit of the chunk
    PanelDataset(stacked, 1, ("policy1", "outcome1"))  # raises NonFinite on overflow
    # an overflowing cross-product is rejected below as a singular design
    with np.errstate(over="ignore", invalid="ignore"):
        cross, rows, means, _ = _within_moments(states, 1, out=centred)
        coef, sigma, ok = _within_ols(cross, 2, states.shape[2] * (n_times - 1))
    if not ok.all():
        raise SingularDesign("a replication's lag Gram matrix is singular or ill-conditioned")
    gamma = sigma[:, 1, 0] / sigma[:, 0, 0]
    return [_RepFit(float(g), (lag, dep), w, c)
            for g, lag, dep, w, c in zip(gamma, *rows, means, coef)]


def _chunk_pairs(checks, config: ScenarioConfig, phi, seeds, work) -> list:
    """Per replication of one chunk, each of ``checks``' pairs, as floats.  Each
    replication is drawn from its own seed; the chunk's panels are propagated
    together through the VAR dynamics into the state slab of ``work`` and
    fitted together from its centring buffer, once for all the checks (not at
    all when every check is exact and ``work`` is None), and each check
    scores each replication on its ground truth and its fit."""
    draws = [_draw(config.with_seed(s)) for s in seeds]
    fits = [None] * len(draws)
    if work is not None:
        slab, centred = work
        states = _propagate(phi, draws, out=slab[:, : len(draws)])
        fits = _fit_chunk(states, config.n_times, centred[: len(draws)])
    return [[tuple((float(est), float(orc)) for est, orc in check.pairs(config, d.pop, fit))
             for check in checks] for d, fit in zip(draws, fits)]


def _pair(name: str, reps: int, estimates: np.ndarray, oracles: np.ndarray,
          exact: bool) -> VerificationReport:
    """The report of one pair from its per-replication estimates and oracles."""
    diffs = estimates - oracles
    if exact:
        discrepancy, mc_se = float(np.abs(diffs).max()), 0.0
        passed = discrepancy < 1e-10
    else:
        discrepancy = float(abs(diffs.mean()))
        mc_se = float(diffs.std(ddof=1) / np.sqrt(diffs.size))
        passed = discrepancy < 3.0 * mc_se
    return VerificationReport(name, reps, float(estimates.mean()), float(oracles.mean()),
                              discrepancy, mc_se, passed)


def _run_shared(names, config: ScenarioConfig, reps: int) -> list[VerificationReport]:
    """Run the checks ``names`` on the same ``reps`` seeded replications of
    ``config``, in chunks of about ``CHUNK_BYTES`` of panel, through one
    working set: each check's report."""
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
    n, t = config.n_units, config.n_times
    per_chunk = min(reps, max(1, CHUNK_BYTES // (n * t * 2 * 8)))
    work = None
    if not all(check.exact for check in checks):
        # one state slab and centring buffer, sized for the largest chunk and
        # reused by every chunk, so no chunk faults in fresh pages
        work = (np.empty((len(phi) + BURN_IN + t, per_chunk, n, 2)),
                np.empty((per_chunk, 2, t, n)))
    rows = []
    for start in range(0, reps, per_chunk):
        rows += _chunk_pairs(checks, config, phi, seeds[start : start + per_chunk], work)
    reports = []
    for name, check, check_rows in zip(names, checks, zip(*rows)):
        # (reps, pairs, 2) -> per pair: its estimates and oracles
        pairs = np.asarray(check_rows, dtype=float).transpose(1, 2, 0)
        reported, *further = [_pair(label, reps, estimates, oracles, check.exact)
                              for label, (estimates, oracles) in zip((name, *check.further), pairs)]
        reports.append(replace(reported, passed=all(r.passed for r in (reported, *further)),
                               further={r.theorem: r for r in further}))
    return reports


def verify_theorem(theorem: str, config: ScenarioConfig | None = None,
                   reps: int = 200) -> VerificationReport:
    """Run the check ``theorem``, any key of ``CHECKS`` in any case, for
    ``reps`` seeded replications of ``config`` (default: the check's default
    scenario).

    T2 also requires the mean selection bias to be zero, and "interference"
    the naive coefficient to centre on ATTE - ASTE, within three Monte-Carlo
    standard errors.
    """
    name = _check_name(theorem)
    return _run_shared([name], config or CHECKS[name].config, reps)[0]


def verify_suite(seed: int, reps: int = 200, names=None) -> list[VerificationReport]:
    """Run checks on their default scenarios at ``seed``: their reports.

    ``names`` are keys of ``CHECKS`` in any case, in the order to report
    (default: all of them; an empty selection runs none), and are all
    resolved before any check runs.  Checks that share a default scenario
    (T6 and T7, T9 and T10) form one group, scored on one run of its
    replications as ``verify_theorem`` scores each.  The groups run in
    shares on forked worker processes, one per usable CPU and at most one
    per group, or in this process where that is one; each group is seeded
    on its own, so the reports do not depend on the worker count.  Where
    groups fail, the error of the first of them, in group order, is raised.
    """
    names = [_check_name(name) for name in (CHECKS if names is None else names)]
    groups = {}  # checks that share a default scenario object, in name order
    for name in dict.fromkeys(names):
        groups.setdefault(id(CHECKS[name].config), []).append(name)
    groups = list(groups.values())

    def share(first: int, stop: int) -> dict[str, VerificationReport]:
        """The reports of groups first..stop - 1, by name."""
        done = {}
        for group in groups[first:stop]:
            config = CHECKS[group[0]].config.with_seed(seed)
            done.update(zip(group, _run_shared(group, config, reps)))
        return done

    done = {}
    for reports in in_shares(share, len(groups)):
        done.update(reports)
    return [done[name] for name in names]
