"""Error paths and contract corners not covered by the main module tests."""

from dataclasses import replace

import numpy as np
import pytest

from causal_pvar.diagnostics import PolicyProbe, lag_criteria, policy_regime_probe
from causal_pvar.errors import (
    BadConfig,
    BadOrdering,
    BootstrapUnstable,
    CausalPvarError,
    CollinearRegressors,
    DegenerateAssignment,
    EmptyTreatedSet,
    GridMismatch,
    InsufficientObs,
    RegimeMismatch,
    SingularDesign,
)
import causal_pvar.identify as ident
from causal_pvar.estimands import (
    acrt_on_grid,
    average_effects,
    did_four_means,
    dummy_gamma,
    selection_bias,
)
from causal_pvar.panel import PanelDataset, PVARSpec, fit_pvar, panel_from_records
from causal_pvar.scenarios import (
    GAUSSIAN_CONTINUOUS,
    HOMOGENEOUS_DUMMY,
    ScenarioConfig,
    build_exposure,
    quadratic_impact,
    ring_adjacency,
    simulate_scenario,
    simulate_var_panel,
)
from causal_pvar.spillover import oracle_atte_aste, spillover_regression
from causal_pvar.verify import CHECKS, verify_theorem
from causal_pvar.weights import (
    ZeroInflatedUniform,
    gaussian_weights,
    nonneg_weights,
    weighted_estimand,
)

from conftest import make_var_panel


def test_singular_design_raises():
    # Two variables that are exact copies make the lag block rank-deficient.
    rng = np.random.default_rng(0)
    col = rng.standard_normal((5, 40, 1))
    panel = PanelDataset(np.concatenate([col, col], axis=2), 1, ("w", "y"))
    with pytest.raises(SingularDesign):
        fit_pvar(panel, PVARSpec(1))


def test_bootstrap_unstable_when_refits_fail(monkeypatch):
    panel = make_var_panel([[0.3, 0.0], [0.2, 0.3]], 10, 40, seed=1)
    real_ols = ident._within_ols

    def flaky(cross, mp, eff):
        coef, sigma, ok = real_ols(cross, mp, eff)
        return coef, sigma, np.zeros_like(ok)  # every replication fails to refit

    monkeypatch.setattr(ident, "_within_ols", flaky)
    with pytest.raises(BootstrapUnstable):
        ident.bootstrap_irf(panel, PVARSpec(1), 0, 3, 100, 0.9, seed=0)


def test_verify_regime_mismatch():
    cfg = CHECKS["T2"].config
    with pytest.raises(RegimeMismatch):
        verify_theorem("T5", cfg, reps=5)


def test_collinear_regressors():
    rng = np.random.default_rng(2)
    w = rng.standard_normal(500)
    w = w - w.mean()
    with pytest.raises(CollinearRegressors):
        spillover_regression(w, w.copy(), w.copy(), n_reps=0)


def test_weighted_estimand_grid_mismatch():
    cfg = ScenarioConfig(regime=GAUSSIAN_CONTINUOUS, n_units=10, n_times=40, seed=0)
    _, pop = simulate_scenario(cfg)
    wide = gaussian_weights(1.0, np.linspace(-8, 8, 801))
    with pytest.raises(GridMismatch):
        weighted_estimand(wide, pop, "acr", np.linspace(-5, 5, 201))


def test_acr_finite_difference_tolerance_at_grid_step_001():
    # Central differences on a 0.01-step grid reproduce the analytic
    # dose-response derivative to 1e-4 away from the boundary.
    grid = np.arange(-3.0, 3.0 + 1e-12, 0.01)
    cfg = ScenarioConfig(
        regime=GAUSSIAN_CONTINUOUS, n_units=10, n_times=30, seed=3,
        impact=quadratic_impact(1.0, 0.4),
    )
    _, pop = simulate_scenario(cfg)
    from causal_pvar.estimands import acr_on_grid

    analytic = 1.0 + 0.8 * grid
    err = np.abs(acr_on_grid(pop, grid)[1:-1] - analytic[1:-1]).max()
    assert err < 1e-4


def test_homogeneous_regime_probe_detects_binary_innovations():
    cfg = ScenarioConfig(regime=HOMOGENEOUS_DUMMY, n_units=15, n_times=60, seed=6)
    _, pop = simulate_scenario(cfg)
    from causal_pvar.diagnostics import policy_regime_probe

    probe = policy_regime_probe(pop.assignments.ravel())
    assert probe.is_binary
    assert probe.share_zero > 0.3


def test_unknown_theorem_rejected():
    with pytest.raises(CausalPvarError):
        verify_theorem("T42", reps=5)


def _short_panel():
    return make_var_panel([[0.3, 0.0], [0.2, 0.3]], 4, 30, seed=0)


def _short_fit():
    return fit_pvar(_short_panel(), PVARSpec(1))


def _short_chol():
    return ident.cholesky_lower(_short_fit().sigma)


def _gaussian_pop():
    return simulate_scenario(ScenarioConfig(GAUSSIAN_CONTINUOUS, 4, 30, seed=0))[1]


def _off_grid_pop():
    """A Gaussian panel whose every dose lies far above DOSE_GRID."""
    pop = _gaussian_pop()
    return replace(pop, assignments=pop.assignments + 50.0)


DOSE_GRID = np.linspace(-5.0, 5.0, 201)


REJECTIONS = [
    pytest.param(lambda: ZeroInflatedUniform(1.0, 1.0, 2.0), BadConfig,
                 r"need 0 <= zero_prob < 1 and 0 < low <= high", id="zero-inflated-all-zero"),
    pytest.param(lambda: gaussian_weights(0.0, np.linspace(-5, 5, 11)), BadConfig,
                 "sigma must be positive", id="gaussian-zero-sigma"),
    pytest.param(lambda: gaussian_weights(1.0, [1.0, 0.0]), BadConfig,
                 "grid must be finite and strictly increasing", id="gaussian-decreasing-grid"),
    pytest.param(lambda: gaussian_weights(1.0, [-6.0, np.nan, 6.0]), BadConfig,
                 "grid must be finite and strictly increasing", id="gaussian-nan-grid"),
    pytest.param(lambda: gaussian_weights(1.0, [-np.inf, 0.0, 6.0]), BadConfig,
                 "grid must be finite and strictly increasing", id="gaussian-inf-grid"),
    pytest.param(lambda: nonneg_weights(), BadConfig,
                 "pass exactly one of sample= or law=", id="nonneg-no-input"),
    pytest.param(lambda: nonneg_weights(sample=[-1.0, 1.0]), BadConfig,
                 "sample must be non-negative and non-empty", id="nonneg-negative-sample"),
    pytest.param(lambda: nonneg_weights(sample=[1.0, 1.0]), BadConfig,
                 "policy sample has zero variance", id="nonneg-constant-sample"),
    pytest.param(lambda: nonneg_weights(law=ZeroInflatedUniform(0.0, 1.5, 1.5)), BadConfig,
                 "policy law has zero variance", id="nonneg-constant-law"),
    pytest.param(lambda: build_exposure(np.zeros((2, 3)), np.zeros((2, 4))), BadConfig,
                 "adjacency must be square", id="exposure-non-square"),
    pytest.param(lambda: build_exposure([[0.0, 2.0], [2.0, 0.0]], np.zeros((2, 4))), BadConfig,
                 "adjacency entries must be 0/1", id="exposure-weighted-edge"),
    pytest.param(lambda: build_exposure(ring_adjacency(5, 1), np.zeros((4, 6))), BadConfig,
                 r"treatment must be \(n_units, n_times\) aligned", id="exposure-misaligned"),
    pytest.param(lambda: build_exposure(ring_adjacency(5, 1), np.full((5, 6), 0.5)), BadConfig,
                 "treatment indicator must be 0/1", id="exposure-fractional-treatment"),
    pytest.param(lambda: build_exposure(ring_adjacency(5, 1), np.zeros((5, 6)), "nope"),
                 BadConfig, "unknown exposure mode 'nope'", id="exposure-unknown-mode"),
    pytest.param(lambda: spillover_regression(np.ones(3), np.ones(4), np.ones(3), n_reps=0),
                 BadConfig, "series must align", id="spillover-misaligned"),
    pytest.param(lambda: spillover_regression(np.ones(3), np.ones(3), np.ones(3), n_reps=5),
                 BadConfig, "bootstrap standard errors need a seed", id="spillover-no-seed"),
    pytest.param(lambda: dummy_gamma([0.0, 0.5, 1.0], [1.0, 2.0, 3.0]), DegenerateAssignment,
                 "assignment must be 0/1", id="dummy-gamma-fractional"),
    pytest.param(lambda: dummy_gamma([1.0, 1.0], [1.0, 2.0]), DegenerateAssignment,
                 "assignment has no variation", id="dummy-gamma-constant"),
    pytest.param(lambda: did_four_means(np.zeros((2, 3)), [True, False], [True, False]),
                 GridMismatch, r"residuals \(2, 3\) do not align with groups \(2, 2\)",
                 id="did-shape-mismatch"),
    pytest.param(lambda: lag_criteria(_short_panel(), 0), BadConfig,
                 "pmax must be >= 1", id="lag-criteria-zero-pmax"),
    pytest.param(lambda: lag_criteria(_short_panel(), 10), InsufficientObs,
                 r"need T - p >= m\*p \+ 2 per unit: T=30, m=2, p=10", id="lag-criteria-long-pmax"),
    pytest.param(lambda: simulate_var_panel(np.zeros((1, 1, 2, 2)), np.zeros((3, 2)),
                                            np.ones((3, 5, 2))),
                 BadConfig, "phi must be an m x m matrix or a stack of them", id="var-panel-4d-phi"),
    pytest.param(lambda: ident.irf(_short_fit(), _short_chol(), -1, 3), CausalPvarError,
                 r"need 0 <= k < m, got k=-1, m=2", id="irf-negative-shock"),
    pytest.param(lambda: ident.irf(_short_fit(), _short_chol(), 2, 3), CausalPvarError,
                 r"need 0 <= k < m, got k=2, m=2", id="irf-shock-past-m"),
    pytest.param(lambda: ident.bootstrap_irf(_short_panel(), PVARSpec(1), -1, 3, 100, 0.9, seed=0),
                 CausalPvarError, r"need 0 <= k < m, got k=-1, m=2",
                 id="bootstrap-irf-negative-shock"),
    pytest.param(lambda: selection_bias(_gaussian_pop()), RegimeMismatch,
                 "selection bias needs a dummy regime, got 'gaussian_continuous'",
                 id="selection-bias-continuous-regime"),
    pytest.param(lambda: average_effects(replace(_gaussian_pop(),
                                                 assignments=np.zeros((4, 30)))),
                 EmptyTreatedSet, "no realized-treated cells", id="effects-nothing-treated"),
    pytest.param(lambda: weighted_estimand(gaussian_weights(1.0, DOSE_GRID), _gaussian_pop(),
                                           "acrx", DOSE_GRID),
                 BadConfig, "unknown mode 'acrx'", id="weighted-estimand-unknown-mode"),
    pytest.param(lambda: weighted_estimand(gaussian_weights(1.0, DOSE_GRID), _off_grid_pop(),
                                           "acrt", DOSE_GRID),
                 GridMismatch, "no realized doses on the grid", id="weighted-estimand-off-grid"),
    pytest.param(lambda: ident.bootstrap_irf(_short_panel(), PVARSpec(1), 0, 3, 100, 1.0, seed=0),
                 CausalPvarError, r"level must be in \(0, 1\)", id="bootstrap-irf-level-one"),
    pytest.param(lambda: PVARSpec(0), BadConfig, "lag_order must be >= 1, got 0",
                 id="spec-zero-lags"),
    pytest.param(lambda: panel_from_records([1, 2], [1], np.zeros((2, 2)), 1), BadOrdering,
                 "records must align", id="records-misaligned"),
    pytest.param(lambda: fit_pvar(_short_panel(), PVARSpec(29)), InsufficientObs,
                 r"need T - p >= m\*p \+ 2 per unit: T=30, m=2, p=29", id="fit-lags-past-panel"),
    pytest.param(lambda: oracle_atte_aste(_gaussian_pop()), RegimeMismatch,
                 "potential-outcome panel carries no exposure truth", id="atte-no-exposure"),
    pytest.param(lambda: verify_theorem("T2", reps=1), BadConfig,
                 "need at least 2 replications", id="verify-one-rep"),
    # One of the two 4 x 8 block-timed replications has a singular lag Gram
    # matrix, and the engine refuses the whole check.
    pytest.param(lambda: verify_theorem("T9", replace(CHECKS["T9"].config, n_units=4,
                                                      n_times=8, seed=1), reps=2),
                 SingularDesign, "a replication's lag Gram matrix is singular",
                 id="verify-singular-replication"),
]


@pytest.mark.parametrize("call, error, match", REJECTIONS)
def test_bad_input_raises_its_library_error(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_acrt_is_nan_on_a_grid_no_dose_reaches():
    assert np.isnan(acrt_on_grid(_off_grid_pop(), DOSE_GRID)).all()


def test_regime_probe_of_a_constant_series_is_binary_with_zero_moments():
    assert policy_regime_probe(np.full(40, 2.0)) == PolicyProbe(True, 0.0, 0.0, 0.0, 0.0)
