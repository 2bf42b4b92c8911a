"""Error paths and contract corners not covered by the main module tests."""

import numpy as np
import pytest

from causal_pvar.errors import (
    BootstrapUnstable,
    CausalPvarError,
    CollinearRegressors,
    GridMismatch,
    RegimeMismatch,
    SingularDesign,
)
from causal_pvar.panel import PanelDataset, PVARSpec, fit_pvar
from causal_pvar.scenarios import (
    GAUSSIAN_CONTINUOUS,
    HOMOGENEOUS_DUMMY,
    ScenarioConfig,
    quadratic_impact,
    simulate_scenario,
)
from causal_pvar.spillover import spillover_regression
from causal_pvar.verify import default_config, verify_theorem
from causal_pvar.weights import gaussian_weights, weighted_estimand

from conftest import make_var_panel


def test_singular_design_raises():
    # Two variables that are exact copies make the lag block rank-deficient.
    rng = np.random.default_rng(0)
    col = rng.standard_normal((5, 40, 1))
    panel = PanelDataset(np.concatenate([col, col], axis=2), 1, ("w", "y"))
    with pytest.raises(SingularDesign):
        fit_pvar(panel, PVARSpec(1))


def test_bootstrap_unstable_when_refits_fail(monkeypatch):
    import causal_pvar.identify as ident

    panel = make_var_panel([[0.3, 0.0], [0.2, 0.3]], 10, 40, seed=1)
    real_ols = ident._within_ols

    def flaky(cross, mp, eff):
        coef, sigma, ok = real_ols(cross, mp, eff)
        return coef, sigma, np.zeros_like(ok)  # every replication fails to refit

    monkeypatch.setattr(ident, "_within_ols", flaky)
    with pytest.raises(BootstrapUnstable):
        ident.bootstrap_irf(panel, PVARSpec(1), 0, 3, 100, 0.9, seed=0)


def test_verify_regime_mismatch():
    cfg = default_config("T2")
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
        weighted_estimand(wide, pop, "acr")


def test_acr_finite_difference_tolerance_at_grid_step_001():
    # Central differences on a 0.01-step grid reproduce the analytic
    # dose-response derivative to 1e-4 away from the boundary.
    grid = np.arange(-3.0, 3.0 + 1e-12, 0.01)
    cfg = ScenarioConfig(
        regime=GAUSSIAN_CONTINUOUS, n_units=10, n_times=30, seed=3,
        impact=quadratic_impact(1.0, 0.4), lambda_grid=grid,
    )
    _, pop = simulate_scenario(cfg)
    from causal_pvar.estimands import acr_on_grid

    analytic = 1.0 + 0.8 * grid
    err = np.abs(acr_on_grid(pop, pop.lambda_grid)[1:-1] - analytic[1:-1]).max()
    assert err < 1e-4


def test_fit_with_exogenous_dummy_absorbs_period_shift():
    # A pandemic-style dummy shifting both series is partialled out; the
    # slopes stay near the truth instead of soaking up the level break.
    phi = np.array([[0.3, 0.0], [0.2, 0.35]])
    panel = make_var_panel(phi, 60, 200, seed=4)
    dummy = np.zeros((60, 200, 1))
    dummy[:, 80:120, 0] = 1.0
    shifted = panel.values + dummy * np.array([2.0, -3.0])
    with_dummy = PanelDataset(shifted, 1, panel.variable_names, exogenous_dummies=dummy)
    fit = fit_pvar(with_dummy, PVARSpec(1, dummy_columns=(0,)))
    assert np.abs(fit.phi[0] - phi).max() < 0.05
    naive = fit_pvar(PanelDataset(shifted, 1, panel.variable_names), PVARSpec(1))
    assert np.abs(naive.phi[0] - phi).max() > np.abs(fit.phi[0] - phi).max()


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
