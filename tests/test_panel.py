import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_pvar.errors import (
    BadOrdering,
    DegenerateDummy,
    InsufficientObs,
    NonFinite,
    UnbalancedPanel,
)
from causal_pvar.panel import (
    PanelDataset,
    PVARSpec,
    companion,
    fit_pvar,
    panel_from_records,
    within_demean,
)

from conftest import make_var_panel


class TestValidatePanel:
    def test_well_formed_accepted(self):
        vals = np.arange(2 * 3 * 2, dtype=float).reshape(2, 3, 2)
        panel = PanelDataset(vals, 1, ("w", "y"))
        np.testing.assert_array_equal(panel.values, vals)
        assert (panel.n_policies, panel.n_outcomes) == (1, 1)

    def test_nan_cell_rejected(self):
        vals = np.ones((2, 3, 2))
        vals[1, 2, 0] = np.nan
        with pytest.raises(NonFinite, match=r"\(unit=2, time=3, variable=1\)"):
            PanelDataset(vals, 1, ("w", "y"))

    def test_missing_record_rejected(self):
        units = [1, 1, 1, 2, 2]
        times = [1, 2, 3, 1, 2]  # unit 2 missing t=3
        values = np.ones((5, 2))
        with pytest.raises(UnbalancedPanel) as err:
            panel_from_records(units, times, values, 1)
        assert err.value.unit == 2 and err.value.time == 3

    def test_all_nan_record_is_non_finite_not_missing(self):
        units = [1, 1, 1, 2, 2, 2]
        times = [1, 2, 3, 1, 2, 3]
        values = np.ones((6, 2))
        values[1] = np.nan  # (1, 2) is present, every value NaN
        with pytest.raises(NonFinite, match=r"\(unit=1, time=2, variable=1\)"):
            panel_from_records(units, times, values, 1)
        with pytest.raises(UnbalancedPanel, match=r"^missing cell \(unit=1, time=2\)$"):
            panel_from_records(np.delete(units, 1), np.delete(times, 1), np.delete(values, 1, 0), 1)

    def test_repeated_record_rejected(self):
        # (2, 1) repeats first in row order, (1, 2) first in (unit, time) order
        units = [1, 1, 1, 2, 2, 2, 2, 1]
        times = [1, 2, 3, 1, 2, 3, 1, 2]
        with pytest.raises(UnbalancedPanel, match=r"^repeated cell \(unit=1, time=2\)$") as err:
            panel_from_records(units, times, np.arange(16.0).reshape(8, 2), 1)
        assert err.value.unit == 1 and err.value.time == 2

    def test_records_keep_their_sorted_labels(self):
        units = [205, 101, 205, 101]
        times = [2005, 2005, 2000, 2000]
        panel = panel_from_records(units, times, np.arange(8.0).reshape(4, 2), 1)
        np.testing.assert_array_equal(panel.unit_labels, [101, 205])
        np.testing.assert_array_equal(panel.time_labels, [2000, 2005])
        np.testing.assert_array_equal(panel.values[:, :, 0], [[6.0, 2.0], [4.0, 0.0]])
        default = PanelDataset(np.zeros((3, 4, 2)), 1, ("w", "y"))
        np.testing.assert_array_equal(default.unit_labels, [1, 2, 3])
        np.testing.assert_array_equal(default.time_labels, [1, 2, 3, 4])

    @pytest.mark.parametrize("change, error, match", [
        pytest.param({"values": np.ones((2, 4))}, BadOrdering, "got ndim=2", id="not-3d"),
        pytest.param({"unit_labels": [1, 2, 3]}, BadOrdering, "one unit label", id="unit-labels"),
        pytest.param({"time_labels": [1, 2]}, BadOrdering, "one time label", id="time-labels"),
        pytest.param({"values": np.ones((2, 4, 1)), "n_policies": 0, "variable_names": ("y",)},
                     BadOrdering, "at least 2 variables", id="one-variable"),
        pytest.param({"n_policies": 2}, BadOrdering, "K=2, m=2", id="no-outcome"),
        pytest.param({"n_policies": -1}, BadOrdering, "K=-1, m=2", id="negative-k"),
        pytest.param({"variable_names": ("w",)}, BadOrdering, "1 variable names for 2",
                     id="name-count"),
        pytest.param({"exogenous_dummies": np.ones((2, 3, 1))}, BadOrdering,
                     r"share the \(unit, time\) grid", id="dummy-grid"),
        pytest.param({"exogenous_dummies": np.ones((2, 4))}, BadOrdering,
                     r"share the \(unit, time\) grid", id="dummy-2d"),
        pytest.param({"exogenous_dummies": np.full((2, 4, 1), np.nan)}, NonFinite,
                     "non-finite exogenous dummy", id="non-finite-dummy"),
        # values are checked for finiteness before the ordering metadata
        pytest.param({"values": np.full((2, 4, 2), np.inf), "n_policies": 2}, NonFinite,
                     r"\(unit=1, time=1, variable=1\)", id="non-finite-before-metadata"),
    ])
    def test_malformed_panel_is_rejected_when_built(self, change, error, match):
        fields = {"values": np.ones((2, 4, 2)), "n_policies": 1, "variable_names": ("w", "y")}
        with pytest.raises(error, match=match):
            PanelDataset(**{**fields, **change})


class TestWithinDemean:
    def test_constant_series_zeroed(self):
        vals = np.full((3, 5, 2), 7.0)
        vals[1] = -2.5
        out = within_demean(PanelDataset(vals, 1, ("w", "y")))
        assert np.abs(out.values).max() == 0.0

    def test_simple_arithmetic(self):
        vals = np.zeros((1, 3, 2))
        vals[0, :, 0] = [1.0, 2.0, 3.0]
        out = within_demean(PanelDataset(vals, 1, ("w", "y")))
        np.testing.assert_allclose(out.values[0, :, 0], [-1.0, 0.0, 1.0])

    def test_unit_effects_removed_exactly(self):
        # Same shocks with and without unit effects: demeaned panels agree.
        mu = np.tile([5.0, -3.0], (6, 1))
        with_mu = make_var_panel([[0.4, 0.1], [0.2, 0.3]], 6, 40, seed=5, mu=mu)
        without = make_var_panel([[0.4, 0.1], [0.2, 0.3]], 6, 40, seed=5)
        a = within_demean(with_mu).values
        b = within_demean(without).values
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_degenerate_dummy(self):
        vals = np.random.default_rng(0).standard_normal((4, 10, 2))
        dummies = np.ones((4, 10, 1))  # constant per unit: collinear with means
        panel = PanelDataset(vals, 1, ("w", "y"), exogenous_dummies=dummies)
        with pytest.raises(DegenerateDummy):
            within_demean(panel, PVARSpec(1, dummy_columns=(0,)))

    def test_dummy_partialled_out(self):
        rng = np.random.default_rng(1)
        n, t = 8, 60
        dummy = np.zeros((n, t, 1))
        dummy[:, 20:30, 0] = 1.0
        base = rng.standard_normal((n, t, 2))
        shifted = base + 4.0 * dummy  # both variables load on the dummy
        panel = PanelDataset(shifted, 1, ("w", "y"), exogenous_dummies=dummy)
        out = within_demean(panel, PVARSpec(1, dummy_columns=(0,)))
        flat_d = (dummy - dummy.mean(axis=1, keepdims=True)).reshape(-1)
        for v in range(2):
            assert abs(flat_d @ out.values[:, :, v].reshape(-1)) < 1e-8


class TestFitPvar:
    def test_noiseless_recurrence_exact(self):
        # x_t = 0.5 x_{t-1} with no shocks after t=0 is fitted exactly.
        innov = np.zeros((4, 50, 2))
        innov[:, 0, :] = np.random.default_rng(3).standard_normal((4, 2)) * 2.0
        from causal_pvar.scenarios import simulate_var_panel

        panel = simulate_var_panel(np.diag([0.5, 0.5]), np.zeros((4, 2)), innov)
        fit = fit_pvar(panel, PVARSpec(1))
        np.testing.assert_allclose(fit.phi[0], np.diag([0.5, 0.5]), atol=1e-8)
        assert np.abs(fit.residuals).max() < 1e-8

    def test_zero_phi_estimates_small(self):
        # Monte-Carlo SE of each slope under a white-noise DGP is about
        # 1/sqrt(N(T-1)); 200 seeds put 3*SE near 0.02 for N=T=200.  A single
        # large panel estimate should sit inside that band.
        errs = []
        for seed in range(8):
            panel = make_var_panel(np.zeros((2, 2)), 200, 200, seed=seed)
            fit = fit_pvar(panel, PVARSpec(1))
            errs.append(np.abs(fit.phi[0]).max())
        assert np.median(errs) < 0.02

    def test_phi_recovery(self):
        phi = np.array([[0.5, 0.0], [0.2, 0.3]])
        panel = make_var_panel(phi, 100, 300, seed=9)
        fit = fit_pvar(panel, PVARSpec(1))
        assert np.abs(fit.phi[0] - phi).max() < 0.02

    def test_residual_orthogonality_and_psd(self):
        panel = make_var_panel([[0.4, 0.1], [0.2, 0.3]], 20, 80, seed=2)
        fit = fit_pvar(panel, PVARSpec(2))
        # residuals orthogonal to every lag regressor column
        vals = panel.values
        lags = np.concatenate([vals[:, 2 - l : -l, :] for l in (1, 2)], axis=2)
        lags = lags - lags.mean(axis=1, keepdims=True)
        res = fit.residuals.reshape(-1, 2)
        lag_flat = lags.reshape(-1, 4)
        assert np.abs(res.T @ lag_flat).max() / fit.effective_obs < 1e-10
        assert np.abs(fit.residuals.mean(axis=1)).max() < 1e-10
        assert np.linalg.eigvalsh(fit.sigma).min() >= -1e-10

    def test_insufficient_obs(self):
        panel = make_var_panel(np.zeros((2, 2)), 3, 6, seed=0)
        with pytest.raises(InsufficientObs):
            fit_pvar(panel, PVARSpec(2))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), shift=st.floats(-50, 50))
    def test_fixed_effect_absorption(self, seed, shift):
        # Adding any per-unit constant leaves slopes and residuals unchanged.
        panel = make_var_panel([[0.4, 0.1], [0.2, 0.3]], 6, 40, seed=seed)
        fit = fit_pvar(panel, PVARSpec(1))
        offsets = shift * (1.0 + np.arange(6))[:, None, None] * np.array([1.0, -0.5])
        shifted = PanelDataset(panel.values + offsets, 1, panel.variable_names)
        fit2 = fit_pvar(shifted, PVARSpec(1))
        np.testing.assert_allclose(fit2.phi[0], fit.phi[0], atol=1e-9)
        np.testing.assert_allclose(fit2.residuals, fit.residuals, atol=1e-9)

    def test_relabeling_units_permutes_mu_only(self):
        panel = make_var_panel([[0.4, 0.1], [0.2, 0.3]], 8, 60, seed=4,
                               mu=np.random.default_rng(7).normal(size=(8, 2)))
        fit = fit_pvar(panel, PVARSpec(1))
        perm = np.random.default_rng(8).permutation(8)
        fit_p = fit_pvar(PanelDataset(panel.values[perm], 1, panel.variable_names), PVARSpec(1))
        np.testing.assert_allclose(fit_p.phi[0], fit.phi[0], atol=1e-12)
        np.testing.assert_allclose(fit_p.sigma, fit.sigma, atol=1e-12)
        np.testing.assert_allclose(fit_p.mu, fit.mu[perm], atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), t=st.integers(12, 40),
           m=st.integers(2, 3), p=st.integers(1, 2), scale=st.floats(0.0, 100.0))
    def test_fit_invariant_to_unit_constants_and_unit_order(self, seed, n, t, m, p, scale):
        rng = np.random.default_rng(seed)
        phi = 0.4 / m * rng.uniform(-1.0, 1.0, size=(p, m, m))
        panel = make_var_panel(phi, n, t, seed=seed)
        fit = fit_pvar(panel, PVARSpec(p))
        shifted = panel.values + scale * rng.uniform(-1.0, 1.0, size=(n, 1, m))
        perm = rng.permutation(n)
        for values in (shifted, panel.values[perm]):
            other = fit_pvar(PanelDataset(values, 1, panel.variable_names), PVARSpec(p))
            for lag in range(p):
                np.testing.assert_allclose(other.phi[lag], fit.phi[lag], rtol=0, atol=1e-10)
            np.testing.assert_allclose(other.sigma, fit.sigma, rtol=0, atol=1e-10)

    def test_mu_recovered(self):
        mu = np.array([[2.0, -1.0]]).repeat(50, axis=0) * np.linspace(0.5, 1.5, 50)[:, None]
        panel = make_var_panel([[0.4, 0.0], [0.2, 0.3]], 50, 400, seed=11, mu=mu)
        fit = fit_pvar(panel, PVARSpec(1))
        assert np.abs(fit.mu - mu).mean() < 0.2


class TestCompanion:
    def test_p1_is_phi(self):
        panel = make_var_panel([[0.4, 0.1], [0.2, 0.3]], 6, 40, seed=1)
        fit = fit_pvar(panel, PVARSpec(1))
        np.testing.assert_array_equal(companion(fit), fit.phi[0])

    def test_textbook_layout_m1_p2(self):
        # Scalar series with two lags: [[phi1, phi2], [1, 0]].
        from causal_pvar.panel import PVARFit

        fit = PVARFit(
            phi=(np.array([[0.5]]), np.array([[0.2]])),
            mu=np.zeros((1, 1)),
            residuals=np.zeros((1, 5, 1)),
            sigma=np.eye(1),
            spec=PVARSpec(2),
            effective_obs=5,
        )
        np.testing.assert_array_equal(companion(fit), [[0.5, 0.2], [1.0, 0.0]])

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000), p=st.integers(1, 3))
    def test_top_block_row_bit_exact(self, seed, p):
        panel = make_var_panel([[0.3, 0.05], [0.1, 0.25]], 8, 80, seed=seed)
        fit = fit_pvar(panel, PVARSpec(p))
        top = companion(fit)[:2, :]
        np.testing.assert_array_equal(top, np.hstack(fit.phi))
