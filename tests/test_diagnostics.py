from dataclasses import replace

import numpy as np
import pytest

from causal_pvar.diagnostics import (
    lag_criteria,
    policy_regime_probe,
    residual_autocorr,
    stationarity,
)
from causal_pvar.errors import BadConfig
from causal_pvar.panel import PanelDataset, PVARFit, PVARSpec, fit_pvar
from causal_pvar.scenarios import (
    GAUSSIAN_CONTINUOUS,
    ScenarioConfig,
    simulate_scenario,
    simulate_var_panel,
)

from conftest import make_var_panel

PHI1 = np.array([[0.3, 0.0], [0.15, 0.25]])
PHI2 = np.array([[0.25, 0.0], [0.10, 0.20]])


def make_var2_panel(n, t, seed):
    rng = np.random.default_rng(seed)
    innov = rng.standard_normal((n, t + 30, 2))
    panel = simulate_var_panel(np.stack([PHI1, PHI2]), np.zeros((n, 2)), innov)
    return PanelDataset(panel.values[:, -t:, :], 1, panel.variable_names)


class TestLagCriteria:
    def test_selects_true_order_var2(self):
        hits = sum(
            lag_criteria(make_var2_panel(100, 300, 1000 + r), 4).chosen["bic_like"] == 2
            for r in range(20)
        )
        assert hits >= 18

    def test_white_noise_selects_one(self):
        hits = 0
        for r in range(20):
            wn = PanelDataset(
                np.random.default_rng(2000 + r).standard_normal((100, 300, 2)), 1, ("w", "y")
            )
            hits += lag_criteria(wn, 4).chosen["bic_like"] == 1
        assert hits >= 18

    def test_table_shape_and_argmin(self):
        table = lag_criteria(make_var2_panel(40, 200, 3), 6)
        assert list(table.lags) == [1, 2, 3, 4, 5, 6]
        for crit in ("bic_like", "aic_like", "hq_like"):
            col = getattr(table, crit)
            assert col.shape == (6,)
            assert table.chosen[crit] == int(np.argmin(col)) + 1

    def test_penalties_increase_in_p(self):
        # On pure noise the fit term barely moves, so each criterion grows
        # with p once the penalty dominates; check the penalty arithmetic
        # directly instead of the noisy fit.
        eff = 10_000
        m = 2
        for p_small, p_big in [(1, 2), (3, 5)]:
            for weight in (np.log(eff), 2.0, 2.0 * np.log(np.log(eff))):
                small = m * m * p_small / eff * weight
                big = m * m * p_big / eff * weight
                assert big > small

    def test_tie_break_toward_smaller_p(self):
        table = lag_criteria(make_var2_panel(30, 150, 5), 3)
        col = table.bic_like.copy()
        col[2] = col[table.chosen["bic_like"] - 1]  # forge a tie
        assert int(np.argmin(col)) + 1 <= 3


class TestResidualAutocorr:
    def test_iid_residuals_pass(self):
        passes = 0
        for r in range(20):
            fit = fit_pvar(make_var_panel(PHI1, 100, 300, seed=500 + r), PVARSpec(1))
            passes += not residual_autocorr(fit, 2).violated
        assert passes >= 18

    def test_underfit_flagged(self):
        flags = 0
        for r in range(20):
            fit = fit_pvar(make_var2_panel(100, 300, 700 + r), PVARSpec(1))
            flags += residual_autocorr(fit, 2).violated
        assert flags >= 18

    def test_matches_two_pass_oracle(self):
        fit = fit_pvar(make_var_panel(PHI1, 10, 60, seed=4), PVARSpec(1))
        diag = residual_autocorr(fit, 3)
        res = fit.residuals
        for s in range(1, 4):
            for j in range(2):
                for l in range(2):
                    a = res[:, s:, j].ravel()
                    b = res[:, :-s, l].ravel()
                    oracle = np.corrcoef(a, b)[0, 1]
                    assert diag.tensor[j, l, s - 1] == pytest.approx(oracle, abs=1e-12)

    def test_zero_variance_guard(self):
        fit = PVARFit(
            phi=(np.zeros((2, 2)),), mu=np.zeros((3, 2)),
            residuals=np.zeros((3, 20, 2)), sigma=np.zeros((2, 2)),
            spec=PVARSpec(1), effective_obs=60,
        )
        diag = residual_autocorr(fit, 2)
        assert np.abs(diag.tensor).max() == 0.0
        assert not diag.violated

    @pytest.mark.parametrize("scale", [1e-78, 1e-70, 1e70])
    def test_correlations_do_not_depend_on_the_data_units(self, scale):
        panel, _ = simulate_scenario(ScenarioConfig(GAUSSIAN_CONTINUOUS, 60, 100, 3))
        want = residual_autocorr(fit_pvar(panel, PVARSpec(1)), 3)
        got = residual_autocorr(fit_pvar(replace(panel, values=panel.values * scale),
                                         PVARSpec(1)), 3)
        np.testing.assert_allclose(got.tensor, want.tensor, rtol=0, atol=1e-12)
        assert got.violated == want.violated

    def test_smax_must_leave_a_pair_of_periods(self):
        # 20 residual periods per unit: lag 19 pairs the last period with the
        # first; a longer lag has nothing to correlate and counts no test.
        res = np.random.default_rng(4).standard_normal((3, 20, 2))
        fit = PVARFit(
            phi=(np.zeros((2, 2)),), mu=np.zeros((3, 2)), residuals=res,
            sigma=np.eye(2), spec=PVARSpec(1), effective_obs=60,
        )
        assert np.abs(residual_autocorr(fit, 19).tensor[:, :, -1]).max() > 0.0
        for smax in (0, 20, 500):
            with pytest.raises(BadConfig):
                residual_autocorr(fit, smax)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_bound_matches_scipy_quantile(self, m):
        from scipy import stats

        fit = PVARFit(
            phi=(np.zeros((m, m)),), mu=np.zeros((3, m)),
            residuals=np.zeros((3, 20, m)), sigma=np.eye(m),
            spec=PVARSpec(1), effective_obs=60,
        )
        for smax in range(1, 7):
            want = stats.norm.ppf(1.0 - 0.05 / (2 * m * m * smax)) / np.sqrt(60)
            got = residual_autocorr(fit, smax).bound
            assert abs(got - want) <= 1e-15 * want


def _fit_with_phi(phi_list):
    phi_list = tuple(np.asarray(p, dtype=float) for p in phi_list)
    m = phi_list[0].shape[0]
    return PVARFit(
        phi=phi_list, mu=np.zeros((2, m)), residuals=np.zeros((2, 10, m)),
        sigma=np.eye(m), spec=PVARSpec(len(phi_list)), effective_obs=20,
    )


class TestStationarity:
    def test_diagonal(self):
        out = stationarity(_fit_with_phi([np.diag([0.5, 0.5])]))
        assert out.spectral_radius == pytest.approx(0.5, abs=1e-9)
        assert out.stationary

    def test_zero_phi(self):
        out = stationarity(_fit_with_phi([np.zeros((2, 2))]))
        assert out.spectral_radius == 0.0 and out.stationary

    def test_scalar_two_lags_vs_root_oracle(self):
        # Largest root of z^2 - 0.9 z - 0.2.
        out = stationarity(_fit_with_phi([[[0.9]], [[0.2]]]))
        oracle = max(abs(np.roots([1.0, -0.9, -0.2])))
        assert out.spectral_radius == pytest.approx(oracle, abs=1e-6)
        assert not out.stationary

    def test_diagonal_radius_matches_max_abs(self):
        out = stationarity(_fit_with_phi([np.diag([0.5, -0.3])]))
        assert out.spectral_radius == pytest.approx(0.5, abs=1e-9)

    def test_complex_pair_radius_is_exact(self):
        # Dominant complex pairs on non-normal matrices: the modulus of a
        # complex root pair is sqrt of the product of the pair.
        # VAR(1): trace^2 / 4 = 0.09 < det = 0.44, so |lambda| = sqrt(0.44).
        phi = np.array([[0.4, -1.2], [0.3, 0.2]])
        out = stationarity(_fit_with_phi([phi]))
        assert abs(out.spectral_radius - np.sqrt(0.44)) < 1e-12
        assert out.stationary
        # VAR(2): det(z^2 I - phi1 z - phi2) = (z^2 - 0.5 z)(z^2 - 1.2 z + 0.6),
        # whose largest roots are a complex pair of modulus sqrt(0.6).
        phi1 = np.array([[0.5, 0.0], [0.3, 1.2]])
        phi2 = np.array([[0.0, 0.0], [0.0, -0.6]])
        out = stationarity(_fit_with_phi([phi1, phi2]))
        assert abs(out.spectral_radius - np.sqrt(0.6)) < 1e-12
        assert out.stationary


class TestPolicyProbe:
    def test_gaussian_normality_stat(self):
        below = 0
        for r in range(20):
            x = np.random.default_rng(r).standard_normal(10_000)
            below += policy_regime_probe(x).normality_stat < 9.21
        assert below >= 19

    def test_bernoulli_binary(self):
        x = (np.random.default_rng(0).random(500) < 0.3).astype(float)
        probe = policy_regime_probe(x - x.mean())
        assert probe.is_binary

    @pytest.mark.parametrize("scale", [1e-11, 1.0, 1e11])
    def test_binary_verdict_does_not_depend_on_units(self, scale):
        rng = np.random.default_rng(0)
        assert not policy_regime_probe(scale * rng.standard_normal(500)).is_binary
        assert policy_regime_probe(scale * (rng.random(500) < 0.3)).is_binary
        assert policy_regime_probe(np.full(500, 0.3 * scale)).is_binary

    @pytest.mark.parametrize("value", [0.1, 0.3, 1 / 3, 7.7, 1e5 + 0.1])
    def test_constant_series_has_zero_moments(self, value):
        # the mean of a constant can miss it by rounding; the moments must not see that
        probe = policy_regime_probe(np.full(500, value))
        assert probe.is_binary
        assert (probe.skewness, probe.excess_kurtosis, probe.normality_stat) == (0.0, 0.0, 0.0)

    def test_share_zero(self):
        x = np.concatenate([np.zeros(250), np.abs(np.random.default_rng(1).standard_normal(250))])
        probe = policy_regime_probe(x)
        assert probe.share_zero == pytest.approx(0.5)

    def test_minimum_sample(self):
        with pytest.raises(Exception):
            policy_regime_probe(np.ones(10))
