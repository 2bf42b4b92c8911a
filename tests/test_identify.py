import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_pvar.errors import BootstrapUnstable, CausalPvarError, NotPSD, ZeroPolicyVariance
from causal_pvar.identify import (
    _propagate,
    bootstrap_irf,
    cholesky_lower,
    impact_gamma,
    irf,
    irf_from_impact,
)
from causal_pvar.panel import PVARSpec, fit_pvar
from causal_pvar.scenarios import simulate_var_panel

from conftest import make_var_panel


class TestCholeskyLower:
    def test_identity(self):
        np.testing.assert_allclose(cholesky_lower(np.eye(3)).lower, np.eye(3))

    def test_hand_verified_2x2(self):
        out = cholesky_lower(np.array([[4.0, 2.0], [2.0, 5.0]]))
        np.testing.assert_allclose(out.lower, [[2.0, 0.0], [1.0, 2.0]], atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000), m=st.integers(2, 6))
    def test_reconstruction(self, seed, m):
        a = np.random.default_rng(seed).standard_normal((m, m))
        sigma = a @ a.T
        out = cholesky_lower(sigma)
        assert np.abs(out.lower @ out.lower.T - sigma).max() < 1e-10
        assert (np.diag(out.lower) > 0).all()

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            cholesky_lower(np.array([[1.0, 0.0], [0.0, -1e-6]]))

    def test_tiny_negative_clamped(self):
        sigma = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-11]])
        out = cholesky_lower(sigma)
        assert np.abs(out.lower @ out.lower.T - sigma).max() < 1e-9


class TestImpactGamma:
    def test_lemma_closed_form(self):
        chol = cholesky_lower(np.array([[4.0, 2.0], [2.0, 5.0]]))
        gamma = impact_gamma(chol, 0, 1)
        assert gamma == pytest.approx(0.5, abs=1e-12)
        assert gamma == pytest.approx(2.0 / 4.0, abs=1e-12)  # cov/var

    def test_diagonal_sigma_zero_gamma(self):
        chol = cholesky_lower(np.diag([2.0, 3.0, 1.0]))
        assert impact_gamma(chol, 0, 2) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000), k=st.integers(0, 1))
    def test_recursive_least_squares_oracle(self, seed, k):
        # gamma_{jk} equals the coefficient on variable k in the regression
        # of variable j's residual on the residuals of variables 0..k.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4000, 3)) @ rng.standard_normal((3, 3))
        sigma = np.cov(x.T, ddof=0)
        gamma = impact_gamma(cholesky_lower(sigma), k, 2)
        xc = x - x.mean(axis=0)
        design = xc[:, : k + 1]
        coef = np.linalg.lstsq(design, xc[:, 2], rcond=None)[0]
        assert gamma == pytest.approx(coef[k], abs=1e-10)

    def test_zero_policy_variance(self):
        from causal_pvar.identify import CholeskyFactor

        chol = CholeskyFactor(np.array([[1e-13, 0.0], [0.5, 1.0]]))
        with pytest.raises(ZeroPolicyVariance):
            impact_gamma(chol, 0, 1)

    def test_ordering_requirement(self):
        chol = cholesky_lower(np.eye(2))
        with pytest.raises(Exception):
            impact_gamma(chol, 1, 0)


class TestIrf:
    def test_no_propagation_when_phi_zero(self):
        panel = make_var_panel(np.zeros((2, 2)), 50, 100, seed=0)
        fit = fit_pvar(panel, PVARSpec(1))
        out = irf(fit, cholesky_lower(fit.sigma), 0, 6)
        assert out[0, 0] == pytest.approx(1.0)
        assert np.abs(out[:, 1:]).max() < 0.1  # phi_hat is noise-only
        # exact zero propagation with exactly zero slopes
        from causal_pvar.panel import PVARFit

        fit0 = PVARFit(
            phi=(np.zeros((2, 2)),), mu=np.zeros((50, 2)),
            residuals=fit.residuals, sigma=fit.sigma, spec=PVARSpec(1),
            effective_obs=fit.effective_obs,
        )
        out0 = irf(fit0, cholesky_lower(fit.sigma), 0, 6)
        assert np.abs(out0[:, 1:]).max() == 0.0

    def test_diagonal_recurrence(self):
        from causal_pvar.panel import PVARFit

        sigma = np.array([[1.0, 0.4], [0.4, 1.0]])
        fit = PVARFit(
            phi=(np.diag([0.5, 0.5]),), mu=np.zeros((1, 2)),
            residuals=np.zeros((1, 4, 2)), sigma=sigma, spec=PVARSpec(1),
            effective_obs=4,
        )
        out = irf(fit, cholesky_lower(sigma), 0, 8)
        gamma = impact_gamma(cholesky_lower(sigma), 0, 1)
        for h in range(9):
            assert out[0, h] == pytest.approx(0.5**h, abs=1e-12)
            assert out[1, h] == pytest.approx(0.5**h * gamma, abs=1e-12)

    def test_matches_simulation_differencing_p2(self):
        # Propagation equals the difference between two deterministic paths
        # of the fitted dynamics, with and without a one-time innovation.
        panel = make_var_panel([[0.35, 0.05], [0.15, 0.3]], 30, 150, seed=5)
        fit = fit_pvar(panel, PVARSpec(2))
        chol = cholesky_lower(fit.sigma)
        out = irf(fit, chol, 0, 12)
        impact = chol.lower[:, 0] / chol.lower[0, 0]
        horizon = 12
        shocks = np.zeros((1, horizon + 1, 2))
        shocks[0, 0] = impact
        path = simulate_var_panel(np.stack(fit.phi), np.zeros((1, 2)), shocks)
        base = simulate_var_panel(np.stack(fit.phi), np.zeros((1, 2)), np.zeros_like(shocks))
        diff = (path.values - base.values)[0].T
        np.testing.assert_allclose(out, diff, atol=1e-10)

    def test_unit_shock_normalization_invariant(self):
        panel = make_var_panel([[0.4, 0.1], [0.2, 0.3]], 20, 80, seed=3)
        fit = fit_pvar(panel, PVARSpec(1))
        out = irf(fit, cholesky_lower(fit.sigma), 0, 4)
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)


def _companion_powers(phi, impact, horizon):
    """Responses (b, m, horizon + 1) by powers of the (b, mp, mp) companion matrices
    of p (b, m, m) slope stacks, the loop the VAR recursion replaced."""
    b, m = impact.shape
    mp = m * len(phi)
    comp = np.zeros((b, mp, mp))
    comp[:, :m] = np.concatenate(phi, axis=2)
    comp[:, m:, :-m] = np.eye(mp - m)
    state = np.zeros((b, mp))
    state[:, :m] = impact
    out = np.empty((b, m, horizon + 1))
    for h in range(horizon + 1):
        out[:, :, h] = state[:, :m]
        state = np.einsum("bij,bj->bi", comp, state)
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), p=st.integers(1, 3), m=st.integers(2, 3),
       b=st.integers(1, 5), stacked=st.booleans())
def test_propagation_matches_companion_powers(seed, p, m, b, stacked):
    rng = np.random.default_rng(seed)
    shape = (b, m, m) if stacked else (m, m)
    phi = [rng.uniform(-0.6, 0.6, shape) / p for _ in range(p)]
    impact = rng.standard_normal((b, m))
    got = _propagate(phi, impact, 12)
    want = _companion_powers([np.broadcast_to(f, (b, m, m)) for f in phi], impact, 12)
    assert got.shape == (b, m, 13)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestIrfFromImpact:
    def test_consistency_with_irf(self):
        panel = make_var_panel([[0.4, 0.1], [0.2, 0.3]], 20, 80, seed=7)
        fit = fit_pvar(panel, PVARSpec(1))
        chol = cholesky_lower(fit.sigma)
        impact = chol.lower[:, 0] / chol.lower[0, 0]
        a = irf(fit, chol, 0, 10)
        b = irf_from_impact(fit, impact, 10)
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_negative_horizon_rejected(self):
        panel = make_var_panel([[0.4, 0.1], [0.2, 0.3]], 20, 80, seed=7)
        fit = fit_pvar(panel, PVARSpec(2))
        with pytest.raises(CausalPvarError, match="horizon"):
            irf_from_impact(fit, np.array([1.0, 0.5]), -1)
        with pytest.raises(CausalPvarError, match="horizon"):
            irf(fit, cholesky_lower(fit.sigma), 0, -1)

    def test_zero_impact(self):
        panel = make_var_panel([[0.4, 0.1], [0.2, 0.3]], 20, 80, seed=7)
        fit = fit_pvar(panel, PVARSpec(1))
        out = irf_from_impact(fit, np.zeros(2), 5)
        assert np.abs(out).max() == 0.0

    def test_plug_in_impact_matches_simulation(self):
        panel = make_var_panel([[0.4, 0.1], [0.2, 0.3]], 20, 120, seed=9)
        fit = fit_pvar(panel, PVARSpec(1))
        impact = np.array([1.0, -0.7])
        out = irf_from_impact(fit, impact, 8)
        shocks = np.zeros((1, 9, 2))
        shocks[0, 0] = impact
        path = simulate_var_panel(fit.phi[0], np.zeros((1, 2)), shocks)
        base = simulate_var_panel(fit.phi[0], np.zeros((1, 2)), np.zeros_like(shocks))
        np.testing.assert_allclose(out, (path.values - base.values)[0].T, atol=1e-8)


class TestBootstrapIrf:
    def _panel(self):
        return make_var_panel([[0.3, 0.0], [0.25, 0.3]], 25, 60, seed=21)

    def test_same_seed_bit_identical(self):
        panel = self._panel()
        _, b1 = bootstrap_irf(panel, PVARSpec(1), 0, 6, 120, 0.9, seed=77)
        _, b2 = bootstrap_irf(panel, PVARSpec(1), 0, 6, 120, 0.9, seed=77)
        np.testing.assert_array_equal(b1.lower, b2.lower)
        np.testing.assert_array_equal(b1.upper, b2.upper)

    def test_nested_levels(self):
        panel = self._panel()
        _, wide = bootstrap_irf(panel, PVARSpec(1), 0, 6, 150, 0.90, seed=9)
        _, slim = bootstrap_irf(panel, PVARSpec(1), 0, 6, 150, 0.50, seed=9)
        assert (wide.lower <= slim.lower + 1e-12).all()
        assert (slim.upper <= wide.upper + 1e-12).all()

    def test_minimum_reps_enforced(self):
        with pytest.raises(Exception):
            bootstrap_irf(self._panel(), PVARSpec(1), 0, 4, 50, 0.9, seed=1)

    def test_zero_impact_dgp_bands_contain_zero(self):
        # White-noise DGP with zero impact: at each horizon the 90% bands
        # contain 0 in at least 85% of outer runs.  (Joint containment
        # across horizons necessarily decays toward 0.9^H and is not the
        # calibrated quantity.)
        runs = 30
        per_h = np.zeros(5)
        for r in range(runs):
            panel = make_var_panel(np.zeros((2, 2)), 30, 60, seed=4000 + r)
            _, bands = bootstrap_irf(panel, PVARSpec(1), 0, 4, 200, 0.9, seed=4000 + r)
            per_h += (bands.lower[1] <= 0.0) & (bands.upper[1] >= 0.0)
        assert (per_h >= 0.85 * runs).all()


class TestFitReconstruction:
    def test_every_fit_sigma_reconstructs(self):
        for seed in range(5):
            panel = make_var_panel([[0.3, 0.05], [0.2, 0.3]], 15, 70, seed=seed)
            fit = fit_pvar(panel, PVARSpec(1))
            low = cholesky_lower(fit.sigma).lower
            assert np.abs(low @ low.T - fit.sigma).max() < 1e-10
