import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from causal_pvar.errors import AllZeros, BadConfig, GridTooNarrow
from causal_pvar.scenarios import (
    GAUSSIAN_CONTINUOUS,
    NONNEGATIVE_CONTINUOUS,
    ScenarioConfig,
    linear_impact,
    quadratic_impact,
    simulate_scenario,
)
from causal_pvar.weights import (
    ZeroInflatedUniform,
    gaussian_weights,
    nonneg_weights,
    weighted_estimand,
)

DENSE = np.linspace(-6.0, 6.0, 4001)


class TestGaussianWeights:
    def test_value_at_zero(self):
        prof = gaussian_weights(1.0, DENSE)
        mid = np.argmin(np.abs(prof.grid))
        assert prof.q[mid] == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-9)

    def test_integrates_to_one(self):
        prof = gaussian_weights(1.0, DENSE)
        assert prof.q_integral == pytest.approx(1.0, abs=1e-6)

    def test_matches_density_pointwise(self):
        grid = np.linspace(-12.0, 12.0, 2001)
        prof = gaussian_weights(2.0, grid)
        np.testing.assert_allclose(prof.q, stats.norm.pdf(grid, scale=2.0), atol=1e-8)

    def test_theta_matches_partial_moment_quadrature(self):
        # theta(lam) = integral of m f(m) below lam = -sigma^2 q(lam), by quadrature.
        from scipy.integrate import quad

        prof = gaussian_weights(1.5, np.linspace(-9, 9, 25))
        for lam, theta in zip(prof.grid[::6], -(1.5**2) * prof.q[::6]):
            oracle, _ = quad(lambda m: m * stats.norm.pdf(m, scale=1.5), -20, lam)
            assert theta == pytest.approx(oracle, abs=1e-9)

    def test_no_extensive_margin(self):
        assert gaussian_weights(1.0, DENSE).q0 == 0.0

    def test_narrow_grid_rejected(self):
        with pytest.raises(GridTooNarrow):
            gaussian_weights(1.0, np.linspace(-2, 2, 101))


class TestNonnegWeights:
    def test_closed_form_uniform_mixture(self):
        # P(0) = 0.5, positive part Uniform[1, 2]:
        # q0 = 0.75 * 0.5 * 1 / var with var = 7/6 - 0.5625.
        law = ZeroInflatedUniform(0.5, 1.0, 2.0)
        prof = nonneg_weights(law=law)
        var = 7.0 / 6.0 - 0.5625
        assert prof.q0 == pytest.approx(0.75 * 0.5 * 1.0 / var, abs=1e-12)
        assert prof.q0 == pytest.approx(0.6207, abs=1e-4)
        assert prof.q_integral == pytest.approx(0.3793, abs=1e-4)
        assert prof.q_integral + prof.q0 == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_positive_part(self):
        # Two-point law: all positive mass at a single point d.
        law = ZeroInflatedUniform(0.4, 1.7, 1.7)
        prof = nonneg_weights(law=law)
        assert prof.q0 == pytest.approx(1.0, abs=1e-12)
        assert prof.q_integral == pytest.approx(0.0, abs=1e-12)

    def test_empirical_converges_to_law(self):
        rng = np.random.default_rng(0)
        n = 1_000_000
        w = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(1.0, 2.0, size=n))
        prof = nonneg_weights(sample=w)
        law_prof = nonneg_weights(law=ZeroInflatedUniform(0.5, 1.0, 2.0))
        assert prof.q0 == pytest.approx(law_prof.q0, abs=1e-2)
        np.testing.assert_allclose(prof.q, law_prof.q, atol=1e-2)
        assert prof.q_integral + prof.q0 == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        p0=st.floats(0.05, 0.9),
        low=st.floats(0.2, 3.0),
        width=st.floats(0.0, 4.0),
    )
    def test_normalization_identity_any_mixture(self, p0, low, width):
        prof = nonneg_weights(law=ZeroInflatedUniform(p0, low, low + width))
        assert prof.q_integral + prof.q0 == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_normalization_identity_samples(self, seed):
        rng = np.random.default_rng(seed)
        w = np.where(rng.random(5000) < 0.4, 0.0, rng.gamma(2.0, 1.0, size=5000) + 0.1)
        prof = nonneg_weights(sample=w)
        assert prof.q_integral + prof.q0 == pytest.approx(1.0, abs=1e-9)

    def test_no_zero_mass_flagged(self):
        prof = nonneg_weights(sample=np.random.default_rng(3).uniform(1, 2, 1000))
        assert prof.q0 == 0.0

    def test_all_zeros(self):
        with pytest.raises(AllZeros):
            nonneg_weights(sample=np.zeros(100))


class TestWeightedEstimand:
    def test_linear_impact_gaussian_returns_slope(self):
        cfg = ScenarioConfig(regime=GAUSSIAN_CONTINUOUS, n_units=40, n_times=60,
                             seed=1, impact=linear_impact(1.7))
        _, pop = simulate_scenario(cfg)
        grid = np.linspace(-5.0, 5.0, 201)
        prof = gaussian_weights(1.0, grid)
        # constant derivative: the integral is the slope times one
        assert weighted_estimand(prof, pop, "acr", grid) == pytest.approx(1.7, abs=1e-5)

    def test_quadratic_matches_fine_quadrature(self):
        cfg = ScenarioConfig(regime=GAUSSIAN_CONTINUOUS, n_units=40, n_times=60,
                             seed=2, impact=quadratic_impact(1.0, 0.4))
        _, pop = simulate_scenario(cfg)
        grid = np.linspace(-5.0, 5.0, 201)
        prof = gaussian_weights(1.0, grid)
        got = weighted_estimand(prof, pop, "acr", grid)
        lam = np.linspace(-9, 9, 40_001)
        oracle = np.trapezoid(stats.norm.pdf(lam) * (1.0 + 0.8 * lam), lam)
        assert got == pytest.approx(oracle, abs=1e-3)

    @pytest.mark.parametrize("curve_grid", [
        pytest.param(np.array([1.0, 0.0]), id="decreasing"),
        pytest.param(np.array([0.0, np.nan, 1.0]), id="nan"),
    ])
    def test_bad_curve_grid_is_rejected(self, curve_grid):
        cfg = ScenarioConfig(regime=GAUSSIAN_CONTINUOUS, n_units=10, n_times=20, seed=0)
        _, pop = simulate_scenario(cfg)
        prof = gaussian_weights(1.0, np.linspace(-5.0, 5.0, 201))
        with pytest.raises(BadConfig, match="^curve_grid must be finite and strictly increasing$"):
            weighted_estimand(prof, pop, "acr", curve_grid)

    def test_nonneg_composition_tracks_cov_over_var(self):
        # Under random dosing the composition equals the population
        # regression coefficient cov(W, g(W)) / var(W); check against the
        # analytic value for the uniform mixture.
        diffs = []
        grid = np.concatenate([[0.0], np.linspace(1, 2, 41)])
        for seed in range(25):
            cfg = ScenarioConfig(regime=NONNEGATIVE_CONTINUOUS, n_units=60, n_times=60,
                                 seed=seed, impact=quadratic_impact(0.5, 0.3),
                                 zero_prob=0.5, support=(1.0, 2.0))
            _, pop = simulate_scenario(cfg)
            prof = nonneg_weights(sample=pop.assignments)
            ew, ew2, ew3 = 0.75, 7 / 6, 15 / 8
            var = ew2 - ew**2
            analytic = (0.5 * ew2 + 0.3 * ew3 - ew * (0.5 * ew + 0.3 * ew2)) / var
            diffs.append(weighted_estimand(prof, pop, "acrt", grid) - analytic)
        se = np.std(diffs, ddof=1) / np.sqrt(len(diffs))
        assert abs(np.mean(diffs)) < 3 * se + 1e-3
