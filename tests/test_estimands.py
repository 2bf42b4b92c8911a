from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_pvar.errors import DegenerateAssignment, EmptyCell
from causal_pvar.estimands import (
    acr_on_grid,
    did_four_means,
    dummy_gamma,
    oracle_estimands,
    selection_bias,
)
from causal_pvar.scenarios import (
    GAUSSIAN_CONTINUOUS,
    HETEROGENEOUS_DUMMY,
    HOMOGENEOUS_DUMMY,
    PotentialOutcomePanel,
    ScenarioConfig,
    linear_impact,
    quadratic_impact,
    simulate_scenario,
)


def make_dummy_pop(w, po0, po1, regime=HETEROGENEOUS_DUMMY):
    """Hand-built potential-outcome panel on the {0, 1} grid."""
    w = np.asarray(w, dtype=float)
    po0 = np.asarray(po0, dtype=float)
    po1 = np.asarray(po1, dtype=float)
    return PotentialOutcomePanel(
        regime=regime,
        assignments=w,
        lambda_grid=np.array([0.0, 1.0]),
        realized_outcomes=np.where(w == 1.0, po1, po0),
        groups=None,
        exposure=None,
        impact=linear_impact(1.0),
        impact_scale=po1 - po0,
        base=po0,
    )


class TestOracleEstimands:
    def test_constant_effect(self):
        rng = np.random.default_rng(0)
        po0 = rng.standard_normal((10, 20))
        pop = make_dummy_pop(rng.random((10, 20)) < 0.4, po0, po0 + 2.0)
        report = oracle_estimands(pop)
        assert report.ate == pytest.approx(2.0, abs=1e-12)
        assert report.att == pytest.approx(2.0, abs=1e-12)

    def test_quadratic_acr_matches_analytic_derivative(self):
        cfg = ScenarioConfig(regime=GAUSSIAN_CONTINUOUS, n_units=20, n_times=40,
                             seed=1, impact=quadratic_impact(1.0, 0.4))
        _, pop = simulate_scenario(cfg)
        grid = pop.lambda_grid
        interior = slice(1, -1)
        analytic = 1.0 + 0.8 * grid
        # central differences are exact for quadratics up to rounding
        np.testing.assert_allclose(acr_on_grid(pop, grid)[interior], analytic[interior], atol=1e-4)

    def test_structural_acr_matches_brute_force_grid(self):
        # Per-unit scale != 1: the structural mean mean(scale) g + mean(base)
        # must match averaging every cell's potential-outcome path.
        cfg = ScenarioConfig(regime=GAUSSIAN_CONTINUOUS, n_units=12, n_times=30, seed=8,
                             impact=quadratic_impact(1.0, 0.4), effect_sd=0.5)
        _, pop = simulate_scenario(cfg)
        grid = pop.lambda_grid
        assert np.ptp(pop.impact_scale) > 0.5
        cube = pop.impact_scale[:, :, None] * pop.impact(grid) + pop.base[:, :, None]
        brute = np.gradient(cube.mean(axis=(0, 1)), grid)
        np.testing.assert_allclose(acr_on_grid(pop, grid), brute, rtol=0, atol=1e-12)

    def test_ate_and_att_do_not_depend_on_the_dose_grid(self):
        # A grid that leaves out doses 0 and 1 changes nothing: ATE and ATT
        # come from the structural form.
        cfg = ScenarioConfig(regime=GAUSSIAN_CONTINUOUS, n_units=10, n_times=20, seed=4,
                             impact=quadratic_impact(1.0, 0.4), effect_sd=0.5)
        full = oracle_estimands(simulate_scenario(cfg)[1])
        narrow = oracle_estimands(simulate_scenario(
            replace(cfg, lambda_grid=np.linspace(0.2, 0.5, 31)))[1])
        assert np.isfinite(narrow.ate) and np.isfinite(narrow.att)
        assert (narrow.ate, narrow.att, narrow.mc_se) == (full.ate, full.att, full.mc_se)

    def test_selection_on_gains_att_exceeds_ate(self):
        # Treated cells get an extra +1 effect by construction.
        rng = np.random.default_rng(2)
        w = (rng.random((50, 80)) < 0.35).astype(float)
        po0 = rng.standard_normal((50, 80))
        po1 = po0 + 2.0 + 1.0 * w  # gains where treatment lands
        pop = make_dummy_pop(w, po0, po1)
        report = oracle_estimands(pop)
        gap = report.att - report.ate
        se = np.sqrt(report.mc_se["ate"] ** 2 + report.mc_se["att"] ** 2)
        assert abs(gap - (1.0 - w.mean())) < 3 * se + 1e-9

    def test_att_equals_ate_under_independence(self):
        cfg = ScenarioConfig(regime=HOMOGENEOUS_DUMMY, n_units=60, n_times=80,
                             seed=3, impact=linear_impact(1.5), effect_sd=0.4)
        _, pop = simulate_scenario(cfg)
        report = oracle_estimands(pop)
        se = np.sqrt(report.mc_se["ate"] ** 2 + report.mc_se["att"] ** 2)
        assert abs(report.att - report.ate) <= 3 * se


class TestSelectionBias:
    def test_randomized_assignment_near_zero(self):
        vals = []
        for r in range(40):
            rng = np.random.default_rng(100 + r)
            po0 = rng.standard_normal((30, 40))
            pop = make_dummy_pop(rng.random((30, 40)) < 0.3, po0, po0 + 1.0)
            vals.append(selection_bias(pop))
        se = np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(np.mean(vals)) < 3 * se + 1e-12

    def test_matches_two_pass_covariance_oracle(self):
        rng = np.random.default_rng(5)
        po1 = rng.standard_normal((20, 30))
        po0 = rng.standard_normal((20, 30))
        w = (po1 + 0.5 * rng.standard_normal((20, 30)) > 0.3).astype(float)
        if w.min() == w.max():
            pytest.skip("degenerate draw")
        pop = make_dummy_pop(w, po0, po1)
        delta = selection_bias(pop)
        ind = w.ravel() == 1.0
        p1 = po1.ravel()
        p0 = po0.ravel()
        cov1 = ((p1 - p1.mean()) * (ind - ind.mean())).mean()
        cov0 = ((p0 - p0.mean()) * ((~ind) - (~ind).mean())).mean()
        oracle = cov1 / ind.mean() - cov0 / (~ind).mean()
        assert delta == pytest.approx(oracle, abs=1e-12)

    def test_constant_po_zero_bias(self):
        w = np.zeros((4, 10))
        w[:2, :5] = 1.0
        pop = make_dummy_pop(w, np.full((4, 10), 1.5), np.full((4, 10), 3.5))
        assert selection_bias(pop) == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_assignment(self):
        pop = make_dummy_pop(np.ones((3, 4)), np.zeros((3, 4)), np.ones((3, 4)))
        with pytest.raises(DegenerateAssignment):
            selection_bias(pop)


class TestDidFourMeans:
    def test_hand_arithmetic(self):
        # unit 1 treated at t2: y = (0, 3); unit 2 control: y = (0, 1)
        y = np.array([[0.0, 3.0], [0.0, 1.0]])
        gamma = did_four_means(y, [True, False], [False, True])
        assert gamma == pytest.approx(3.0 - 1.0 - 0.0 + 0.0)

    def test_constant_residuals_zero(self):
        y = np.full((6, 8), 2.7)
        assert did_four_means(y, [True] * 3 + [False] * 3, [True] * 4 + [False] * 4) == 0.0

    def test_empty_cell(self):
        y = np.zeros((2, 2))
        with pytest.raises(EmptyCell):
            did_four_means(y, [True, True], [True, False])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_matches_manual_loops(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((8, 12))
        iu = rng.random(8) < 0.5
        it = rng.random(12) < 0.5
        if not (iu.any() and (~iu).any() and it.any() and (~it).any()):
            return
        cells = [[], [], [], []]
        for i in range(8):
            for t in range(12):
                idx = (0 if iu[i] else 1) + (0 if it[t] else 2)
                cells[idx].append(y[i, t])
        oracle = (
            np.mean(cells[0]) - np.mean(cells[1]) - np.mean(cells[2]) + np.mean(cells[3])
        )
        assert did_four_means(y, iu, it) == pytest.approx(oracle, abs=1e-12)


class TestDecompositionIdentity:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000), tilt=st.floats(-1.0, 1.0))
    def test_gamma_equals_ate_plus_bias_exactly(self, seed, tilt):
        # Binary contrast = ATE + selection wedge, exactly, on any finite
        # dummy panel, selection or not.
        rng = np.random.default_rng(seed)
        po0 = rng.standard_normal((15, 20))
        po1 = po0 + 1.0 + 0.5 * rng.standard_normal((15, 20))
        w = (rng.random((15, 20)) < 0.3 + 0.2 * tilt * np.tanh(po1)).astype(float)
        if w.min() == w.max():
            return
        pop = make_dummy_pop(w, po0, po1)
        gamma = dummy_gamma(w, pop.realized_outcomes)
        report = oracle_estimands(pop)
        assert gamma == pytest.approx(report.ate + report.selection_bias, abs=1e-10)

    def test_dummy_gamma_equals_pooled_cov_over_var(self):
        rng = np.random.default_rng(11)
        w = (rng.random(500) < 0.4).astype(float)
        y = rng.standard_normal(500) + 2.0 * w
        gamma = dummy_gamma(w, y)
        cov = ((w - w.mean()) * (y - y.mean())).mean()
        assert gamma == pytest.approx(cov / w.var(), abs=1e-12)
