import os
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_pvar.errors import (
    AsymmetricAdjacency,
    BadConfig,
    BootstrapUnstable,
    CollinearRegressors,
    EmptyTreatedSet,
    NonFinite,
    SelfLoop,
)
from causal_pvar.panel import PanelDataset, PVARSpec, fit_pvar
from causal_pvar.scenarios import (
    SPILLOVER_DUMMY,
    ExposureTruth,
    PotentialOutcomePanel,
    ScenarioConfig,
    linear_impact,
    ring_adjacency,
)
from causal_pvar.spillover import (
    BINARY_ANY_NEIGHBOR,
    TREATED_NEIGHBOR_SHARE,
    build_exposure,
    estimate_adjusted_impact,
    oracle_atte_aste,
    spillover_regression,
)
from causal_pvar.verify import verify_interference

from conftest import assert_no_worker_left, fork_rule, two_cpus


def line_graph(n):
    adj = np.zeros((n, n))
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1.0
    return adj


class TestBuildExposure:
    def test_line_graph_middle_treated(self):
        adj = line_graph(3)
        treatment = np.array([[0.0], [1.0], [0.0]])
        share = build_exposure(adj, treatment, TREATED_NEIGHBOR_SHARE)
        np.testing.assert_allclose(share[:, 0], [1.0, 0.0, 1.0])

    def test_no_treatment_no_exposure(self):
        adj = ring_adjacency(6, 1)
        s = build_exposure(adj, np.zeros((6, 4)))
        assert np.abs(s).max() == 0.0

    def test_star_graph_hub(self):
        adj = np.zeros((5, 5))
        adj[0, 1:] = adj[1:, 0] = 1.0  # hub 0 with 4 leaves
        treatment = np.zeros((5, 1))
        treatment[1, 0] = treatment[2, 0] = 1.0
        share = build_exposure(adj, treatment, TREATED_NEIGHBOR_SHARE)
        binary = build_exposure(adj, treatment, BINARY_ANY_NEIGHBOR)
        assert share[0, 0] == pytest.approx(0.5)
        assert binary[0, 0] == 1.0

    def test_isolated_unit_zero(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = 1.0  # unit 2 isolated
        treatment = np.ones((3, 2))
        s = build_exposure(adj, treatment)
        assert (s[2] == 0.0).all()

    def test_validation(self):
        adj = line_graph(3)
        adj[0, 1] = 0.0
        with pytest.raises(AsymmetricAdjacency):
            build_exposure(adj, np.zeros((3, 2)))
        adj2 = line_graph(3)
        adj2[1, 1] = 1.0
        with pytest.raises(SelfLoop):
            build_exposure(adj2, np.zeros((3, 2)))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000),
           mode=st.sampled_from([TREATED_NEIGHBOR_SHARE, BINARY_ANY_NEIGHBOR]))
    def test_bounds_and_zero_periods(self, seed, mode):
        rng = np.random.default_rng(seed)
        adj = ring_adjacency(10, 2)
        treatment = (rng.random((10, 15)) < 0.3).astype(float)
        treatment[:, 3] = 0.0
        s = build_exposure(adj, treatment, mode)
        assert (s >= 0.0).all() and (s <= 1.0).all()
        assert (s[:, 3] == 0.0).all()


class TestSpilloverRegression:
    def test_recovers_dgp_coefficients(self):
        rng = np.random.default_rng(1)
        n = 100 * 200
        w = rng.standard_normal(n)
        s = rng.standard_normal(n) * 0.4  # centered exposure regressor
        y = -0.5 * w + 0.2 * s + 0.1 * rng.standard_normal(n)
        fit = spillover_regression(w, y, s, n_reps=200, seed=9)
        assert abs(fit.delta - (-0.5)) < 3 * fit.se_delta
        assert abs(fit.rho - 0.2) < 3 * fit.se_rho

    def test_zero_exposure_reduces_to_univariate(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal(4000)
        y = 0.8 * w + rng.standard_normal(4000)
        fit = spillover_regression(w, y, np.zeros(4000), n_reps=0)
        wc = w - w.mean()
        yc = y - y.mean()
        oracle = (wc @ yc) / (wc @ wc)
        assert fit.delta == pytest.approx(oracle, abs=1e-12)
        assert fit.rho == 0.0
        assert fit.degenerate_exposure

    def test_orthogonal_regressors_match_univariate(self):
        # exposure supported only where the policy residual is zero
        rng = np.random.default_rng(3)
        w = np.where(rng.random(5000) < 0.3, 1.0, 0.0)
        w = w - w.mean()
        s = np.where(w < 0, rng.random(5000), 0.0)
        s = s - s.mean()
        # force exact sample orthogonality
        s = s - (s @ w) / (w @ w) * w
        y = 1.2 * w + 0.4 * s + 0.05 * rng.standard_normal(5000)
        fit = spillover_regression(w, y, s, n_reps=0)
        assert fit.delta == pytest.approx((w @ (y - y.mean())) / (w @ w), abs=1e-10)

    @pytest.mark.parametrize("w_scale, s_scale", [(1e5, 1.0), (1.0, 1e-5), (1e3, 1.0), (1e-4, 1e4)])
    def test_rescaled_regressors_give_rescaled_coefficients(self, w_scale, s_scale):
        # The collinearity guard has no units: independent regressors fit in
        # any units, and their coefficients carry the units back.
        rng = np.random.default_rng(4)
        w = rng.standard_normal(3000)
        w -= w.mean()
        s = rng.random(3000)
        y = 0.7 * w + 0.3 * s + rng.standard_normal(3000)
        y -= y.mean()
        base = spillover_regression(w, y, s, n_reps=20, seed=1)
        fit = spillover_regression(w * w_scale, y, s * s_scale, n_reps=20, seed=1)
        assert fit.n_dropped == base.n_dropped == 0
        np.testing.assert_allclose([fit.delta * w_scale, fit.rho * s_scale],
                                   [base.delta, base.rho], rtol=1e-8)
        np.testing.assert_allclose([fit.se_delta * w_scale, fit.se_rho * s_scale],
                                   [base.se_delta, base.se_rho], rtol=1e-8)

    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    def test_collinear_regressors_raise_at_any_scale(self, scale):
        rng = np.random.default_rng(5)
        w = rng.standard_normal(500) * scale
        w -= w.mean()
        y = rng.standard_normal(500)
        with pytest.raises(CollinearRegressors):
            spillover_regression(w, y - y.mean(), 3.0 * w, n_reps=0)

    @staticmethod
    def _drift_series(y_shift):
        """Centred w, exposure s, and y centred then shifted by ``y_shift`` SDs."""
        rng = np.random.default_rng(6)
        w = rng.standard_normal(3000)
        w -= w.mean()
        y = 0.5 * w + rng.standard_normal(3000)
        y -= y.mean()
        return w, y + y_shift * y.std(), rng.random(3000)

    def test_centred_series_are_not_flagged_in_large_units(self):
        w, y, s = self._drift_series(0.0)
        assert not spillover_regression(w, y, s, n_reps=0).drift_adjusted
        assert not spillover_regression(1e10 * w, 1e10 * y, s, n_reps=0).drift_adjusted

    def test_drift_is_flagged_and_removed_in_small_units(self):
        w, y, s = self._drift_series(0.5)
        base = spillover_regression(w, y, s, n_reps=0)
        small = spillover_regression(1e-10 * w, 1e-10 * y, s, n_reps=0)
        assert base.drift_adjusted and small.drift_adjusted
        # demeaned in both units, so the coefficients carry the units back
        np.testing.assert_allclose([small.delta, small.rho * 1e10], [base.delta, base.rho],
                                   rtol=1e-8)

    @pytest.mark.parametrize("series, at, value", [
        ("exposure", 2, np.nan), ("policy residual", 0, np.inf), ("outcome residual", 1, -np.inf),
    ])
    def test_non_finite_input_is_named_without_a_warning(self, series, at, value):
        inputs = list(self._drift_series(0.0))
        inputs[at][7] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match=f"^{series} has a non-finite value"):
                spillover_regression(*inputs, n_reps=0)

    def test_negative_reps_rejected(self):
        w, y, s = self._centered()
        with pytest.raises(BadConfig):
            spillover_regression(w, y, s, n_reps=-3, seed=5)

    def test_same_seed_identical_ses(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal(2000)
        s = rng.standard_normal(2000)
        y = w + s + rng.standard_normal(2000)
        a = spillover_regression(w, y, s, n_reps=150, seed=5)
        b = spillover_regression(w, y, s, n_reps=150, seed=5)
        assert a.se_delta == b.se_delta and a.se_rho == b.se_rho

    @staticmethod
    def _fail_draws(monkeypatch, failing):
        """Make bootstrap draw r fail to fit for each r in ``failing``."""
        import causal_pvar.spillover as sp

        real = sp._two_regressor_ols

        def flaky(sums, degenerate):
            coef, ok = real(sums, degenerate)
            for r in failing:  # row 0 fits the point estimate
                coef[r + 1], ok[r + 1] = np.nan, False
            return coef, ok

        monkeypatch.setattr(sp, "_two_regressor_ols", flaky)

    def _centered(self):
        rng = np.random.default_rng(6)
        w, s = rng.standard_normal((2, 1500))
        w -= w.mean()
        y = 0.7 * w + 0.3 * s + rng.standard_normal(1500)
        return w, y - y.mean(), s

    def test_dropped_draws_counted_and_left_out(self, monkeypatch):
        w, y, s = self._centered()
        assert spillover_regression(w, y, s, n_reps=150, seed=5).n_dropped == 0
        failing = {3, 70, 149}
        self._fail_draws(monkeypatch, failing)
        fit = spillover_regression(w, y, s, n_reps=150, seed=5)
        assert fit.n_dropped == 3
        x = np.column_stack([w, s])
        draws = []
        for r, child in enumerate(np.random.SeedSequence(5).spawn(150)):
            idx = np.random.default_rng(child).integers(0, w.size, size=w.size)
            if r not in failing:
                draws.append(np.linalg.solve(x[idx].T @ x[idx], x[idx].T @ y[idx]))
        draws = np.array(draws)
        assert fit.se_delta == pytest.approx(draws[:, 0].std(ddof=1), rel=1e-12)
        assert fit.se_rho == pytest.approx(draws[:, 1].std(ddof=1), rel=1e-12)

    @pytest.mark.parametrize("kept", [0, 1])
    def test_fewer_than_two_draws_raises(self, monkeypatch, kept):
        w, y, s = self._centered()
        self._fail_draws(monkeypatch, set(range(kept, 40)))
        with pytest.raises(BootstrapUnstable):
            spillover_regression(w, y, s, n_reps=40, seed=5)

    @pytest.mark.parametrize("c", [1e-11, 1e5])
    def test_exposure_units_carry_into_rho(self, c):
        # only an all-zero exposure is degenerate, so rho(c s) = rho(s) / c
        w, y, s = self._centered()
        base = spillover_regression(w, y, s, n_reps=0)
        fit = spillover_regression(w, y, c * s, n_reps=0)
        assert not base.degenerate_exposure and not fit.degenerate_exposure
        assert fit.rho == pytest.approx(base.rho / c, rel=1e-10)
        assert fit.delta == pytest.approx(base.delta, rel=1e-10)

    # The draws run in shares of whole chunks, on forked workers where the
    # fork rule allows; the standard errors do not depend on the split.

    def test_ses_equal_in_shares_and_in_process(self):
        w, y, s = self._centered()
        fits = {}
        # seven draws a chunk, so that 100 end in a partial chunk of two;
        # three workers take 5 of the 15 chunks each
        with mock.patch("causal_pvar.spillover.CHUNK_BYTES", 7 * 8 * w.size):
            for count in (1, 3):
                with fork_rule(count) as pids:
                    fits[count] = spillover_regression(w, y, s, n_reps=100, seed=5)
                assert len(pids) == (count if count > 1 else 0)
                assert_no_worker_left(pids)
        assert fits[1] == fits[3]
        assert fits[1].n_dropped == 0 and fits[1].se_rho > 0

    def test_a_threaded_caller_draws_in_process(self):
        w, y, s = self._centered()
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            with mock.patch("causal_pvar.spillover.CHUNK_BYTES", 1), two_cpus(), \
                    mock.patch("os.fork", wraps=os.fork) as fork:
                threaded = spillover_regression(w, y, s, n_reps=50, seed=5)
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        fork.assert_not_called()
        assert threaded == spillover_regression(w, y, s, n_reps=50, seed=5)

    def test_one_chunk_of_draws_does_not_fork(self):
        w, y, s = self._centered()  # 1,500 cells: 43 draws a chunk
        with two_cpus(), mock.patch("os.fork", wraps=os.fork) as fork:
            spillover_regression(w, y, s, n_reps=40, seed=5)
        fork.assert_not_called()


@pytest.mark.parametrize("outcome", [0, 2, -1])
def test_adjusted_impact_outcome_must_be_a_column_after_the_policy(outcome):
    rng = np.random.default_rng(8)
    w = (rng.random((20, 40)) < 0.3).astype(float)
    values = np.stack([w, w + rng.standard_normal((20, 40))], axis=2)
    fit = fit_pvar(PanelDataset(values, 1, ("w", "y")), PVARSpec(1))
    with pytest.raises(BadConfig, match=rf"need 1 <= outcome < m, got outcome={outcome}, m=2"):
        estimate_adjusted_impact(fit, build_exposure(ring_adjacency(20, 1), w), w, outcome=outcome)


class TestOracleAtteAste:
    def _pop_with_exposure(self, beta, rho, seed=0, mean_exposure=0.4):
        rng = np.random.default_rng(seed)
        n, t = 20, 30
        w = (rng.random((n, t)) < 0.3).astype(float)
        s = np.where(rng.random((n, t)) < 0.8, mean_exposure, 0.0)
        base = rng.standard_normal((n, t)) + rho * s  # po(0) at the realized exposure
        exposure = ExposureTruth(s_values=s, rho=rho)
        return PotentialOutcomePanel(
            regime=SPILLOVER_DUMMY, assignments=w, exposure=exposure,
            impact=linear_impact(1.0), impact_scale=np.full((n, 1), beta), base=base,
        ), s, w

    def test_additive_construction(self):
        pop, s, w = self._pop_with_exposure(2.0, 0.5)
        atte, aste = oracle_atte_aste(pop)
        mean_s = s[w == 1].mean()
        assert atte == pytest.approx(2.0 + 0.5 * mean_s, abs=1e-12)
        assert aste == pytest.approx(0.5 * mean_s, abs=1e-12)

    def test_zero_rho_restores_sutva(self):
        pop, _, _ = self._pop_with_exposure(2.0, 0.0)
        atte, aste = oracle_atte_aste(pop)
        assert aste == 0.0
        assert atte == pytest.approx(2.0, abs=1e-12)

    def test_heterogeneous_rho_cell_enumeration(self):
        rng = np.random.default_rng(7)
        n, t = 15, 20
        w = (rng.random((n, t)) < 0.4).astype(float)
        s = rng.random((n, t))
        rho_i = rng.uniform(0.0, 1.0, size=(n, 1))
        base = rng.standard_normal((n, t)) + rho_i * s
        exposure = ExposureTruth(s_values=s, rho=rho_i)
        pop = PotentialOutcomePanel(
            regime=SPILLOVER_DUMMY, assignments=w, exposure=exposure,
            impact=linear_impact(1.0), impact_scale=np.ones((n, 1)), base=base,
        )
        atte, aste = oracle_atte_aste(pop)
        mask = w == 1
        assert atte == pytest.approx((1.0 + (rho_i * s))[mask].mean(), abs=1e-12)
        assert aste == pytest.approx((rho_i * s)[mask].mean(), abs=1e-12)

    def test_no_treated_cells(self):
        pop, _, _ = self._pop_with_exposure(1.0, 0.2)
        empty = PotentialOutcomePanel(
            regime=SPILLOVER_DUMMY, assignments=np.zeros_like(pop.assignments),
            exposure=pop.exposure,
            impact=pop.impact, impact_scale=pop.impact_scale, base=pop.base,
        )
        with pytest.raises(EmptyTreatedSet):
            oracle_atte_aste(empty)


class TestVerifyInterference:
    CFG = ScenarioConfig(
        regime=SPILLOVER_DUMMY, n_units=80, n_times=100, seed=31,
        impact=linear_impact(1.0), treat_prob=0.15, spillover_rho=0.5,
    )

    def test_naive_biased_adjusted_unbiased(self):
        rep = verify_interference(self.CFG, reps=80)
        assert rep.passed  # the naive and the adjusted pair
        # naive bias vs ATTE approximately -ASTE
        naive = rep.further["naive"]
        naive_bias_vs_atte = naive.estimate_mean - rep.oracle_mean
        aste_mean = rep.oracle_mean - naive.oracle_mean
        assert naive_bias_vs_atte == pytest.approx(-aste_mean, abs=3 * naive.mc_se + 0.01)

    def test_zero_rho_limit(self):
        from dataclasses import replace

        rep = verify_interference(replace(self.CFG, spillover_rho=0.0, seed=5), reps=60)
        assert abs(rep.further["naive"].estimate_mean - rep.estimate_mean) < 0.02
