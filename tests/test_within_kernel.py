"""The within-OLS kernel shared by fit_pvar, lag_criteria and the bootstrap.

The reference throughout is an independent ``np.linalg.lstsq`` regression
of the per-unit demeaned dependent block on the demeaned lags, so the
checks do not route through the kernel they test.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_pvar.cli import main
from causal_pvar.diagnostics import lag_criteria
from causal_pvar.errors import SingularDesign
from causal_pvar.identify import bootstrap_irf
from causal_pvar.io import write_panel_csv
from causal_pvar.panel import PanelDataset, PVARSpec, _within_moments, _within_ols, fit_pvar

from conftest import make_var_panel


def _lstsq_fit(values, p, drop):
    """Within regression of x_t on x_t-1..x_t-p over t > drop, by lstsq.

    Returns ``(phi, sigma, residuals, intercepts, mu)``.
    """
    n, t, m = values.shape
    dep = values[:, drop:]
    x = np.concatenate([values[:, drop - l : t - l] for l in range(1, p + 1)], axis=2)
    xc = (x - x.mean(axis=1, keepdims=True)).reshape(-1, x.shape[2])
    yc = (dep - dep.mean(axis=1, keepdims=True)).reshape(-1, m)
    coef = np.linalg.lstsq(xc, yc, rcond=None)[0]
    resid = yc - xc @ coef
    phi = [coef[l * m : (l + 1) * m].T for l in range(p)]
    intercepts = (dep - x @ coef).mean(axis=1)
    mu = np.linalg.solve(np.eye(m) - sum(phi), intercepts.T).T
    return phi, resid.T @ resid / len(yc), resid.reshape(n, t - drop, m), intercepts, mu


def _close(got, want, rel=1e-10):
    """Elementwise agreement within ``rel`` times the largest entry of ``want``."""
    np.testing.assert_allclose(got, want, rtol=0, atol=rel * np.abs(want).max())


def _near_copy_panel(eps, seed=0):
    """20 x 60 panel whose outcome is the policy plus eps-scaled noise."""
    rng = np.random.default_rng(seed)
    w = np.zeros((20, 60))
    e = rng.standard_normal((20, 60))
    for s in range(1, 60):
        w[:, s] = 0.5 * w[:, s - 1] + e[:, s]
    y = w + eps * rng.standard_normal((20, 60))
    return PanelDataset(np.stack([w, y], axis=2), 1, ("w", "y"))


class TestOneSingularityRule:
    def test_library_rejects_the_near_copy_everywhere(self):
        panel = _near_copy_panel(1e-7)
        with pytest.raises(SingularDesign):
            fit_pvar(panel, PVARSpec(1))
        with pytest.raises(SingularDesign):
            lag_criteria(panel, 3)
        with pytest.raises(SingularDesign):
            bootstrap_irf(panel, PVARSpec(1), 0, 4, 100, 0.9, seed=0)

    def test_cli_fit_and_irf_exit_1_with_one_line(self, tmp_path, capsys):
        path = str(tmp_path / "panel.csv")
        write_panel_csv(_near_copy_panel(1e-7), path)
        out = str(tmp_path / "out")
        for argv in (["fit", "--input", path, "--output", out],
                     ["irf", "--input", path, "--reps", "100", "--seed", "0", "--output", out]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
        assert not os.path.exists(os.path.join(out, "fit.json"))

    def test_a_looser_near_copy_fits_and_bootstraps(self):
        panel = _near_copy_panel(1e-5)
        fit_pvar(panel, PVARSpec(1))
        lag_criteria(panel, 3)
        _, bands = bootstrap_irf(panel, PVARSpec(1), 0, 4, 100, 0.9, seed=0)
        assert bands.n_failed == 0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_cross_product_sigma_tracks_the_residual_sigma_up_to_the_guard(seed):
    # lag_criteria and the bootstrap take sigma = (DD - C'G^-1 C) / eff from
    # the cross-product; fit_pvar takes it from the residuals.  As eps falls
    # the scaled lag Gram matrix nears COND_LIMIT.  At each eps until
    # SingularDesign the two agree within 1e-10 relative, or within machine
    # epsilon times the scaled condition number once that is larger: the
    # cross-product form loses accuracy in proportion to the conditioning
    # (2.7e-10 at seed 0, eps 1e-5, cond 4.7e10), so 1e-10 alone does not
    # hold up to the guard.
    for k in range(60):
        panel = _near_copy_panel(10.0 ** (-k / 8), seed)
        try:
            fit = fit_pvar(panel, PVARSpec(1))
        except SingularDesign:
            break
        cross = _within_moments(panel.values.transpose(1, 0, 2)[:, None], 1)[0]
        _, sigma, ok = _within_ols(cross, 2, 20 * 59)
        assert ok[0]
        scale = 1.0 / np.sqrt(np.diag(cross[0, :2, :2]))
        cond = np.linalg.cond(cross[0, :2, :2] * np.outer(scale, scale))
        rtol = max(1e-10, np.finfo(float).eps * cond)
        np.testing.assert_allclose(sigma[0], fit.sigma, rtol=rtol, atol=0)
    else:
        raise AssertionError("the guard never tripped")
    assert k > 30  # eps reached about 1e-4 before the guard


def _scaled_case(seed, n_units, n_times, log_scales):
    """A stable 2-variable VAR(1) panel, each variable times 10**log_scale.

    Returns the scaled panel, the unscaled values and the scale vector.
    """
    rng = np.random.default_rng(seed)
    phi = [[rng.uniform(-0.4, 0.4), 0.0], [rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)]]
    values = make_var_panel(phi, n_units, n_times, seed=seed).values
    scale = 10.0 ** np.asarray(log_scales)
    return PanelDataset(values * scale, 1, ("w", "y")), values, scale


designs = dict(
    seed=st.integers(0, 10_000),
    lag_order=st.integers(1, 3),
    log_scales=st.tuples(st.floats(-6, 6), st.floats(-6, 6)),
    n_units=st.integers(3, 10),
    n_times=st.integers(40, 80),
)


@settings(max_examples=40, deadline=None)
@given(**designs)
def test_fit_matches_lstsq_at_any_column_scale(seed, lag_order, log_scales, n_units, n_times):
    panel, values, c = _scaled_case(seed, n_units, n_times, log_scales)
    fit = fit_pvar(panel, PVARSpec(lag_order))
    phi, sigma, resid, intercepts, mu = _lstsq_fit(values, lag_order, lag_order)
    # back to the unscaled units: phi_ij * c_j / c_i, sigma_ij / (c_i c_j), x_j / c_j
    for got, want in zip(fit.phi, phi):
        _close(got * c[None, :] / c[:, None], want)
    _close(fit.sigma / np.outer(c, c), sigma)
    _close(fit.residuals / c, resid)
    _close(fit.intercepts / c, intercepts)
    _close(fit.mu / c, mu)


@settings(max_examples=40, deadline=None)
@given(**designs)
def test_lag_criteria_match_lstsq_fits_on_the_common_sample(seed, lag_order, log_scales,
                                                            n_units, n_times):
    panel, values, c = _scaled_case(seed, n_units, n_times, log_scales)
    pmax = lag_order
    table = lag_criteria(panel, pmax)
    eff = n_units * (n_times - pmax)
    for p in range(1, pmax + 1):
        sigma = _lstsq_fit(values, p, pmax)[1]
        # scaling the variables by c adds 2 sum(log c) to every log-det
        logdet = np.linalg.slogdet(sigma)[1] + 2.0 * np.log(c).sum()
        k = 4 * p / eff
        want = (logdet + k * np.log(eff), logdet + 2.0 * k, logdet + 2.0 * k * np.log(np.log(eff)))
        got = (table.bic_like[p - 1], table.aic_like[p - 1], table.hq_like[p - 1])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
