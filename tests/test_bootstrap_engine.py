"""The batched bootstrap engine against a per-replication reference.

``_reference_bands`` is the one-replication-at-a-time bootstrap: regenerate
the panel from the fitted dynamics, refit it with ``fit_pvar``, factor with
``cholesky_lower`` and propagate with ``irf``.  The engine must reproduce
its bands to 1e-10 and give the same bands for any chunking.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causal_pvar.identify as ident
from causal_pvar.errors import CausalPvarError
from causal_pvar.identify import bootstrap_irf, cholesky_lower, irf
from causal_pvar.panel import PanelDataset, PVARSpec, fit_pvar

from conftest import make_var_panel


def _reference_bands(panel, spec, k, horizon, n_reps, level, seed, skip=frozenset()):
    """Bands from replications refitted one by one; ``skip`` drops replications."""
    fit = fit_pvar(panel, spec)
    n, t, m = panel.values.shape
    p = spec.lag_order
    tr = t - p
    pool = fit.residuals.reshape(n * tr, m)
    dummy_part = np.zeros_like(panel.values)
    if fit.dummy_coef is not None:
        dmat = panel.exogenous_dummies[:, :, list(spec.dummy_columns)]
        dummy_part = np.einsum("ntd,dm->ntm", dmat, fit.dummy_coef)
    responses, n_failed = [], 0
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(n_reps)):
        idx = np.random.default_rng(child).integers(0, n * tr, size=n * tr)
        if r in skip:
            continue
        shocks = pool[idx].reshape(n, tr, m)
        out = panel.values.copy()
        for s in range(p, t):
            x = fit.intercepts + shocks[:, s - p, :]
            for l in range(1, p + 1):
                x = x + out[:, s - l, :] @ fit.phi[l - 1].T
            out[:, s, :] = x + dummy_part[:, s, :]
        sim = PanelDataset(out, panel.n_policies, panel.variable_names, panel.exogenous_dummies)
        try:
            refit = fit_pvar(sim, spec)
            rep = irf(refit, cholesky_lower(refit.sigma), k, horizon)
        except CausalPvarError:
            n_failed += 1
            continue
        responses.append(rep)
    alpha = (1.0 - level) / 2.0
    good = np.array(responses)
    return np.quantile(good, alpha, axis=0), np.quantile(good, 1.0 - alpha, axis=0), n_failed


def _case(seed, lag_order, n_units, n_times, dummy):
    """A stable 2-variable VAR(1) panel and its spec, optionally with one period dummy."""
    rng = np.random.default_rng(seed)
    phi = [[rng.uniform(-0.4, 0.4), 0.0], [rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)]]
    panel = make_var_panel(phi, n_units, n_times, seed=seed)
    if not dummy:
        return panel, PVARSpec(lag_order)
    dummies = np.zeros((n_units, n_times, 1))
    start = int(rng.integers(5, n_times // 2))
    dummies[:, start : start + n_times // 4, 0] = 1.0
    shifted = panel.values + dummies * np.array([0.8, -1.5])
    panel = PanelDataset(shifted, 1, panel.variable_names, exogenous_dummies=dummies)
    return panel, PVARSpec(lag_order, dummy_columns=(0,))


cases = dict(
    seed=st.integers(0, 10_000),
    lag_order=st.sampled_from([1, 2]),
    dummy=st.booleans(),
    # From 2 units: with one unit, a one-replication chunk regenerates through a
    # single-row matmul, which BLAS may round differently in the last bit.
    n_units=st.integers(2, 8),
    n_times=st.integers(24, 48),
)


@settings(max_examples=20, deadline=None)
@given(**cases)
def test_bands_do_not_depend_on_chunk_size(seed, lag_order, dummy, n_units, n_times):
    panel, spec = _case(seed, lag_order, n_units, n_times, dummy)
    bands = []
    for chunk_bytes in (1, 10**12):  # one replication per chunk, then all in one
        with mock.patch.object(ident, "CHUNK_BYTES", chunk_bytes):
            bands.append(bootstrap_irf(panel, spec, 0, 5, 100, 0.9, seed=seed)[1])
    np.testing.assert_array_equal(bands[0].lower, bands[1].lower)
    np.testing.assert_array_equal(bands[0].upper, bands[1].upper)
    assert bands[0].n_failed == bands[1].n_failed


@settings(max_examples=20, deadline=None)
@given(**cases)
def test_bands_match_per_replication_reference(seed, lag_order, dummy, n_units, n_times):
    panel, spec = _case(seed, lag_order, n_units, n_times, dummy)
    _, bands = bootstrap_irf(panel, spec, 0, 5, 100, 0.9, seed=seed)
    lower, upper, n_failed = _reference_bands(panel, spec, 0, 5, 100, 0.9, seed)
    assert bands.n_failed == n_failed == 0
    np.testing.assert_allclose(bands.lower, lower, rtol=0, atol=1e-10)
    np.testing.assert_allclose(bands.upper, upper, rtol=0, atol=1e-10)


def test_failed_replications_are_counted_and_left_out(monkeypatch):
    panel = make_var_panel([[0.3, 0.0], [0.25, 0.3]], 12, 50, seed=8)
    forced = frozenset({4, 41, 87})
    real_refit = ident._refit
    seen = {"n": 0}

    def flaky(states, p, dummies):
        coef, sigma, ok = real_refit(states, p, dummies)
        first = seen["n"]
        seen["n"] += states.shape[1]
        for r in forced:
            if first <= r < seen["n"]:
                ok[r - first] = False
        return coef, sigma, ok

    monkeypatch.setattr(ident, "_refit", flaky)
    _, bands = bootstrap_irf(panel, PVARSpec(1), 0, 4, 100, 0.9, seed=3)
    assert seen["n"] == 100
    assert bands.n_reps == 100 and bands.n_failed == 3
    lower, upper, n_failed = _reference_bands(panel, PVARSpec(1), 0, 4, 100, 0.9, 3,
                                              skip=forced)
    assert n_failed == 0
    np.testing.assert_allclose(bands.lower, lower, rtol=0, atol=1e-10)
    np.testing.assert_allclose(bands.upper, upper, rtol=0, atol=1e-10)
    all_lower, all_upper, _ = _reference_bands(panel, PVARSpec(1), 0, 4, 100, 0.9, 3)
    assert not (np.allclose(all_lower, lower) and np.allclose(all_upper, upper))


@pytest.mark.parametrize("lag_order", [1, 2])
def test_bands_follow_the_units_of_the_data(lag_order):
    # An outcome measured in units 1e6 times smaller (say, currency against a
    # policy share) squares into a lag Gram matrix with cond ~1e12 before
    # equilibration; the replications must still refit, and the outcome's
    # bands must scale with it while the policy's stay put.
    panel = make_var_panel([[0.3, 0.0], [0.25, 0.3]], 30, 60, seed=11)
    scaled = PanelDataset(panel.values * np.array([1.0, 1e6]), panel.n_policies,
                          panel.variable_names)
    spec = PVARSpec(lag_order)
    _, ref = bootstrap_irf(panel, spec, 0, 6, 100, 0.9, seed=2)
    _, bands = bootstrap_irf(scaled, spec, 0, 6, 100, 0.9, seed=2)
    assert ref.n_failed == bands.n_failed == 0
    units = np.array([[1.0], [1e6]])
    for got, want in ((bands.lower, ref.lower), (bands.upper, ref.upper)):
        np.testing.assert_allclose(got / units, want, rtol=1e-8, atol=1e-12)
