"""The batched bootstrap engine against a per-replication reference.

``_reference_bands`` is the one-replication-at-a-time bootstrap: regenerate
the panel from the fitted dynamics, refit it with ``fit_pvar``, factor with
``cholesky_lower`` and propagate with ``irf``.  The engine must reproduce
its bands to 1e-10 and give the same bands for any chunking, and for any
number of processes its chunks are shared among.
"""

import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causal_pvar.identify as ident
from causal_pvar.errors import CausalPvarError
from causal_pvar.identify import bootstrap_irf, cholesky_lower, irf
from causal_pvar.panel import PanelDataset, PVARSpec, fit_pvar

from conftest import assert_no_worker_left, fork_rule, make_var_panel, two_cpus


def _reference_bands(panel, spec, k, horizon, n_reps, level, seed, skip=frozenset()):
    """Bands from replications refitted one by one; ``skip`` drops replications."""
    fit = fit_pvar(panel, spec)
    n, t, m = panel.values.shape
    p = spec.lag_order
    tr = t - p
    pool = fit.residuals.reshape(n * tr, m)
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
            out[:, s, :] = x
        sim = PanelDataset(out, panel.n_policies, panel.variable_names)
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


def _case(seed, lag_order, n_units, n_times):
    """A stable 2-variable VAR(1) panel and its spec."""
    rng = np.random.default_rng(seed)
    phi = [[rng.uniform(-0.4, 0.4), 0.0], [rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)]]
    return make_var_panel(phi, n_units, n_times, seed=seed), PVARSpec(lag_order)


cases = dict(
    seed=st.integers(0, 10_000),
    lag_order=st.sampled_from([1, 2]),
    # From 2 units: with one unit, a one-replication chunk regenerates through a
    # single-row matmul, which BLAS may round differently in the last bit.
    n_units=st.integers(2, 8),
    n_times=st.integers(24, 48),
)


@settings(max_examples=20, deadline=None)
@given(**cases)
def test_bands_do_not_depend_on_chunk_size(seed, lag_order, n_units, n_times):
    panel, spec = _case(seed, lag_order, n_units, n_times)
    bands = []
    # one replication per chunk; six, so that 100 end in a partial chunk of four; all in one
    for chunk_bytes in (1, 3 * panel.values.nbytes, 10**12):
        with mock.patch.object(ident, "CHUNK_BYTES", chunk_bytes):
            bands.append(bootstrap_irf(panel, spec, 0, 5, 100, 0.9, seed=seed)[1])
    for other in bands[1:]:
        np.testing.assert_array_equal(bands[0].lower, other.lower)
        np.testing.assert_array_equal(bands[0].upper, other.upper)
        assert bands[0].n_failed == other.n_failed


@settings(max_examples=20, deadline=None)
@given(**cases)
def test_bands_match_per_replication_reference(seed, lag_order, n_units, n_times):
    panel, spec = _case(seed, lag_order, n_units, n_times)
    _, bands = bootstrap_irf(panel, spec, 0, 5, 100, 0.9, seed=seed)
    lower, upper, n_failed = _reference_bands(panel, spec, 0, 5, 100, 0.9, seed)
    assert bands.n_failed == n_failed == 0
    np.testing.assert_allclose(bands.lower, lower, rtol=0, atol=1e-10)
    np.testing.assert_allclose(bands.upper, upper, rtol=0, atol=1e-10)


def test_failed_replications_are_counted_and_left_out(monkeypatch):
    panel = make_var_panel([[0.3, 0.0], [0.25, 0.3]], 12, 50, seed=8)
    forced = frozenset({4, 41, 87})
    real_ols = ident._within_ols
    calls = []

    def flaky(cross, mp, eff):
        coef, sigma, ok = real_ols(cross, mp, eff)
        calls.append(len(cross))
        ok[list(forced)] = False
        return coef, sigma, ok

    monkeypatch.setattr(ident, "_within_ols", flaky)
    # ten replications a chunk, shared by two workers
    monkeypatch.setattr(ident, "CHUNK_BYTES", 5 * panel.values.nbytes)
    with fork_rule(2) as pids:
        _, bands = bootstrap_irf(panel, PVARSpec(1), 0, 4, 100, 0.9, seed=3)
    assert len(pids) == 2
    assert calls == [100]  # one solve of every replication's cross-products
    assert bands.n_reps == 100 and bands.n_failed == 3
    lower, upper, n_failed = _reference_bands(panel, PVARSpec(1), 0, 4, 100, 0.9, 3,
                                              skip=forced)
    assert n_failed == 0
    np.testing.assert_allclose(bands.lower, lower, rtol=0, atol=1e-10)
    np.testing.assert_allclose(bands.upper, upper, rtol=0, atol=1e-10)
    all_lower, all_upper, _ = _reference_bands(panel, PVARSpec(1), 0, 4, 100, 0.9, 3)
    assert not (np.allclose(all_lower, lower) and np.allclose(all_upper, upper))


def test_a_zero_policy_variance_fails_its_replication(monkeypatch):
    # A refit whose policy residual has exactly zero variance has no impact
    # coefficient, as one of variance 1e-30 has none.
    panel = make_var_panel([[0.3, 0.0], [0.25, 0.3]], 12, 50, seed=8)
    zeroed = [10, 60]
    real_ols = ident._within_ols

    def zero_variance(cross, mp, eff):
        coef, sigma, ok = real_ols(cross, mp, eff)
        sigma[zeroed, 0, :] = sigma[zeroed, :, 0] = 0.0
        return coef, sigma, ok

    monkeypatch.setattr(ident, "_within_ols", zero_variance)
    _, bands = bootstrap_irf(panel, PVARSpec(1), 0, 4, 100, 0.9, seed=3)
    assert bands.n_failed == 2
    lower, upper, _ = _reference_bands(panel, PVARSpec(1), 0, 4, 100, 0.9, 3,
                                       skip=frozenset(zeroed))
    np.testing.assert_allclose(bands.lower, lower, rtol=0, atol=1e-10)
    np.testing.assert_allclose(bands.upper, upper, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n_units, lag_order", [(1, 1), (1, 2), (5, 1), (5, 2)])
def test_bands_equal_in_shares_and_in_process(n_units, lag_order):
    # six replications a chunk, so that 100 end in a partial chunk of four;
    # three workers take 5, 6 and 6 of the 17 chunks
    panel, spec = _case(7, lag_order, n_units, 40)
    runs = {}
    with mock.patch.object(ident, "CHUNK_BYTES", 3 * panel.values.nbytes):
        for count in (1, 3):
            with fork_rule(count) as pids:
                runs[count] = bootstrap_irf(panel, spec, 0, 5, 100, 0.9, seed=7)
            assert len(pids) == (count if count > 1 else 0)
            assert_no_worker_left(pids)
    (point, bands), (shared_point, shared) = runs[1], runs[3]
    np.testing.assert_array_equal(point, shared_point)
    np.testing.assert_array_equal(bands.lower, shared.lower)
    np.testing.assert_array_equal(bands.upper, shared.upper)
    assert bands.n_failed == shared.n_failed


def test_a_threaded_caller_bootstraps_in_process():
    panel, spec = _case(3, 1, 4, 40)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        with mock.patch.object(ident, "CHUNK_BYTES", 1), two_cpus(), \
                mock.patch("os.fork", wraps=os.fork) as fork:
            _, threaded = bootstrap_irf(panel, spec, 0, 5, 100, 0.9, seed=3)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    fork.assert_not_called()
    with mock.patch.object(ident, "CHUNK_BYTES", 1):
        _, alone = bootstrap_irf(panel, spec, 0, 5, 100, 0.9, seed=3)
    np.testing.assert_array_equal(threaded.lower, alone.lower)
    np.testing.assert_array_equal(threaded.upper, alone.upper)


def test_a_one_chunk_bootstrap_does_not_fork():
    panel, spec = _case(3, 1, 4, 40)  # 100 replications fit in one chunk
    with two_cpus(), mock.patch("os.fork", wraps=os.fork) as fork:
        bootstrap_irf(panel, spec, 0, 5, 100, 0.9, seed=3)
    fork.assert_not_called()


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
