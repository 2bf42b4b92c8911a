"""The design-free within moments kernel against an explicitly built design.

``_design`` builds Z = [lags 1..p, dep] the long way: every lag copied into
its own columns and each unit demeaned over the sample window.  The kernel
never builds Z; its cross-products and residuals must match those of the
explicit Z.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_pvar.identify import bootstrap_irf
from causal_pvar.panel import PVARSpec, _within_moments, _within_resid

from conftest import make_var_panel


def _design(states, p):
    """(b, (t - p) n, m (p + 1)) time-major rows of Z, demeaned per unit."""
    t, b, n, m = states.shape
    z = np.concatenate([states[p - l : t - l] for l in (*range(1, p + 1), 0)], axis=3)
    z = z - z.mean(axis=0)
    return z.transpose(1, 0, 2, 3).reshape(b, (t - p) * n, -1)


def _states(seed, p, m, b, n, t, slope, log_mean):
    """b time-major (t, b, n, m) VAR(1) panels with unit means of 10**log_mean."""
    rng = np.random.default_rng(seed)
    phi = slope * np.eye(m) + rng.uniform(-0.05, 0.05, (m, m)) * (1.0 - slope)
    x = np.empty((t + 30, b * n, m))
    x[0] = rng.standard_normal((b * n, m))
    for s in range(1, t + 30):
        x[s] = x[s - 1] @ phi.T + rng.standard_normal((b * n, m))
    means = 10.0**log_mean * rng.uniform(-1.0, 1.0, (b * n, m))
    return (x[30:] + means).reshape(t, b, n, m)


def _agree(got, want, scale):
    """|got - want| within 1e-12 of ``scale``, elementwise."""
    err = np.max(np.abs(got - want) / scale)
    assert err <= 1e-12, f"relative error {err:.3g}"


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(1, 3), m=st.integers(2, 3),
       b=st.integers(1, 4), n=st.integers(1, 6), extra=st.integers(0, 30),
       slope=st.sampled_from([0.0, 0.5, 0.98]), log_mean=st.floats(0.0, 3.0))
def test_moments_match_the_explicit_design(seed, p, m, b, n, extra, slope, log_mean):
    t = m * p + 2 + p + extra
    states = _states(seed, p, m, b, n, t, slope, log_mean)
    cross, rows, means, _ = _within_moments(states, p)
    z = _design(states, p)
    want = z.transpose(0, 2, 1) @ z
    # each entry against the Cauchy-Schwarz scale of its row and column
    diag = np.sqrt(np.diagonal(want, axis1=1, axis2=2))
    _agree(cross, want, diag[:, :, None] * diag[:, None, :])

    coef = np.random.default_rng(seed).standard_normal((b, m * p, m))
    beta = np.concatenate([-coef, np.broadcast_to(np.eye(m), (b, m, m))], axis=1)
    resid = _within_resid(rows, means, beta)
    _agree(resid.transpose(0, 2, 1), z @ beta, np.abs(z).max() * np.abs(beta).max())


def test_bootstrap_working_set_stays_below_the_design_engine():
    # The engine that built each chunk's lag design peaked at 2.40 MB here,
    # three replications per chunk; the slab and centring buffer of twice
    # as many replications must fit under it.
    panel = make_var_panel([[0.3, 0.0], [0.25, 0.35]], 60, 150, seed=0)
    bootstrap_irf(panel, PVARSpec(1), 0, 10, 500, 0.9, seed=0)  # first-call imports
    tracemalloc.start()
    try:
        bootstrap_irf(panel, PVARSpec(1), 0, 10, 500, 0.9, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.40e6
