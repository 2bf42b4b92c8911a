import os
from dataclasses import replace

import numpy as np
import pytest

import causal_pvar.verify as verify
from causal_pvar.panel import PanelDataset
from causal_pvar.scenarios import simulate_var_panel

# The CLI and script tests run subprocesses; they import the package from
# this checkout too, as the test process does through pytest's ``pythonpath``.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def make_var_panel(phi, n_units, n_times, seed, mu=None, burn=50, n_policies=1,
                   noise_scale=1.0):
    """Stationary VAR panel driven by i.i.d. Gaussian innovations."""
    phi = np.asarray(phi, dtype=float)
    m = phi.shape[-1]
    rng = np.random.default_rng(seed)
    if mu is None:
        mu = np.zeros((n_units, m))
    innov = noise_scale * rng.standard_normal((n_units, n_times + burn, m))
    panel = simulate_var_panel(phi, mu, innov, n_policies=n_policies)
    return PanelDataset(panel.values[:, -n_times:, :], n_policies, panel.variable_names)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def overflowing_interference(monkeypatch):
    """The interference check at a spillover strength whose dynamics overflow;
    forked verify workers inherit the patched ``CHECKS``."""
    check = verify.CHECKS["interference"]
    monkeypatch.setitem(verify.CHECKS, "interference",
                        replace(check, config=replace(check.config, spillover_rho=1e200)))
