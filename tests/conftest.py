import contextlib
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import causal_pvar.verify as verify
import causal_pvar.workers as workers
from causal_pvar.panel import PanelDataset
from causal_pvar.scenarios import simulate_var_panel

# The CLI and script tests run subprocesses; they import the package from
# this checkout too, as the test process does through pytest's ``pythonpath``.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def run_cli(*args, cpus=None):
    """``python -m causal_pvar *args`` in a fresh interpreter, pinned to the
    first ``cpus`` usable CPUs when given."""
    def pin():
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus])

    return subprocess.run([sys.executable, "-m", "causal_pvar", *args], capture_output=True,
                          text=True, preexec_fn=pin if cpus else None, timeout=300)


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


@contextlib.contextmanager
def fork_rule(count):
    """Let work of n chunks run in ``min(n, count)`` processes whatever the
    host (1: in this process), and list the pids of the workers it forks."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    with mock.patch.object(workers, "processes", lambda n_tasks: max(1, min(n_tasks, count))), \
            mock.patch("os.fork", fork):
        yield pids


def two_cpus():
    """Report two usable CPUs, so that only the rule under test keeps work in-process."""
    return mock.patch("os.sched_getaffinity", lambda pid: {0, 1}, create=True)


def assert_no_worker_left(pids):
    """Every worker in ``pids`` has ended and been reaped."""
    assert multiprocessing.active_children() == []
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


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
