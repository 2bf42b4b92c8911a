import contextlib
import os
import signal
import subprocess
import sys
import time
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
def traced_forks():
    """List the pids of the workers forked within."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    with mock.patch("os.fork", fork):
        yield pids


@contextlib.contextmanager
def fork_rule(count):
    """Let work of n tasks run in ``min(n, count)`` forked workers whatever
    the host (1: in this process), and list the pids of the workers forked."""
    with mock.patch.object(workers, "processes", lambda n_tasks: max(1, min(n_tasks, count))), \
            traced_forks() as pids:
        yield pids


# prints the pid of each worker the script forks, as it forks it
_PRINT_FORKS = """import os
_fork = os.fork

def _printed_fork():
    pid = _fork()
    if pid:
        print(pid, flush=True)
    return pid

os.fork = _printed_fork
"""


def _running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def workers_left_after_kill(code, count, seconds):
    """Run ``code`` in a fresh interpreter and SIGKILL it once it has forked
    ``count`` workers: those still running ``seconds`` later, then killed."""
    with subprocess.Popen([sys.executable, "-c", _PRINT_FORKS + code],
                          stdout=subprocess.PIPE, text=True) as parent:
        try:
            pids = [int(parent.stdout.readline()) for _ in range(count)]
        finally:
            parent.kill()
    deadline = time.monotonic() + seconds
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.02)
    left = [pid for pid in pids if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    return left


def two_cpus():
    """Report two usable CPUs, so that only the rule under test keeps work in-process."""
    return mock.patch("os.sched_getaffinity", lambda pid: {0, 1}, create=True)


def assert_no_worker_left(pids):
    """Every worker in ``pids`` has ended and been reaped."""
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
