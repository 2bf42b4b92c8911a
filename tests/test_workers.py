"""The one fork rule, and work run in shares of whole tasks.

``workers.processes`` decides how many processes may share a piece of work
(``verify``'s groups, a bootstrap's chunks, a panel CSV's blocks); ``workers.in_shares`` runs each
share on a forked worker where that is more than one, and a worker ends
with its parent.  A command's bytes must not depend on the CPUs it may use.
"""

import os
import threading
import time
from unittest import mock

import numpy as np
import pytest

import causal_pvar.workers as workers

from conftest import CPUS, assert_no_worker_left, fork_rule, run_cli
from conftest import workers_left_after_kill


def test_one_process_per_cpu_and_at_most_one_per_task():
    with mock.patch("os.sched_getaffinity", lambda pid: {0, 1, 2, 3}, create=True):
        assert [workers.processes(n) for n in (0, 1, 2, 3, 9)] == [1, 1, 2, 3, 4]
    with mock.patch("os.sched_getaffinity", lambda pid: {5}, create=True):
        assert workers.processes(9) == 1


def test_a_running_thread_or_no_fork_keeps_work_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert workers.processes(9) == 2
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert workers.processes(9) == 1
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    monkeypatch.delattr(os, "fork")
    assert workers.processes(9) == 1


def _rows(first, stop):
    """Two rows per chunk, naming the chunk and the process that made them."""
    return np.array([[chunk, os.getpid()] for chunk in range(first, stop) for _ in range(2)])


@pytest.mark.parametrize("count", [1, 2, 3])
def test_shares_come_back_in_chunk_order(count):
    with fork_rule(count) as pids:
        shares = workers.in_shares(_rows, 7)
    assert len(pids) == (count if count > 1 else 0)
    assert_no_worker_left(pids)
    assert len(shares) == count
    rows = np.concatenate(shares)
    np.testing.assert_array_equal(rows[:, 0], np.repeat(np.arange(7), 2))
    # each worker made one share, or this process made the one share
    assert list(dict.fromkeys(rows[:, 1])) == (pids or [os.getpid()])


def test_a_worker_error_is_raised_here():
    def share(first, stop):
        if first > 0:
            raise ValueError(f"chunk {first} is bad")
        return np.zeros((stop - first, 1))

    with fork_rule(2) as pids, pytest.raises(ValueError, match="^chunk 2 is bad$"):
        workers.in_shares(share, 4)
    assert_no_worker_left(pids)


@pytest.mark.parametrize("count", [1, 2, 4])
def test_the_first_error_in_task_order_is_raised(count):
    def share(first, stop):
        time.sleep(0.1 * (4 - first))  # the last share fails first
        raise ValueError(f"chunk {first} is bad")

    with fork_rule(count) as pids, pytest.raises(ValueError, match="^chunk 0 is bad$"):
        workers.in_shares(share, 4)
    assert_no_worker_left(pids)


def test_an_error_ends_the_workers_still_running():
    def share(first, stop):
        if first == 0:
            raise ValueError("chunk 0 is bad")
        time.sleep(60)

    start = time.monotonic()
    with fork_rule(2) as pids, pytest.raises(ValueError, match="^chunk 0 is bad$"):
        workers.in_shares(share, 2)
    assert time.monotonic() - start < 10
    assert_no_worker_left(pids)


@pytest.mark.skipif(CPUS < 2 or not os.path.isdir("/proc/self"),
                    reason="needs two usable CPUs and /proc")
def test_bootstrap_workers_end_when_their_parent_is_killed():
    # 40,000 replications take each worker seconds; it must end within 2 s
    code = ("from causal_pvar.identify import bootstrap_irf\n"
            "from causal_pvar.panel import PVARSpec\n"
            "from causal_pvar.scenarios import ScenarioConfig, simulate_scenario\n"
            "panel, _ = simulate_scenario(ScenarioConfig('gaussian_continuous', 60, 150, 0))\n"
            "bootstrap_irf(panel, PVARSpec(1), 0, 10, 40000, 0.9, seed=0)\n")
    assert workers_left_after_kill(code, CPUS, 2) == []


@pytest.mark.skipif(CPUS < 2, reason="needs two usable CPUs")
def test_irf_and_spillover_bytes_do_not_depend_on_the_cpu_count(tmp_path):
    panel = tmp_path / "sim" / "panel.csv"
    # no policy dynamics and no unit means, so that the policy column stays 0/1
    res = run_cli("simulate", "--regime", "spillover_dummy", "--units", "30", "--times", "80",
                  "--treat-prob", "0.2", "--phi", "0.0,0.0;0.3,0.35", "--mu-scale", "0.0",
                  "--seed", "3", "--output", str(panel.parent))
    assert res.returncode == 0, res.stderr
    edges = tmp_path / "edges.csv"
    edges.write_text("".join(f"{u},{u % 30 + 1}\n" for u in range(1, 31)))
    outputs = {}
    for cpus in (1, None):
        out = tmp_path / f"cpus-{cpus}"
        # 200 replications in 8 chunks of 26 or fewer, 400 draws in 15 of 27 or fewer
        for args in (("irf", "--reps", "200", "--lags", "2"),
                     ("spillover", "--reps", "400", "--adjacency", str(edges))):
            res = run_cli(*args, "--input", str(panel), "--seed", "4", "--output", str(out),
                          cpus=cpus)
            assert res.returncode == 0, res.stderr
        outputs[cpus] = [(out / name).read_bytes() for name in ("irf.csv", "spillover.csv")]
    assert outputs[1] == outputs[None]
