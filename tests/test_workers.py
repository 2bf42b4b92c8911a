"""The one fork rule, and work run in shares of whole chunks.

``workers.processes`` decides how many processes may share a piece of work
(``verify``'s groups, a bootstrap's chunks); ``workers.in_shares`` runs one
share here and each other on a forked worker.  A command's bytes must not
depend on the CPUs it may use.
"""

import os
import threading
from unittest import mock

import numpy as np
import pytest

import causal_pvar.workers as workers

from conftest import CPUS, assert_no_worker_left, fork_rule, run_cli


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
        rows = workers.in_shares(_rows, 7)
    assert len(pids) == count - 1
    assert_no_worker_left(pids)
    np.testing.assert_array_equal(rows[:, 0], np.repeat(np.arange(7), 2))
    # this process made the first share and each worker one of the others
    assert list(dict.fromkeys(rows[:, 1])) == [os.getpid(), *pids]


def test_a_worker_error_is_raised_here():
    def share(first, stop):
        if first > 0:
            raise ValueError(f"chunk {first} is bad")
        return np.zeros((stop - first, 1))

    with fork_rule(2) as pids, pytest.raises(ValueError, match="^chunk 2 is bad$"):
        workers.in_shares(share, 4)
    assert_no_worker_left(pids)


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
