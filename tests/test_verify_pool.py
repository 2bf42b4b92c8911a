"""``verify_suite`` runs its scenario groups in forked worker processes.

Each group (T1, T2, T3, T4, T5, T6+T7, T9+T10, interference) is seeded on
its own, so the reports, and ``verify.csv``'s bytes, do not depend on the
worker count; the first failing group's error reaches the caller as the
in-process run raises it, and no worker outlives a run, nor its parent
process.
"""

import os
import subprocess
import sys
import threading
from dataclasses import replace
from unittest import mock

import pytest

import causal_pvar.cli as cli
import causal_pvar.verify as verify
from causal_pvar.errors import BadConfig, SingularDesign

from conftest import CPUS, assert_no_worker_left, fork_rule, run_cli, traced_forks
from conftest import workers_left_after_kill

GROUPS = [["T1"], ["T2"], ["T3"], ["T4"], ["T5"], ["T6", "T7"], ["T9", "T10"], ["interference"]]


def test_suite_records_equal_each_group_run_in_process():
    with traced_forks() as pids:
        suite = [rep.record() for rep in verify.verify_suite(4, reps=3)]
    # one worker per usable CPU, at most one per group; none on one CPU
    assert len(pids) == (min(CPUS, len(GROUPS)) if CPUS > 1 else 0)
    assert_no_worker_left(pids)
    config = {group[0]: verify.CHECKS[group[0]].config.with_seed(4) for group in GROUPS}
    serial = [rep.record() for group in GROUPS
              for rep in verify._run_shared(group, config[group[0]], 3)]
    assert suite == serial


def _error(names):
    """The SingularDesign that ``verify_suite(0, 3, names)`` raises."""
    with traced_forks() as pids, pytest.raises(SingularDesign) as err:
        verify.verify_suite(0, 3, names)
    assert_no_worker_left(pids)
    return err.value


def test_a_worker_error_is_raised_as_the_in_process_run_raises_it(overflowing_interference):
    serial, forked = _error(["interference"]), _error(["T1", "interference"])
    assert type(forked) is type(serial)
    assert str(forked) == str(serial)


@pytest.mark.parametrize("count", [1, 2, 8])
def test_the_first_failing_group_in_name_order_raises(count, monkeypatch,
                                                      overflowing_interference):
    # T1 on a one-unit scenario fails with BadConfig, interference with SingularDesign
    check = verify.CHECKS["T1"]
    monkeypatch.setitem(verify.CHECKS, "T1", replace(check, config=replace(check.config, n_units=1)))
    for names, error in ((["T1", "T2", "interference"], BadConfig),
                         (["interference", "T2", "T1"], SingularDesign)):
        with fork_rule(count) as pids, pytest.raises(error):
            verify.verify_suite(0, 3, names)
        assert len(pids) == (min(count, 3) if count > 1 else 0)
        assert_no_worker_left(pids)


@pytest.mark.skipif(CPUS < 2 or not os.path.isdir("/proc/self"),
                    reason="needs two usable CPUs and /proc")
def test_workers_end_when_their_parent_is_killed():
    code = "import causal_pvar.verify as verify\nverify.verify_suite(0, 1000)\n"
    assert workers_left_after_kill(code, min(CPUS, len(GROUPS)), 10) == []


def test_a_threaded_caller_runs_the_groups_in_process():
    # fork copies only the calling thread, so no worker is forked beside another
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        with mock.patch("os.fork", wraps=os.fork) as fork:
            got = [rep.record() for rep in verify.verify_suite(4, 3, ["T1", "T2"])]
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    fork.assert_not_called()
    assert got == [rep.record() for rep in verify.verify_suite(4, 3, ["T1", "T2"])]


def test_reports_follow_the_name_order_across_groups():
    names = ["T7", "T1", "T6", "T7"]
    got = [rep.record() for rep in verify.verify_suite(4, 3, names)]
    shared = {rep.theorem: rep.record()
              for rep in verify._run_shared(["T6", "T7"], verify.CHECKS["T6"].config.with_seed(4), 3)}
    t1 = verify._run_shared(["T1"], verify.CHECKS["T1"].config.with_seed(4), 3)[0].record()
    assert got == [shared["T7"], t1, shared["T6"], shared["T7"]]


def test_overflowing_interference_prints_only_the_error_line(tmp_path, capsys,
                                                            overflowing_interference):
    # one group runs in this process, so a numpy warning fails under error::RuntimeWarning
    code = cli.main(["verify", "--theorem", "interference", "--reps", "3", "--seed", "0",
                     "--output", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err == "error: a replication's lag Gram matrix is singular or ill-conditioned\n"


@pytest.mark.skipif(CPUS < 2, reason="needs two usable CPUs")
def test_verify_csv_bytes_do_not_depend_on_the_cpu_count(tmp_path):
    outputs = {}
    for cpus in (1, None):
        out = tmp_path / f"cpus-{cpus}"
        res = run_cli("verify", "--theorem", "all", "--reps", "5", "--seed", "1",
                      "--output", str(out), cpus=cpus)
        assert res.returncode in (0, 1), res.stderr
        outputs[cpus] = (res.stdout, (out / "verify.csv").read_bytes())
    assert outputs[1] == outputs[None]


def test_cli_import_loads_no_process_pool():
    # nor does a suite that forks its workers, where the host has two CPUs
    code = ("import sys, causal_pvar.cli, causal_pvar.verify as verify; "
            "assert len(verify.verify_suite(0, 3)) == len(verify.CHECKS); "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
