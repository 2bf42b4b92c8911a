"""``verify_suite`` runs its scenario groups in forked worker processes.

Each group (T1, T2, T3, T4, T5, T6+T7, T9+T10, interference) is seeded on
its own, so the reports, and ``verify.csv``'s bytes, do not depend on the
worker count; a worker's error reaches the caller as the in-process run
raises it, and no worker outlives a run, nor its parent process.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from unittest import mock

import pytest

import causal_pvar.cli as cli
import causal_pvar.verify as verify
from causal_pvar.errors import SingularDesign

from conftest import CPUS, run_cli

GROUPS = [["T1"], ["T2"], ["T3"], ["T4"], ["T5"], ["T6", "T7"], ["T9", "T10"], ["interference"]]


def _until_error(reports):
    """The reports yielded before ``reports`` raises SingularDesign, and that error."""
    got = []
    with pytest.raises(SingularDesign) as err:
        for rep in reports:
            got.append(rep.record())
    return got, err.value


def test_suite_records_equal_each_group_run_in_process():
    with mock.patch("os.fork", wraps=os.fork) as fork:
        suite = [rep.record() for rep in verify.verify_suite(4, reps=3)]
    # one worker per usable CPU, at most one per group; none on one CPU
    assert fork.call_count == (min(CPUS, len(GROUPS)) if CPUS > 1 else 0)
    config = {group[0]: verify.CHECKS[group[0]].config.with_seed(4) for group in GROUPS}
    serial = [rep.record() for group in GROUPS
              for rep in verify._run_shared(group, config[group[0]], 3)]
    assert suite == serial
    assert multiprocessing.active_children() == []


def test_a_worker_error_is_raised_as_the_in_process_run_raises_it(overflowing_interference):
    serial, serial_error = _until_error(verify.verify_suite(0, 3, ["interference"]))
    pooled, pooled_error = _until_error(verify.verify_suite(0, 3, ["T1", "interference"]))
    assert serial == []
    assert [rec["theorem"] for rec in pooled] == ["T1"]
    assert type(pooled_error) is type(serial_error)
    assert str(pooled_error) == str(serial_error)
    assert multiprocessing.active_children() == []


def test_closing_a_half_consumed_suite_leaves_no_worker():
    reports = verify.verify_suite(4, reps=3)
    assert next(reports).theorem == "T1"
    reports.close()
    assert multiprocessing.active_children() == []


def _running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(CPUS < 2 or not os.path.isdir("/proc/self"),
                    reason="needs two usable CPUs and /proc")
def test_workers_end_when_their_parent_is_killed():
    code = ("import multiprocessing, causal_pvar.verify as verify\n"
            "reports = verify.verify_suite(0, 1000)\n"
            "next(reports)\n"
            "print(*[p.pid for p in multiprocessing.active_children()], flush=True)\n"
            "list(reports)\n")
    parent = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
    try:
        workers = [int(pid) for pid in parent.stdout.readline().split()]
    finally:
        parent.kill()
        parent.wait(timeout=30)
    assert len(workers) == min(CPUS, len(GROUPS))
    deadline = time.monotonic() + 10
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in workers if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert left == []


def test_a_threaded_caller_runs_the_groups_in_process():
    # fork copies only the calling thread, so no pool is forked beside another
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
    code = ("import sys, causal_pvar.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
