"""Panel CSVs read and grids written in shares of whole blocks.

``load_panel_csv`` parses a file's body in blocks of whole lines and
``write_grid`` formats a grid in blocks of rows, shared among forked workers
(``workers.in_shares``).  Errors, bytes and values must not depend on the
block size or the process count, and files and grids under one block, such
as a 60x150 panel's, must not fork.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

import causal_pvar.io as cpio
from causal_pvar import cli
from causal_pvar.errors import BadConfig, IoError, ParseError, UnbalancedPanel
from causal_pvar.io import fmt_float, load_panel_csv, write_grid, write_panel_csv
from causal_pvar.panel import PanelDataset

from conftest import CPUS, assert_no_worker_left, fork_rule, run_cli, traced_forks

HEADER = "# policies=1\nunit,time,w,y\n"


def _body(n_units, n_times):
    return "".join(f"{u},{t},{u / 8},{t / 4}\n"
                   for u in range(1, n_units + 1) for t in range(1, n_times + 1))


@contextlib.contextmanager
def small_read_blocks(count=2):
    """Read blocks of 64 bytes, about two rows, in ``count`` processes; no worker is left."""
    with mock.patch.object(cpio, "_READ_BLOCK", 64), fork_rule(count) as pids:
        yield pids
    assert_no_worker_left(pids)


def _error(path):
    """The error ``load_panel_csv(path)`` raises: its type, message and line number."""
    with pytest.raises(Exception) as err:
        load_panel_csv(path)
    return type(err.value), str(err.value), getattr(err.value, "line_number", None)


@pytest.mark.parametrize("tail, expected", [
    ("2,3,0.5,0.5\n", (UnbalancedPanel, "repeated cell (unit=2, time=3)", None)),
    ("1,4,0.5,oops\n", (ParseError, "line 13: values must be decimal floats", 13)),
    ("# policies=x\n", (ParseError, "line 13: malformed policies annotation", 13)),
])
def test_an_error_in_a_later_block_comes_back_unchanged(tmp_path, tail, expected):
    path = tmp_path / "panel.csv"
    path.write_text(HEADER + _body(2, 5) + tail)
    assert _error(path) == expected  # one block, parsed here
    with small_read_blocks() as pids:
        assert _error(path) == expected
    assert pids


def test_a_missing_annotation_is_reported_after_every_block(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("unit,time,w,y\n" + _body(3, 6))
    with small_read_blocks(), pytest.raises(BadConfig, match="number of policy variables unknown"):
        load_panel_csv(path)


def test_a_byte_no_worker_can_decode_is_an_io_error(tmp_path, capsys):
    path = tmp_path / "panel.csv"
    path.write_bytes((HEADER + _body(3, 6)).encode() + b"3,7,0.5,\xff\n")
    with small_read_blocks() as pids, pytest.raises(IoError) as err:
        load_panel_csv(path)
    assert pids and str(err.value).startswith(f"cannot read {path}: 'utf-8' codec can't decode")
    with small_read_blocks():
        assert cli.main(["fit", "--input", str(path), "--output", str(tmp_path / "o")]) == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"error: cannot read {path}: ") and stderr.count("\n") == 1


def test_a_byte_order_mark_is_skipped_before_the_first_block(tmp_path):
    text = "# café\n" + HEADER + _body(3, 6)
    (tmp_path / "plain.csv").write_text(text)
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode())
    with small_read_blocks() as pids:
        plain, bom = (load_panel_csv(tmp_path / name) for name in ("plain.csv", "bom.csv"))
    assert pids
    assert bom.values.tobytes() == plain.values.tobytes()
    assert (bom.variable_names, bom.n_policies) == (plain.variable_names, plain.n_policies)


def reference_csv(values, preamble, units, times):
    """The per-value writer: one fmt_float call per value."""
    lines = [preamble + "unit,time,a,b,c"]
    for i, u in enumerate(units):
        for j, t in enumerate(times):
            lines.append(f"{u},{t}," + ",".join(fmt_float(v) for v in values[i, j]))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("n_units", [2, 4, 5], ids=["under-a-block", "whole-blocks", "partial"])
def test_grid_bytes_do_not_depend_on_the_split(tmp_path, count, n_units):
    # blocks of 12 rows, each formatted in pieces of 5: 2 x 5 rows are one
    # task, 4 x 6 two, 5 x 6 three
    n_times, n_tasks = {2: (5, 1), 4: (6, 2), 5: (6, 3)}[n_units]
    values = np.random.default_rng(n_units).standard_normal((n_units, n_times, 3))
    values[0, 0] = [-0.0, 5e-324, 1e300]
    units, times = np.arange(n_units) * 7 - 3, np.arange(n_times) + 1990
    with mock.patch.multiple(cpio, _BLOCK_ROWS=12, _PIECE_ROWS=5), fork_rule(count) as pids:
        write_grid(values, tmp_path / "grid.csv", ("a", "b", "c"), units, times, "# note\n")
    assert_no_worker_left(pids)
    forked = min(count, n_tasks)
    assert len(pids) == (forked if forked > 1 else 0)
    assert (tmp_path / "grid.csv").read_bytes() == reference_csv(values, "# note\n", units, times)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_a_failing_share_leaves_the_file_as_it_was(tmp_path, count):
    path = tmp_path / "grid.csv"
    path.write_text("kept\n")
    units = np.array([1, 2, 3, "x"], dtype=object)  # '%d' % 'x' fails in the last block
    with mock.patch.object(cpio, "_BLOCK_ROWS", 5), fork_rule(count) as pids, \
            pytest.raises(TypeError):
        write_grid(np.zeros((4, 5, 2)), path, ("a", "b"), units, np.arange(5))
    assert_no_worker_left(pids)
    assert path.read_text() == "kept\n"


def test_a_60_by_150_panel_is_written_and_read_without_forking(tmp_path):
    panel = PanelDataset(np.random.default_rng(0).standard_normal((60, 150, 2)), 1, ("w", "y"))
    with traced_forks() as pids:
        write_panel_csv(panel, tmp_path / "panel.csv")
        load_panel_csv(tmp_path / "panel.csv")
    assert pids == []


def test_a_500_by_150_panel_forks_at_most_one_worker_per_cpu_a_call(tmp_path):
    values = np.random.default_rng(0).standard_normal((500, 150, 2))
    path = tmp_path / "panel.csv"
    with traced_forks() as written:
        write_panel_csv(PanelDataset(values, 1, ("w", "y")), path)
    with traced_forks() as read:
        back = load_panel_csv(path)
    assert back.values.tobytes() == values.tobytes()
    assert len(written) <= CPUS and len(read) <= CPUS
    assert_no_worker_left(written + read)


@pytest.mark.skipif(CPUS < 2, reason="needs two usable CPUs")
def test_simulate_and_fit_bytes_do_not_depend_on_the_cpu_count(tmp_path):
    # 24,000 rows, about 1.1 MB: two blocks to write and two to read
    outputs = {}
    for cpus in (1, None):
        out = tmp_path / f"cpus-{cpus}"
        for args in (("simulate", "--regime", "gaussian_continuous", "--units", "300",
                      "--times", "80", "--seed", "2"),
                     ("fit", "--input", str(out / "panel.csv"), "--lags", "2")):
            res = run_cli(*args, "--output", str(out), cpus=cpus)
            assert res.returncode == 0, res.stderr
        outputs[cpus] = [(out / name).read_bytes() for name in ("panel.csv", "residuals.csv")]
    assert len(outputs[1][0]) > cpio._READ_BLOCK
    assert outputs[1] == outputs[None]
