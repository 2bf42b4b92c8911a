"""Smoke runs of the scripts in ``scripts/``, in-process with small arguments."""

import os
import runpy
import sys

import pytest

from causal_pvar.verify import THEOREMS

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def _run(monkeypatch, script, args):
    """Run a script as ``__main__``; returns its exit code."""
    path = os.path.join(SCRIPTS, script)
    monkeypatch.setattr(sys, "argv", [path, *args])
    monkeypatch.setattr(sys, "path", list(sys.path))  # the scripts prepend src/
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(path, run_name="__main__")
    return exc.value.code


def test_theorem_suite_reports_every_check(monkeypatch, capsys):
    # At 5 replications a 3-SE check can fail by chance (the interference
    # pair does at seed 0), so the run must finish with one verdict per check
    # and exit 0 exactly when every verdict is PASS.
    code = _run(monkeypatch, "run_theorem_suite.py", ["--reps", "5"])
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == [*THEOREMS, "interference"]
    assert all(": PASS " in ln or ": FAIL " in ln for ln in lines)
    assert code == (0 if all(": PASS " in ln for ln in lines) else 1)


def test_coverage_study_exits_zero(monkeypatch, capsys):
    args = ["--runs", "1", "--reps", "100", "--units", "20", "--times", "60"]
    assert _run(monkeypatch, "coverage_study.py", args) == 0
    assert "bands contain the true impact" in capsys.readouterr().out


def test_demo_pipeline_writes_every_artifact(monkeypatch, capsys, tmp_path):
    assert _run(monkeypatch, "demo_pipeline.py", ["--out", str(tmp_path)]) == 0
    for name in ("panel.csv", "truth.json", "lagselect.csv", "diagnostics.json",
                 "irf.csv", "spillover.csv"):
        assert (tmp_path / name).stat().st_size > 0, name
