"""Smoke runs of the scripts in ``scripts/``, in-process with small arguments."""

import ast
import os
import re
import runpy
import sys

import pytest

import causal_pvar.cli

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def _run(monkeypatch, script, args):
    """Run a script as ``__main__``; returns its exit code."""
    path = os.path.join(SCRIPTS, script)
    monkeypatch.setattr(sys, "argv", [path, *args])
    monkeypatch.setattr(sys, "path", list(sys.path))  # the scripts prepend src/
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(path, run_name="__main__")
    return exc.value.code


def _cli_artifact_names():
    """File names the CLI writes: its ``name.csv``/``name.json`` literals, plus
    ``stem.csv`` and ``stem.jsonl`` for each ``_write_records(..., stem)``."""
    with open(causal_pvar.cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"\w+\.(csv|json)", node.value):
                names.add(node.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "_write_records"):
            names.update(node.args[-1].value + ext for ext in (".csv", ".jsonl"))
    return names


def test_artifact_digests_are_reproducible_and_cover_the_cli(monkeypatch, capsys):
    outputs = []
    for _ in range(2):
        assert _run(monkeypatch, "artifact_digests.py", ["--verify-reps", "2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    paths = [line.split("  ", 1)[1] for line in lines]
    assert paths == sorted(paths)
    expected = _cli_artifact_names()
    assert len(expected) >= 9
    assert expected <= {os.path.basename(path) for path in paths}


def test_demo_pipeline_writes_every_artifact(monkeypatch, capsys, tmp_path):
    assert _run(monkeypatch, "demo_pipeline.py", ["--out", str(tmp_path)]) == 0
    for name in ("panel.csv", "truth.json", "lagselect.csv", "diagnostics.json",
                 "irf.csv", "spillover.csv"):
        assert (tmp_path / name).stat().st_size > 0, name
