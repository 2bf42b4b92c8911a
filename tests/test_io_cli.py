import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_pvar import cli
from causal_pvar.errors import BadConfig, ParseError, UnbalancedPanel
from causal_pvar.identify import cholesky_lower, impact_gamma
from causal_pvar.io import (
    fmt_float,
    load_edge_list,
    load_panel_csv,
    read_records,
    write_json,
    write_panel_csv,
    write_records,
)
from causal_pvar.panel import PanelDataset, PVARSpec, fit_pvar
from causal_pvar.scenarios import REGIMES, ScenarioConfig, simulate_scenario
from causal_pvar.verify import CHECKS, RECORD_NAMES


RECORD_FILES = {"csv": "{}.csv", "json-lines": "{}.jsonl"}


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("CAUSAL_PVAR_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "causal_pvar", *args],
        capture_output=True, text=True, env=env,
    )


def _strict_json(text):
    """Parse ``text`` as JSON, rejecting the NaN and Infinity extensions."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestFloatFormat:
    @settings(max_examples=50, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_round_trip_exact(self, x):
        assert float(fmt_float(x)) == x


class TestRecords:
    def test_irf_csv_header(self, tmp_path):
        path = tmp_path / "irf.csv"
        write_records(
            [{"variable": "y", "horizon": 0, "point": 1.0, "lower": 0.5, "upper": 1.5}],
            path,
        )
        first = path.read_text().splitlines()[0]
        assert first == "variable,horizon,point,lower,upper"

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_records([], path, fieldnames=["a", "b"])
        assert path.read_text() == "a,b\n"

    def test_json_lines_round_trip(self, tmp_path):
        recs = [{"name": "x", "value": 0.1 + 0.7, "count": 3, "flag": True}]
        path = tmp_path / "r.jsonl"
        write_records(recs, path, fmt="json-lines")
        back = read_records(path, fmt="json-lines")
        assert back[0]["value"] == recs[0]["value"]
        assert back[0]["flag"] is True

    def test_csv_round_trip(self, tmp_path):
        recs = [{"a": 1, "b": np.pi}, {"a": 2, "b": -1e-17}]
        path = tmp_path / "r.csv"
        write_records(recs, path)
        back = read_records(path)
        assert back[0]["b"] == np.pi and back[1]["b"] == -1e-17

    def test_none_round_trips(self, tmp_path):
        recs = [{"term": "x", "estimate": 0.5, "se": None}]
        write_records(recs, tmp_path / "r.csv")
        write_records(recs, tmp_path / "r.jsonl", fmt="json-lines")
        assert (tmp_path / "r.csv").read_text() == "term,estimate,se\nx,0.5,\n"
        assert (tmp_path / "r.jsonl").read_text() == '{"term": "x", "estimate": 0.5, "se": null}\n'
        assert read_records(tmp_path / "r.csv") == recs
        assert read_records(tmp_path / "r.jsonl", fmt="json-lines") == recs

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_integral_floats_read_back_as_floats(self, tmp_path, fmt):
        path = tmp_path / RECORD_FILES[fmt].format("r")
        write_records([{"x": 0.0, "k": 0}], path, fmt=fmt)
        (back,) = read_records(path, fmt=fmt)
        assert back == {"x": 0.0, "k": 0}
        assert type(back["x"]) is float and type(back["k"]) is int

    def test_non_finite_floats_are_json_null(self, tmp_path):
        report = {"a": np.nan, "b": [1.5, np.float64(-np.inf)], "c": np.array([np.inf, 2.0])}
        write_json(report, tmp_path / "r.json")
        assert _strict_json((tmp_path / "r.json").read_text()) == {
            "a": None, "b": [1.5, None], "c": [None, 2.0]}
        write_records([{"x": np.nan, "y": 0.5}], tmp_path / "r.jsonl", fmt="json-lines")
        assert (tmp_path / "r.jsonl").read_text() == '{"x": null, "y": 0.5}\n'
        write_records([{"x": np.nan, "y": 0.5}], tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_text() == "x,y\nnan,0.5\n"


class TestPanelCsv:
    def _panel(self, seed=0):
        vals = np.random.default_rng(seed).standard_normal((3, 5, 2))
        return PanelDataset(vals, 1, ("w", "y"))

    def test_round_trip_exact(self, tmp_path):
        panel = self._panel()
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        back = load_panel_csv(path)
        np.testing.assert_array_equal(back.values, panel.values)
        assert back.n_policies == 1
        assert back.variable_names == panel.variable_names

    def test_shuffled_rows_canonical(self, tmp_path):
        panel = self._panel(1)
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        lines = path.read_text().splitlines()
        head, body = lines[:2], lines[2:]
        rng = np.random.default_rng(2)
        rng.shuffle(body)
        (tmp_path / "shuffled.csv").write_text("\n".join(head + body) + "\n")
        back = load_panel_csv(tmp_path / "shuffled.csv")
        np.testing.assert_array_equal(back.values, panel.values)

    def test_missing_cell_reported(self, tmp_path):
        panel = self._panel(3)
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        lines = path.read_text().splitlines()
        dropped = [l for l in lines if not l.startswith("2,3,")]
        (tmp_path / "gap.csv").write_text("\n".join(dropped) + "\n")
        with pytest.raises(UnbalancedPanel) as err:
            load_panel_csv(tmp_path / "gap.csv")
        assert (err.value.unit, err.value.time) == (2, 3)

    def test_parse_error_has_line_number(self, tmp_path):
        (tmp_path / "bad.csv").write_text("# policies=1\nunit,time,w,y\n1,1,0.5,oops\n")
        with pytest.raises(ParseError) as err:
            load_panel_csv(tmp_path / "bad.csv")
        assert err.value.line_number == 3

    def test_period_missing_for_every_unit_reported(self, tmp_path):
        panel = PanelDataset(np.random.default_rng(4).standard_normal((10, 30, 2)), 1, ("w", "y"))
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        kept = [l for l in path.read_text().splitlines() if l.split(",")[1:2] != ["15"]]
        (tmp_path / "gap.csv").write_text("\n".join(kept) + "\n")
        with pytest.raises(UnbalancedPanel) as err:
            load_panel_csv(tmp_path / "gap.csv")
        assert (err.value.unit, err.value.time) == (1, 15)

    def test_equally_spaced_time_labels_accepted(self, tmp_path):
        rows = [f"{u},{year},{u * 0.5},{year / 1000}" for u in (1, 2) for year in (2000, 2005, 2010)]
        (tmp_path / "p.csv").write_text("# policies=1\nunit,time,w,y\n" + "\n".join(rows) + "\n")
        panel = load_panel_csv(tmp_path / "p.csv")
        assert panel.values.shape == (2, 3, 2)
        assert panel.values[1, 2, 1] == 2.01

    @pytest.mark.parametrize("row, message", [
        ("1_0,1,0.5,0.5", "unit and time must be integers"),
        ("1,1,0.5,1_0.5", "values must be decimal floats"),
        ("1,1,0.5,0.5 # note", "values must be decimal floats"),
        ("9223372036854775808,1,0.5,0.5", "unit and time must be integers"),
    ])
    def test_rejected_number_reports_its_line(self, tmp_path, row, message):
        (tmp_path / "bad.csv").write_text(
            f"# policies=1\nunit,time,w,y\n1,2,0.5,0.5\n\n{row}\n2,1,0.5,0.5\n")
        with pytest.raises(ParseError) as err:
            load_panel_csv(tmp_path / "bad.csv")
        assert str(err.value) == f"line 5: {message}"

    def test_policies_flag_required_without_annotation(self, tmp_path):
        (tmp_path / "p.csv").write_text("unit,time,w,y\n1,1,0.0,1.0\n1,2,0.0,1.0\n")
        with pytest.raises(BadConfig):
            load_panel_csv(tmp_path / "p.csv")
        panel = load_panel_csv(tmp_path / "p.csv", n_policies=1)
        assert panel.n_policies == 1

    def test_edge_list(self, tmp_path):
        (tmp_path / "edges.csv").write_text("1,2\n2,3\n")
        adj = load_edge_list(tmp_path / "edges.csv", np.arange(1, 4))
        assert adj[0, 1] == adj[1, 0] == adj[1, 2] == 1.0
        assert adj[0, 2] == 0.0


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "sim"
    res = run_cli(
        "simulate", "--regime", "heterogeneous_dummy", "--units", "30",
        "--times", "60", "--impact", "linear:1.5", "--seed", "7",
        "--output", str(out),
    )
    assert res.returncode == 0, res.stderr
    return out


@pytest.fixture(scope="module")
def spill_dir(tmp_path_factory):
    """A 0/1-policy spillover panel with a line-graph edge list beside it."""
    out = tmp_path_factory.mktemp("cli") / "spill"
    res = run_cli("simulate", "--regime", "spillover_dummy", "--units", "30",
                  "--times", "60", "--treat-prob", "0.15", "--rho", "0.5",
                  "--phi", "0.0,0.0;0.3,0.35", "--mu-scale", "0.0",
                  "--seed", "4", "--output", str(out))
    assert res.returncode == 0, res.stderr
    (out / "edges.csv").write_text("".join(f"{i + 1},{i + 2}\n" for i in range(29)))
    return out


def test_cli_import_loads_no_scipy():
    code = "import sys, causal_pvar.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


class TestCli:
    def test_simulate_writes_artifacts(self, sim_dir):
        assert (sim_dir / "panel.csv").exists()
        assert (sim_dir / "truth.json").exists()

    def test_fit_and_irf_pipeline_coherent(self, sim_dir, tmp_path):
        fit_out = tmp_path / "fit"
        res = run_cli("fit", "--input", str(sim_dir / "panel.csv"), "--lags", "1",
                      "--output", str(fit_out))
        assert res.returncode == 0, res.stderr
        irf_out = tmp_path / "irf"
        res = run_cli("irf", "--input", str(sim_dir / "panel.csv"), "--lags", "1",
                      "--horizon", "6", "--reps", "150", "--level", "0.9",
                      "--seed", "3", "--output", str(irf_out))
        assert res.returncode == 0, res.stderr
        recs = read_records(irf_out / "irf.csv")
        panel = load_panel_csv(sim_dir / "panel.csv")
        fit = fit_pvar(panel, PVARSpec(1))
        gamma = impact_gamma(cholesky_lower(fit.sigma), 0, 1)
        h0 = [r for r in recs if r["variable"] == "outcome1" and r["horizon"] == 0]
        assert h0[0]["point"] == pytest.approx(gamma, abs=1e-12)
        own = [r for r in recs if r["variable"] == "policy1" and r["horizon"] == 0]
        assert own[0]["point"] == 1.0

    def test_missing_seed_exits_2(self, sim_dir, tmp_path):
        res = run_cli("irf", "--input", str(sim_dir / "panel.csv"),
                      "--output", str(tmp_path / "x"))
        assert res.returncode == 2

    def test_seed_env_fallback(self, tmp_path):
        out = tmp_path / "env"
        res = run_cli("simulate", "--regime", "homogeneous_dummy", "--units", "10",
                      "--times", "30", "--output", str(out),
                      env_extra={"CAUSAL_PVAR_SEED": "12"})
        assert res.returncode == 0, res.stderr

    def test_bad_input_exits_1(self, tmp_path):
        res = run_cli("fit", "--input", str(tmp_path / "nope.csv"),
                      "--output", str(tmp_path / "o"))
        assert res.returncode == 1

    def test_lagselect_table_layout(self, sim_dir, tmp_path):
        out = tmp_path / "lag"
        res = run_cli("lagselect", "--input", str(sim_dir / "panel.csv"),
                      "--pmax", "3", "--output", str(out))
        assert res.returncode == 0, res.stderr
        recs = read_records(out / "lagselect.csv")
        assert [r["p"] for r in recs] == [1, 2, 3]
        assert set(recs[0]) == {"p", "bic_like", "aic_like", "hq_like"}

    def test_diagnose_writes_report(self, sim_dir, tmp_path):
        out = tmp_path / "diag"
        res = run_cli("diagnose", "--input", str(sim_dir / "panel.csv"),
                      "--lags", "1", "--smax", "2", "--output", str(out))
        assert res.returncode == 0, res.stderr
        import json

        report = json.loads((out / "diagnostics.json").read_text())
        assert "spectral_radius" in report and "autocorr_bound" in report
        assert "policy1" in report["policy_probe"]

    @pytest.mark.parametrize("smax", ["59", "500"])
    def test_diagnose_rejects_lags_past_the_residual_series(self, sim_dir, tmp_path, smax):
        # 60 periods at lag order 1 leave 59 residual periods per unit: lags
        # 1..58 can be correlated, lag 59 has no pair of periods left.
        out = tmp_path / "diag"
        res = run_cli("diagnose", "--input", str(sim_dir / "panel.csv"),
                      "--lags", "1", "--smax", smax, "--output", str(out))
        assert res.returncode == 1
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert "Warning" not in res.stderr
        assert not (out / "diagnostics.json").exists()

    def test_spillover_table_shape(self, tmp_path):
        # raw-dummy panel: no dynamics or unit effects in the policy column
        sim = tmp_path / "spill"
        res = run_cli("simulate", "--regime", "spillover_dummy", "--units", "30",
                      "--times", "60", "--treat-prob", "0.15", "--rho", "0.5",
                      "--phi", "0.0,0.0;0.3,0.35", "--mu-scale", "0.0",
                      "--seed", "4", "--output", str(sim))
        assert res.returncode == 0, res.stderr
        edges = "\n".join(f"{i + 1},{i + 2}" for i in range(29))
        (sim / "edges.csv").write_text(edges + "\n")
        out = tmp_path / "spillfit"
        res = run_cli("spillover", "--input", str(sim / "panel.csv"),
                      "--adjacency", str(sim / "edges.csv"), "--reps", "100",
                      "--seed", "5", "--output", str(out))
        assert res.returncode == 0, res.stderr
        recs = read_records(out / "spillover.csv")
        assert len(recs) == 2
        assert {r["term"] for r in recs} == {"policy1", "spillover_exposure"}
        assert all(r["se"] >= 0 for r in recs)

    @staticmethod
    def _one_error_line(res, code):
        lines = res.stderr.strip().splitlines()
        assert res.returncode == code, res.stderr
        assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr

    @pytest.mark.parametrize("shock", ["2", "-1"])
    def test_irf_shock_out_of_range_exits_2(self, sim_dir, tmp_path, shock):
        res = run_cli("irf", "--input", str(sim_dir / "panel.csv"), "--shock", shock,
                      "--reps", "100", "--seed", "1", "--output", str(tmp_path / "irf"))
        self._one_error_line(res, 2)

    @pytest.mark.parametrize("outcome", ["2", "0"])
    def test_spillover_outcome_out_of_range_exits_2(self, sim_dir, tmp_path, outcome):
        edges = tmp_path / "edges.csv"
        edges.write_text("".join(f"{i + 1},{i + 2}\n" for i in range(29)))
        res = run_cli("spillover", "--input", str(sim_dir / "panel.csv"),
                      "--adjacency", str(edges), "--outcome", outcome, "--reps", "10",
                      "--seed", "1", "--output", str(tmp_path / "spill"))
        self._one_error_line(res, 2)

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2(self, sim_dir, tmp_path, threads):
        res = run_cli("irf", "--input", str(sim_dir / "panel.csv"), "--threads", threads,
                      "--reps", "100", "--seed", "1", "--output", str(tmp_path / "irf"))
        self._one_error_line(res, 2)
        assert not (tmp_path / "irf").exists()

    def test_overflowing_var_exits_1_without_output(self, tmp_path):
        res = run_cli("simulate", "--regime", "gaussian_continuous", "--units", "5",
                      "--times", "50", "--seed", "1", "--phi", "1e200,0;0,1e200",
                      "--output", str(tmp_path / "sim"))
        self._one_error_line(res, 1)
        assert res.stderr.startswith("error: non-finite value at ")
        assert not (tmp_path / "sim").exists()

    def test_input_directory_exits_1(self, tmp_path):
        res = run_cli("fit", "--input", str(tmp_path), "--output", str(tmp_path / "o"))
        self._one_error_line(res, 1)

    def test_non_utf8_input_exits_1(self, tmp_path):
        (tmp_path / "p.csv").write_bytes(b"# policies=1\nunit,time,w,y\n1,1,0.5,\xff\n")
        res = run_cli("fit", "--input", str(tmp_path / "p.csv"), "--output", str(tmp_path / "o"))
        self._one_error_line(res, 1)

    def test_output_naming_a_file_exits_1(self, sim_dir, tmp_path):
        (tmp_path / "taken").write_text("")
        res = run_cli("fit", "--input", str(sim_dir / "panel.csv"),
                      "--output", str(tmp_path / "taken"))
        self._one_error_line(res, 1)

    @pytest.mark.parametrize("edges", ["directory", "non-utf8"])
    def test_unreadable_edge_list_exits_1(self, tmp_path, edges):
        panel = PanelDataset(np.zeros((4, 10, 2)), 1, ("w", "y"))
        write_panel_csv(panel, tmp_path / "panel.csv")
        path = tmp_path / "edges"
        if edges == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"1,2\n\xff,3\n")
        res = run_cli("spillover", "--input", str(tmp_path / "panel.csv"), "--adjacency",
                      str(path), "--seed", "1", "--output", str(tmp_path / "o"))
        self._one_error_line(res, 1)

    @pytest.mark.parametrize("impact", ["linear:abc", "quadratic:1,x"])
    def test_non_numeric_impact_exits_2(self, tmp_path, impact):
        res = run_cli("simulate", "--regime", "gaussian_continuous", "--impact", impact,
                      "--seed", "1", "--output", str(tmp_path / "sim"))
        self._one_error_line(res, 2)

    def test_negative_spillover_reps_exits_1(self, spill_dir, tmp_path):
        res = run_cli("spillover", "--input", str(spill_dir / "panel.csv"),
                      "--adjacency", str(spill_dir / "edges.csv"), "--reps", "-3",
                      "--seed", "1", "--output", str(tmp_path / "spill"))
        self._one_error_line(res, 1)

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_spillover_without_bootstrap_writes_empty_se(self, spill_dir, tmp_path, fmt):
        out = tmp_path / "spill"
        res = run_cli("spillover", "--input", str(spill_dir / "panel.csv"),
                      "--adjacency", str(spill_dir / "edges.csv"), "--reps", "0",
                      "--seed", "1", "--format", fmt, "--output", str(out))
        assert res.returncode == 0, res.stderr
        recs = read_records(out / RECORD_FILES[fmt].format("spillover"), fmt=fmt)
        assert [r["se"] for r in recs] == [None, None]
        assert all(isinstance(r["estimate"], float) for r in recs)

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize("command", ["lagselect", "irf", "spillover", "verify"])
    def test_record_file_is_named_for_its_format(self, spill_dir, tmp_path, command, fmt):
        out = tmp_path / command
        args = {
            "lagselect": ["--pmax", "2"],
            "irf": ["--reps", "100", "--horizon", "2", "--seed", "1"],
            "spillover": ["--adjacency", str(spill_dir / "edges.csv"), "--reps", "0",
                          "--seed", "1"],
            "verify": ["--theorem", "T1", "--reps", "3", "--seed", "1"],
        }[command]
        if command != "verify":
            args += ["--input", str(spill_dir / "panel.csv")]
        res = run_cli(command, *args, "--format", fmt, "--output", str(out))
        assert res.returncode == 0, res.stderr
        name = RECORD_FILES[fmt].format(command)
        assert sorted(p.name for p in out.iterdir()) == [name]
        assert read_records(out / name, fmt=fmt)

    def test_non_integer_seed_env_exits_2(self, tmp_path):
        for value in ("abc", "-3"):
            res = run_cli("simulate", "--regime", "homogeneous_dummy", "--units", "10",
                          "--times", "30", "--output", str(tmp_path / "env"),
                          env_extra={"CAUSAL_PVAR_SEED": value})
            self._one_error_line(res, 2)

    def test_verify_single_theorem(self, tmp_path):
        out = tmp_path / "ver"
        res = run_cli("verify", "--theorem", "T1", "--reps", "10", "--seed", "2",
                      "--output", str(out))
        assert res.returncode == 0, res.stderr
        recs = read_records(out / "verify.csv")
        assert recs[0]["theorem"] == "T1" and recs[0]["passed"] is True

    def test_verify_interference_writes_its_row(self, tmp_path):
        out = tmp_path / "ver"
        res = run_cli("verify", "--theorem", "interference", "--reps", "10", "--seed", "2",
                      "--output", str(out))
        recs = read_records(out / "verify.csv")
        assert [r["theorem"] for r in recs] == ["T11_T12_interference"]
        assert res.returncode == (0 if recs[0]["passed"] else 1), res.stderr
        assert res.stdout.startswith("interference: ")

    def test_repeated_row_exits_1_naming_the_cell(self, tmp_path):
        panel = PanelDataset(np.random.default_rng(8).standard_normal((3, 5, 2)), 1, ("w", "y"))
        write_panel_csv(panel, tmp_path / "panel.csv")
        lines = (tmp_path / "panel.csv").read_text().splitlines(keepends=True)
        repeat = next(line for line in lines if line.startswith("2,3,"))
        (tmp_path / "panel.csv").write_text("".join(lines + [repeat]))
        res = run_cli("fit", "--input", str(tmp_path / "panel.csv"), "--output", str(tmp_path / "o"))
        self._one_error_line(res, 1)
        assert res.stderr.strip() == "error: repeated cell (unit=2, time=3)"

    @pytest.mark.parametrize("regime, flag", [
        ("gaussian_continuous", "--anticipation"),
        ("spillover_dummy", "--selection-strength"),
    ])
    def test_simulate_rejects_a_violation_the_regime_ignores(self, tmp_path, regime, flag):
        res = run_cli("simulate", "--regime", regime, "--units", "10", "--times", "20",
                      flag, "0.7", "--seed", "1", "--output", str(tmp_path / "o"))
        self._one_error_line(res, 1)
        assert flag.lstrip("-").replace("-", "_") in res.stderr

    @pytest.mark.parametrize("regime, flags, name", [
        ("gaussian_continuous", ("--rho", "0.5"), "spillover_rho"),
        ("homogeneous_dummy", ("--ring-neighbors", "7", "--policy-sigma", "3",
                               "--zero-prob", "0.9"), "policy_sigma"),
    ])
    def test_simulate_rejects_a_flag_the_regime_does_not_read(self, tmp_path, regime, flags, name):
        res = run_cli("simulate", "--regime", regime, "--units", "10", "--times", "20",
                      *flags, "--seed", "1", "--output", str(tmp_path / "o"))
        self._one_error_line(res, 1)
        assert res.stderr.strip() == f"error: regime '{regime}' does not take {name}"

    def test_all_nan_row_exits_1_as_non_finite(self, tmp_path):
        rows = [f"{u},{t},0.5,0.25" for u in (1, 2) for t in (1, 2, 3)]
        rows[1] = "1,2,nan,nan"
        (tmp_path / "panel.csv").write_text("# policies=1\nunit,time,w,y\n" + "\n".join(rows) + "\n")
        res = run_cli("fit", "--input", str(tmp_path / "panel.csv"), "--output", str(tmp_path / "o"))
        self._one_error_line(res, 1)
        assert res.stderr.strip() == "error: non-finite value at (unit=1, time=2, variable=1)"

    def test_fit_keeps_the_input_labels(self, sim_dir, tmp_path):
        units = [101, 205, 307, 409] + list(range(500, 526))
        times = list(range(2000, 2300, 5))
        _relabel(sim_dir / "panel.csv", tmp_path / "labelled.csv", units, times)
        for name in ("plain", "labelled"):
            source = sim_dir / "panel.csv" if name == "plain" else tmp_path / "labelled.csv"
            res = run_cli("fit", "--input", str(source), "--lags", "2",
                          "--output", str(tmp_path / name))
            assert res.returncode == 0, res.stderr
        plain = (tmp_path / "plain" / "residuals.csv").read_text().splitlines()
        labelled = (tmp_path / "labelled" / "residuals.csv").read_text().splitlines()
        assert labelled[1].startswith("101,2010,") and labelled[-1].startswith("525,2295,")
        assert [l.split(",", 2)[2] for l in labelled] == [l.split(",", 2)[2] for l in plain]
        assert ((tmp_path / "labelled" / "fit.json").read_text()
                == (tmp_path / "plain" / "fit.json").read_text())

    def test_spillover_edges_name_unit_labels(self, spill_dir, tmp_path):
        labels = [2 * u + 1 for u in range(30)]
        _relabel(spill_dir / "panel.csv", tmp_path / "labelled.csv", labels, range(1, 61))
        (tmp_path / "edges.csv").write_text(
            "".join(f"{a},{b}\n" for a, b in zip(labels, labels[1:])))
        outputs = []
        for panel, edges in ((spill_dir / "panel.csv", spill_dir / "edges.csv"),
                             (tmp_path / "labelled.csv", tmp_path / "edges.csv")):
            out = tmp_path / f"spill{len(outputs)}"
            res = run_cli("spillover", "--input", str(panel), "--adjacency", str(edges),
                          "--reps", "20", "--seed", "1", "--output", str(out))
            assert res.returncode == 0, res.stderr
            outputs.append((out / "spillover.csv").read_text())
        assert outputs[0] == outputs[1]
        (tmp_path / "unknown.csv").write_text("1,3\n3,4\n")
        res = run_cli("spillover", "--input", str(tmp_path / "labelled.csv"), "--adjacency",
                      str(tmp_path / "unknown.csv"), "--seed", "1", "--output", str(tmp_path / "o"))
        self._one_error_line(res, 1)
        assert res.stderr.strip() == "error: line 2: edge endpoint 4 is not a unit of the panel"

    @pytest.mark.parametrize("flags, name", [
        (("--noise-scale", "nan"), "noise_scale"),
        (("--phi", "nan,0;0,0"), "phi"),
        (("--impact", "linear:nan"), "impact"),
        (("--policy-sigma", "inf"), "policy_sigma"),
        (("--effect-sd", "inf"), "effect_sd"),
    ])
    def test_simulate_rejects_a_non_finite_parameter(self, tmp_path, flags, name):
        res = run_cli("simulate", "--regime", "gaussian_continuous", "--units", "10",
                      "--times", "20", *flags, "--seed", "1", "--output", str(tmp_path / "o"))
        self._one_error_line(res, 1)
        assert res.stderr.strip() == f"error: {name} must be finite"
        assert not (tmp_path / "o" / "panel.csv").exists()

    def test_verify_rejects_a_non_finite_rho(self, tmp_path):
        res = run_cli("verify", "--theorem", "interference", "--rho", "nan", "--reps", "3",
                      "--seed", "1", "--output", str(tmp_path / "ver"))
        self._one_error_line(res, 1)
        assert res.stderr.strip() == "error: spillover_rho must be finite"

    def test_spillover_rejects_a_policy_that_is_not_0_1(self, tmp_path):
        panel = PanelDataset(np.random.default_rng(5).standard_normal((4, 10, 2)), 1, ("w", "y"))
        write_panel_csv(panel, tmp_path / "panel.csv")
        (tmp_path / "edges.csv").write_text("1,2\n2,3\n3,4\n")
        res = run_cli("spillover", "--input", str(tmp_path / "panel.csv"), "--adjacency",
                      str(tmp_path / "edges.csv"), "--seed", "1", "--output", str(tmp_path / "o"))
        self._one_error_line(res, 1)
        assert res.stderr.strip() == "error: treatment indicator must be 0/1"

    @pytest.mark.parametrize("argv", [
        ("simulate", "--regime", "foo", "--seed", "1", "--output", "o"),
        ("irf", "--input", "panel.csv", "--reps", "abc", "--seed", "1", "--output", "o"),
        (),
        ("simulate", "--regime", "homogeneous_dummy", "--units", "10", "--times", "20",
         "--seed", "-1", "--output", "o"),
        # flags a command ignores: --format off the record writers, --seed off
        # the deterministic commands, and --rho off a run without interference
        ("simulate", "--regime", "homogeneous_dummy", "--format", "csv", "--seed", "1",
         "--output", "o"),
        ("fit", "--input", "panel.csv", "--format", "csv", "--output", "o"),
        ("diagnose", "--input", "panel.csv", "--format", "csv", "--output", "o"),
        ("fit", "--input", "panel.csv", "--seed", "1", "--output", "o"),
        ("lagselect", "--input", "panel.csv", "--seed", "1", "--output", "o"),
        ("diagnose", "--input", "panel.csv", "--seed", "1", "--output", "o"),
        ("verify", "--theorem", "T1", "--rho", "0.3", "--reps", "2", "--seed", "1",
         "--output", "o"),
        # --threads off every command but irf
        ("fit", "--input", "panel.csv", "--threads", "2", "--output", "o"),
        ("simulate", "--regime", "homogeneous_dummy", "--threads", "1", "--seed", "1",
         "--output", "o"),
    ])
    def test_parser_error_is_one_line_and_exit_2(self, argv):
        self._one_error_line(run_cli(*argv), 2)


def test_scenario_flags_set_config_fields_and_default_to_none():
    names = {f.name for f in fields(ScenarioConfig)}
    assert all(name in names for name, _ in cli.SCENARIO_FLAGS.values())
    parser = cli.build_parser()
    args = parser.parse_args(["simulate", "--regime", REGIMES[0], "--output", "o"])
    assert all(getattr(args, flag[2:].replace("-", "_")) is None for flag in cli.SCENARIO_FLAGS)
    assert parser.parse_args(["verify", "--output", "o"]).rho is None


@pytest.mark.parametrize("regime", REGIMES)
def test_simulate_without_flags_is_the_default_scenario(tmp_path, regime):
    argv = ["simulate", "--regime", regime, "--units", "40", "--times", "80", "--seed", "0"]
    assert cli.main([*argv, "--output", str(tmp_path / "cli")]) == 0
    write_panel_csv(simulate_scenario(ScenarioConfig(regime, 40, 80, 0))[0], tmp_path / "lib.csv")
    assert (tmp_path / "cli" / "panel.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()


# One flag each regime reads besides the fields every regime takes.
REGIME_FLAG = {
    "homogeneous_dummy": ("--treat-prob", "0.2"),
    "gaussian_continuous": ("--policy-sigma", "1.5"),
    "nonnegative_continuous": ("--zero-prob", "0.3", "--support-low", "0.5",
                               "--support-high", "1.5"),
    "heterogeneous_dummy": ("--time-frac", "0.3"),
    "spillover_dummy": ("--rho", "0.5"),
}


@pytest.mark.parametrize("regime, impact",
                         [(regime, "quadratic:1.0,0.4") for regime in REGIMES]
                         + [("gaussian_continuous", "step:1.5,0.5")], ids=[*REGIMES, "step"])
def test_truth_config_rebuilds_the_panel(tmp_path, regime, impact):
    argv = ["simulate", "--regime", regime, "--units", "20", "--times", "40", "--seed", "3",
            "--phi", "0.1,0.0;0.3,0.35", "--mu-scale", "0.5", "--impact", impact,
            *REGIME_FLAG[regime], "--output", str(tmp_path / "cli")]
    assert cli.main(argv) == 0
    config = json.loads((tmp_path / "cli" / "truth.json").read_text())["config"]
    assert config["impact"] == impact
    config["impact"] = cli._parse_impact(config["impact"])
    write_panel_csv(simulate_scenario(ScenarioConfig(**config))[0], tmp_path / "lib.csv")
    assert (tmp_path / "cli" / "panel.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()


@pytest.mark.parametrize("regime", REGIMES)
def test_json_artifacts_are_strict_json(tmp_path, regime):
    out = str(tmp_path)
    argv = ["simulate", "--regime", regime, "--units", "20", "--times", "40", "--seed", "0"]
    assert cli.main([*argv, "--output", out]) == 0
    panel = ["--input", str(tmp_path / "panel.csv"), "--output", out]
    assert cli.main(["fit", *panel]) == 0
    assert cli.main(["diagnose", *panel]) == 0
    assert cli.main(["lagselect", *panel, "--pmax", "2", "--format", "json-lines"]) == 0
    written = sorted(p.name for p in tmp_path.glob("*.json*"))
    assert written == ["diagnostics.json", "fit.json", "lagselect.jsonl", "truth.json"]
    for name in written:
        text = (tmp_path / name).read_text()
        for doc in text.splitlines() if name.endswith(".jsonl") else [text]:
            _strict_json(doc)


def test_theorem_suite_reports_every_check(tmp_path, capsys):
    # At 5 replications a 3-SE check can fail by chance (the interference
    # pair does at seed 0), so the run must finish with one verdict per check
    # and exit 0 exactly when every verdict is PASS.
    code = cli.main(["verify", "--theorem", "all", "--reps", "5", "--seed", "0",
                     "--output", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == list(CHECKS)
    assert all(": PASS " in ln or ": FAIL " in ln for ln in lines)
    assert code == (0 if all(": PASS " in ln for ln in lines) else 1)
    rows = read_records(tmp_path / "verify.csv")
    assert [row["theorem"] for row in rows] == [RECORD_NAMES.get(name, name) for name in CHECKS]


def _relabel(src, dst, units, times):
    """Copy a panel CSV labelled 1..n and 1..T with unit i named units[i - 1]
    and time t named times[t - 1]."""
    units, times = list(units), list(times)
    lines = src.read_text().splitlines(keepends=True)
    body = [line.split(",", 2) for line in lines[2:]]
    dst.write_text("".join(lines[:2] + [f"{units[int(u) - 1]},{times[int(t) - 1]},{rest}"
                                        for u, t, rest in body]))
