import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_pvar.errors import BadConfig, ParseError, UnbalancedPanel
from causal_pvar.identify import cholesky_lower, impact_gamma
from causal_pvar.io import (
    fmt_float,
    load_edge_list,
    load_panel_csv,
    read_records,
    write_panel_csv,
    write_records,
)
from causal_pvar.panel import PanelDataset, PVARSpec, fit_pvar


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("CAUSAL_PVAR_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "causal_pvar", *args],
        capture_output=True, text=True, env=env,
    )


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

    def test_policies_flag_required_without_annotation(self, tmp_path):
        (tmp_path / "p.csv").write_text("unit,time,w,y\n1,1,0.0,1.0\n1,2,0.0,1.0\n")
        with pytest.raises(BadConfig):
            load_panel_csv(tmp_path / "p.csv")
        panel = load_panel_csv(tmp_path / "p.csv", n_policies=1)
        assert panel.n_policies == 1

    def test_edge_list(self, tmp_path):
        (tmp_path / "edges.csv").write_text("1,2\n2,3\n")
        adj = load_edge_list(tmp_path / "edges.csv", 3)
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
    def _one_line_exit_2(res):
        lines = res.stderr.strip().splitlines()
        assert res.returncode == 2, res.stderr
        assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr

    @pytest.mark.parametrize("shock", ["2", "-1"])
    def test_irf_shock_out_of_range_exits_2(self, sim_dir, tmp_path, shock):
        res = run_cli("irf", "--input", str(sim_dir / "panel.csv"), "--shock", shock,
                      "--reps", "100", "--seed", "1", "--output", str(tmp_path / "irf"))
        self._one_line_exit_2(res)

    @pytest.mark.parametrize("outcome", ["2", "0"])
    def test_spillover_outcome_out_of_range_exits_2(self, sim_dir, tmp_path, outcome):
        edges = tmp_path / "edges.csv"
        edges.write_text("".join(f"{i + 1},{i + 2}\n" for i in range(29)))
        res = run_cli("spillover", "--input", str(sim_dir / "panel.csv"),
                      "--adjacency", str(edges), "--outcome", outcome, "--reps", "10",
                      "--seed", "1", "--output", str(tmp_path / "spill"))
        self._one_line_exit_2(res)

    def test_non_integer_seed_env_exits_2(self, tmp_path):
        res = run_cli("simulate", "--regime", "homogeneous_dummy", "--units", "10",
                      "--times", "30", "--output", str(tmp_path / "env"),
                      env_extra={"CAUSAL_PVAR_SEED": "abc"})
        self._one_line_exit_2(res)

    def test_verify_single_theorem(self, tmp_path):
        out = tmp_path / "ver"
        res = run_cli("verify", "--theorem", "T1", "--reps", "10", "--seed", "2",
                      "--output", str(out))
        assert res.returncode == 0, res.stderr
        recs = read_records(out / "verify.csv")
        assert recs[0]["theorem"] == "T1" and recs[0]["passed"] is True
