"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.
"""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from causal_pvar.diagnostics import lag_criteria, residual_autocorr
from causal_pvar.estimands import did_four_means, dummy_gamma
from causal_pvar.identify import bootstrap_irf, cholesky_lower, impact_gamma
from causal_pvar.panel import PanelDataset, PVARSpec, fit_pvar
from causal_pvar.scenarios import (
    GAUSSIAN_CONTINUOUS,
    SPILLOVER_DUMMY,
    ScenarioConfig,
    linear_impact,
    simulate_scenario,
    simulate_var_panel,
)
from causal_pvar.verify import default_config, verify_interference, verify_theorem
from causal_pvar.weights import ZeroInflatedUniform, gaussian_weights, nonneg_weights


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -- 1. algebraic identities ---------------------------------------------------

def test_criterion_1_algebraic_identities():
    rng = np.random.default_rng(101)
    worst_chol = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 7))
        a = rng.standard_normal((m, m))
        sigma = a @ a.T
        low = cholesky_lower(sigma).lower
        worst_chol = max(worst_chol, np.abs(low @ low.T - sigma).max())
    report("1a", worst_chol < 1e-10,
           f"Cholesky reconstruction max error {worst_chol:.2e} < 1e-10 (100 PSD draws)")

    worst_lemma = 0.0
    for _ in range(100):
        n = int(rng.integers(200, 500))
        w = rng.standard_normal(n)
        y = 0.7 * w + rng.standard_normal(n)
        sigma = np.cov(np.stack([w, y]), ddof=0)
        gamma = impact_gamma(cholesky_lower(sigma), 0, 1)
        oracle = ((w - w.mean()) * (y - y.mean())).mean() / w.var()
        worst_lemma = max(worst_lemma, abs(gamma - oracle))
    report("1b", worst_lemma < 1e-10,
           f"impact coefficient vs cov/var max error {worst_lemma:.2e} < 1e-10 (100 panels)")

    # Binary assignment with in-sample-exact parallel trends / no
    # anticipation (cell-recentered noise): the four-mean contrast, the
    # pooled cov/var coefficient, and the treated-control mean difference
    # coincide exactly.
    worst_did = 0.0
    for _ in range(100):
        n_u, n_t = int(rng.integers(6, 20)), int(rng.integers(8, 30))
        iu = np.zeros(n_u, bool)
        iu[: int(rng.integers(1, n_u))] = True
        it = np.zeros(n_t, bool)
        it[: int(rng.integers(1, n_t))] = True
        w = np.outer(iu, it).astype(float)
        tau = float(rng.normal(scale=2.0))
        noise = rng.standard_normal((n_u, n_t))
        for mu in (np.ix_(iu, it), np.ix_(~iu, it), np.ix_(iu, ~it), np.ix_(~iu, ~it)):
            noise[mu] -= noise[mu].mean()
        y = tau * w + noise
        four = did_four_means(y, iu, it)
        sigma = np.cov(np.stack([w.ravel(), y.ravel()]), ddof=0)
        gamma = impact_gamma(cholesky_lower(sigma), 0, 1)
        worst_did = max(worst_did, abs(four - gamma), abs(gamma - dummy_gamma(w, y)))
    report("1c", worst_did < 1e-10,
           f"four-mean contrast vs impact coefficient max error {worst_did:.2e} < 1e-10")


# -- 2. homogeneous dummy -> ATE -----------------------------------------------

def test_criterion_2_randomized_dummy_recovers_ate():
    rep = verify_theorem("T2", reps=200)
    detail = (
        f"|mean gamma - ATE| = {rep.discrepancy:.5f} vs 3*SE = {3 * rep.mc_se:.5f}; "
        f"|mean selection bias| = {abs(rep.details['selection_bias_mean']):.5f} vs "
        f"3*SE = {3 * rep.details['selection_bias_se']:.5f} (N=200, T=200, 200 seeds)"
    )
    report("2", rep.passed, detail)


# -- 3. Gaussian dose weights and ACR ------------------------------------------

def test_criterion_3_gaussian_weights_and_acr():
    from scipy import stats

    grid = np.linspace(-6.0, 6.0, 4001)
    prof = gaussian_weights(1.0, grid)
    dens_err = np.abs(prof.q - stats.norm.pdf(grid)).max()
    norm_err = abs(prof.q_integral - 1.0)
    ok_weights = dens_err < 1e-8 and norm_err < 1e-6
    report("3a", ok_weights,
           f"weights match Gaussian density to {dens_err:.2e} (<1e-8), "
           f"integral off by {norm_err:.2e} (<1e-6)")

    rep = verify_theorem("T3", reps=200)
    report("3b", rep.passed,
           f"quadratic dose response: |mean gamma - quadrature| = {rep.discrepancy:.5f} "
           f"vs 3*SE = {3 * rep.mc_se:.5f} (200 seeds)")


# -- 4. non-negative mixture ---------------------------------------------------

def test_criterion_4_nonnegative_mixture():
    law_prof = nonneg_weights(law=ZeroInflatedUniform(0.5, 1.0, 2.0))
    law_err = abs(law_prof.q1_integral + law_prof.q0 - 1.0)
    rng = np.random.default_rng(404)
    n = 1_000_000
    sample = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(1.0, 2.0, n))
    samp_prof = nonneg_weights(sample=sample)
    samp_err = abs(samp_prof.q1_integral + samp_prof.q0 - 1.0)
    report("4a", law_err < 1e-6 and samp_err < 1e-6,
           f"q1 integral + q0 = 1 within {law_err:.2e} (law) and {samp_err:.2e} "
           f"(1e6-draw sample), both < 1e-6")

    rep = verify_theorem("T7", reps=200)
    report("4b", rep.passed,
           f"dose/extensive-margin composition: |mean gamma - composition| = "
           f"{rep.discrepancy:.5f} vs 3*SE = {3 * rep.mc_se:.5f} (200 seeds)")


# -- 5. heterogeneous dummy -> ATT, with negative control ------------------------

def test_criterion_5_att_and_anticipation_control():
    rep = verify_theorem("T10", reps=200)
    report("5a", rep.passed,
           f"|mean gamma - ATT| = {rep.discrepancy:.5f} vs 3*SE = {3 * rep.mc_se:.5f} "
           f"(200 seeds)")

    violated = verify_theorem("T10", replace(default_config("T10"), anticipation=0.5),
                              reps=200)
    report("5b", not violated.passed,
           f"anticipation-injected design fails the same check as required: "
           f"discrepancy {violated.discrepancy:.4f} vs 3*SE = {3 * violated.mc_se:.5f}")


# -- 6. interference -------------------------------------------------------------

def test_criterion_6_interference():
    cfg = ScenarioConfig(
        regime=SPILLOVER_DUMMY, n_units=100, n_times=120, seed=606,
        impact=linear_impact(1.0), treat_prob=0.15, spillover_rho=0.5,
    )
    rep = verify_interference(cfg, reps=200)
    detail = (
        f"naive vs (ATTE - ASTE): {rep.naive_discrepancy:.5f} vs 3*SE = "
        f"{3 * rep.naive_se:.5f}; adjusted vs ATTE: {rep.adjusted_discrepancy:.5f} vs "
        f"3*SE = {3 * rep.adjusted_se:.5f}; naive bias {rep.details['naive_bias_vs_atte']:+.4f} "
        f"~ -ASTE = {-rep.aste_mean:+.4f} (200 seeds)"
    )
    report("6", rep.naive_passed and rep.adjusted_passed, detail)


# -- 7. diagnostics ----------------------------------------------------------------

def _var2_panel(n, t, seed):
    phi1 = np.array([[0.3, 0.0], [0.15, 0.25]])
    phi2 = np.array([[0.25, 0.0], [0.10, 0.20]])
    rng = np.random.default_rng(seed)
    innov = rng.standard_normal((n, t + 30, 2))
    panel = simulate_var_panel(np.stack([phi1, phi2]), np.zeros((n, 2)), innov)
    return PanelDataset(panel.values[:, -t:, :], 1, panel.variable_names)


def test_criterion_7_diagnostics():
    flagged = passed = 0
    for r in range(100):
        panel = _var2_panel(100, 300, 7000 + r)
        flagged += residual_autocorr(fit_pvar(panel, PVARSpec(1)), 2).violated
        passed += not residual_autocorr(fit_pvar(panel, PVARSpec(2)), 2).violated
    report("7a", flagged >= 90 and passed >= 90,
           f"autocorrelation check flags lag-misspecified fits {flagged}/100 (>=90) "
           f"and passes well-specified fits {passed}/100 (>=90)")

    hits = 0
    for r in range(100):
        hits += lag_criteria(_var2_panel(100, 300, 7700 + r), 4).chosen["bic_like"] == 2
    report("7b", hits >= 90, f"BIC-like criterion selects the true order 2 in {hits}/100 runs (>=90)")


# -- 8. bootstrap coverage -----------------------------------------------------------

def test_criterion_8_bootstrap_coverage():
    beta = 0.8
    hits = 0
    for r in range(100):
        cfg = ScenarioConfig(
            regime=GAUSSIAN_CONTINUOUS, n_units=60, n_times=150, seed=9000 + r,
            impact=linear_impact(beta), policy_sigma=1.0,
        )
        panel, _ = simulate_scenario(cfg)
        _, bands = bootstrap_irf(panel, PVARSpec(1), k=0, horizon=4,
                                 n_reps=200, level=0.9, seed=9000 + r)
        hits += bands.lower[1, 0] <= beta <= bands.upper[1, 0]
    report("8", hits >= 85,
           f"90% bands contain the true impact in {hits}/100 outer runs (>=85, B=200)")


# -- 9. CLI determinism -----------------------------------------------------------

def _run_cli(*args):
    env = dict(os.environ)
    env.pop("CAUSAL_PVAR_SEED", None)
    res = subprocess.run([sys.executable, "-m", "causal_pvar", *args],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return res


def test_criterion_9_cli_determinism(tmp_path):
    sims = []
    for tag in ("a", "b"):
        out = tmp_path / f"sim_{tag}"
        _run_cli("simulate", "--regime", "heterogeneous_dummy", "--units", "25",
                 "--times", "60", "--seed", "42", "--output", str(out))
        sims.append(out)
    same_sim = (sims[0] / "panel.csv").read_bytes() == (sims[1] / "panel.csv").read_bytes()
    same_truth = (sims[0] / "truth.json").read_bytes() == (sims[1] / "truth.json").read_bytes()

    irfs = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"irf_{tag}"
        _run_cli("irf", "--input", str(sims[0] / "panel.csv"), "--lags", "1",
                 "--horizon", "5", "--reps", "120", "--level", "0.9",
                 "--seed", "7", "--threads", threads, "--output", str(out))
        irfs.append((out / "irf.csv").read_bytes())
    same_rerun = irfs[0] == irfs[1]
    same_threads = irfs[0] == irfs[2]

    ver = []
    for tag in ("a", "b"):
        out = tmp_path / f"ver_{tag}"
        _run_cli("verify", "--theorem", "T1", "--reps", "8", "--seed", "3",
                 "--output", str(out))
        ver.append((out / "verify.csv").read_bytes())
    same_verify = ver[0] == ver[1]

    spill = []
    edges = tmp_path / "edges.csv"
    edges.write_text("\n".join(f"{i + 1},{i + 2}" for i in range(24)) + "\n")
    sim_raw = tmp_path / "sim_raw"
    _run_cli("simulate", "--regime", "spillover_dummy", "--units", "25",
             "--times", "60", "--treat-prob", "0.15", "--rho", "0.5",
             "--phi", "0.0,0.0;0.3,0.35", "--mu-scale", "0.0",
             "--seed", "11", "--output", str(sim_raw))
    for tag in ("a", "b"):
        out = tmp_path / f"sp_{tag}"
        _run_cli("spillover", "--input", str(sim_raw / "panel.csv"),
                 "--adjacency", str(edges), "--reps", "120", "--seed", "13",
                 "--output", str(out))
        spill.append((out / "spillover.csv").read_bytes())
    same_spill = spill[0] == spill[1]

    ok = same_sim and same_truth and same_rerun and same_threads and same_verify and same_spill
    report("9", ok,
           "byte-identical artifacts: simulate rerun "
           f"{same_sim and same_truth}, irf rerun {same_rerun}, "
           f"irf --threads 1 vs 4 {same_threads}, verify rerun {same_verify}, "
           f"spillover rerun {same_spill}")
