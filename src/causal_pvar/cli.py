"""Command-line front end.

Subcommands cover the full pipeline: simulate a scenario, fit the panel
VAR, pick a lag order, run diagnostics, compute bootstrap impulse
responses, run the spillover regression, and drive the theorem
verifications.  All stochastic commands require a seed (flag or the
CAUSAL_PVAR_SEED environment variable) and write byte-identical artifacts
given the same seed.  --threads is accepted (it must be at least 1) but
changes nothing: every command runs on one thread.

Exit codes: 0 success, 1 expected errors (bad data, estimation failures),
2 invalid invocation.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import io as cpio
from .diagnostics import lag_criteria, policy_regime_probe, residual_autocorr, stationarity
from .errors import CausalPvarError
from .identify import bootstrap_irf
from .panel import PVARSpec, fit_pvar
from .scenarios import (
    BINARY_ANY_NEIGHBOR,
    REGIMES,
    TREATED_NEIGHBOR_SHARE,
    ScenarioConfig,
    linear_impact,
    quadratic_impact,
    simulate_scenario,
    step_impact,
)
from .spillover import estimate_adjusted_impact, oracle_atte_aste
from .estimands import oracle_estimands
from .verify import CHECKS, verify_suite

SEED_ENV = "CAUSAL_PVAR_SEED"


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"error: {SEED_ENV}={env!r} is not an integer seed", file=sys.stderr)
            raise SystemExit(2)
    print(f"error: this command is stochastic; pass --seed or set {SEED_ENV}", file=sys.stderr)
    raise SystemExit(2)


def _parse_phi(spec: str):
    """Rows separated by ';', entries by ',': e.g. '0.2,0;0.3,0.35'."""
    try:
        rows = [[float(v) for v in row.split(",")] for row in spec.split(";")]
        mat = np.asarray(rows, dtype=float)
        if mat.shape != (2, 2):
            raise ValueError
        return mat
    except ValueError:
        print(f"error: bad --phi {spec!r}; expected 'a,b;c,d'", file=sys.stderr)
        raise SystemExit(2)


def _parse_impact(spec: str):
    kind, _, rest = spec.partition(":")
    try:
        params = [float(tok) for tok in rest.split(",")] if rest else []
        if kind == "linear":
            return linear_impact(*params)
        if kind == "quadratic":
            return quadratic_impact(*params)
        if kind == "step":
            return step_impact(*params)
    except (TypeError, ValueError):
        pass
    print(f"error: bad --impact {spec!r}; use linear:b, quadratic:a,b or step:h,thr", file=sys.stderr)
    raise SystemExit(2)


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    cfg = ScenarioConfig(
        regime=args.regime,
        n_units=args.units,
        n_times=args.times,
        seed=seed,
        phi=_parse_phi(args.phi),
        impact=_parse_impact(args.impact),
        noise_scale=args.noise_scale,
        mu_scale=args.mu_scale,
        effect_sd=args.effect_sd,
        treat_prob=args.treat_prob,
        time_frac=args.time_frac,
        anticipation=args.anticipation,
        policy_sigma=args.policy_sigma,
        selection_strength=args.selection_strength,
        zero_prob=args.zero_prob,
        support=(args.support_low, args.support_high),
        spillover_rho=args.rho,
        ring_neighbors=args.ring_neighbors,
    )
    panel, pop = simulate_scenario(cfg)
    cpio.ensure_dir(args.output)
    cpio.write_panel_csv(panel, os.path.join(args.output, "panel.csv"))
    report = oracle_estimands(pop)
    truth = {
        "config": {
            "regime": cfg.regime, "n_units": cfg.n_units, "n_times": cfg.n_times,
            "seed": cfg.seed, "impact": f"{cfg.impact.kind}:{cfg.impact.params}",
            "noise_scale": cfg.noise_scale,
        },
        "estimands": {
            "ate": report.ate, "att": report.att,
            "selection_bias": report.selection_bias,
            "mc_se": report.mc_se,
        },
        "truth": pop.truth,
    }
    if pop.groups is not None:
        truth["groups"] = {
            "treated_units": np.nonzero(pop.groups.treated_units)[0] + 1,
            "treated_times": np.nonzero(pop.groups.treated_times)[0] + 1,
        }
    if pop.exposure is not None:
        atte, aste = oracle_atte_aste(pop)
        truth["estimands"]["atte"] = atte
        truth["estimands"]["aste"] = aste
    cpio.write_json(truth, os.path.join(args.output, "truth.json"))
    return 0


def _write_records(records, args, stem: str) -> None:
    """Write result records to ``<stem>.csv``, or ``<stem>.jsonl`` under --format json-lines."""
    name = stem + (".csv" if args.format == "csv" else ".jsonl")
    cpio.write_records(records, os.path.join(args.output, name), fmt=args.format)


def _load_panel(args):
    return cpio.load_panel_csv(args.input, n_policies=args.policies)


def cmd_fit(args) -> int:
    panel = _load_panel(args)
    fit = fit_pvar(panel, PVARSpec(args.lags))
    cpio.ensure_dir(args.output)
    cpio.write_json(
        {
            "lag_order": args.lags,
            "phi": [m for m in fit.phi],
            "mu": fit.mu,
            "sigma": fit.sigma,
            "effective_obs": fit.effective_obs,
            "variable_names": list(panel.variable_names),
        },
        os.path.join(args.output, "fit.json"),
    )
    cpio.write_grid(fit.residuals, os.path.join(args.output, "residuals.csv"), panel.variable_names,
                    panel.unit_labels, panel.time_labels[fit.spec.lag_order :])
    return 0


def cmd_lagselect(args) -> int:
    panel = _load_panel(args)
    table = lag_criteria(panel, args.pmax)
    cpio.ensure_dir(args.output)
    records = [
        {
            "p": int(p),
            "bic_like": table.bic_like[i],
            "aic_like": table.aic_like[i],
            "hq_like": table.hq_like[i],
        }
        for i, p in enumerate(table.lags)
    ]
    _write_records(records, args, "lagselect")
    print("chosen:", {k: int(v) for k, v in table.chosen.items()})
    return 0


def cmd_diagnose(args) -> int:
    panel = _load_panel(args)
    fit = fit_pvar(panel, PVARSpec(args.lags))
    auto = residual_autocorr(fit, args.smax)
    stat = stationarity(fit)
    probes = {}
    for k in range(panel.n_policies):
        probe = policy_regime_probe(fit.residuals[:, :, k].ravel())
        probes[panel.variable_names[k]] = {
            "is_binary": probe.is_binary,
            "share_zero": probe.share_zero,
            "skewness": probe.skewness,
            "excess_kurtosis": probe.excess_kurtosis,
            "normality_stat": probe.normality_stat,
        }
    cpio.ensure_dir(args.output)
    cpio.write_json(
        {
            "autocorr": auto.tensor,
            "autocorr_bound": auto.bound,
            "violated": auto.violated,
            "effective_obs": auto.effective_obs,
            "spectral_radius": stat.spectral_radius,
            "stationary": stat.stationary,
            "policy_probe": probes,
        },
        os.path.join(args.output, "diagnostics.json"),
    )
    return 0


def cmd_irf(args) -> int:
    seed = _resolve_seed(args)
    panel = _load_panel(args)
    if not 0 <= args.shock < panel.n_vars:
        print(f"error: --shock {args.shock} outside 0..{panel.n_vars - 1}", file=sys.stderr)
        return 2
    point, bands = bootstrap_irf(
        panel,
        PVARSpec(args.lags),
        k=args.shock,
        horizon=args.horizon,
        n_reps=args.reps,
        level=args.level,
        seed=seed,
    )
    records = []
    for v, name in enumerate(panel.variable_names):
        for h in range(args.horizon + 1):
            records.append(
                {
                    "variable": name,
                    "horizon": h,
                    "point": point[v, h],
                    "lower": bands.lower[v, h],
                    "upper": bands.upper[v, h],
                }
            )
    cpio.ensure_dir(args.output)
    _write_records(records, args, "irf")
    return 0


def cmd_spillover(args) -> int:
    seed = _resolve_seed(args)
    panel = _load_panel(args)
    if not 1 <= args.outcome < panel.n_vars:
        print(f"error: --outcome {args.outcome} outside 1..{panel.n_vars - 1}", file=sys.stderr)
        return 2
    treatment = panel.values[:, :, 0]
    if not np.isin(treatment, (0.0, 1.0)).all():
        print("error: spillover command expects a 0/1 policy column", file=sys.stderr)
        return 1
    adjacency = cpio.load_edge_list(args.adjacency, panel.unit_labels)
    reg = estimate_adjusted_impact(
        fit_pvar(panel, PVARSpec(args.lags)), adjacency, treatment,
        mode=args.mode, outcome=args.outcome, n_reps=args.reps, seed=seed,
    )
    cpio.ensure_dir(args.output)
    _write_records(
        [
            {"term": panel.variable_names[0], "estimate": reg.delta, "se": reg.se_delta},
            {"term": "spillover_exposure", "estimate": reg.rho, "se": reg.se_rho},
        ],
        args,
        "spillover",
    )
    return 0


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    cpio.ensure_dir(args.output)
    reports = []
    names = None if args.theorem == "all" else [args.theorem]
    for rep in verify_suite(seed, args.reps, names, rho=args.rho):
        print(rep.summary_line())
        reports.append(rep)
    _write_records([r.record() for r in reports], args, "verify")
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causal-pvar",
        description="Panel-VAR causal inference toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, stochastic=False):
        p.add_argument("--output", required=True, help="output directory")
        p.add_argument("--format", choices=["csv", "json-lines"], default="csv")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; every command runs on one thread")
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (falls back to ${SEED_ENV})" if stochastic else argparse.SUPPRESS)

    p = sub.add_parser("simulate", help="generate a scenario panel plus ground truth")
    p.add_argument("--regime", choices=REGIMES, required=True)
    p.add_argument("--units", type=int, default=100)
    p.add_argument("--times", type=int, default=120)
    p.add_argument("--impact", default="linear:1.0")
    p.add_argument("--phi", default="0.2,0.0;0.3,0.35",
                   help="slope matrix rows 'a,b;c,d'")
    p.add_argument("--noise-scale", type=float, default=1.0)
    p.add_argument("--mu-scale", type=float, default=1.0)
    p.add_argument("--effect-sd", type=float, default=0.0)
    p.add_argument("--treat-prob", type=float, default=0.3)
    p.add_argument("--time-frac", type=float, default=0.4)
    p.add_argument("--anticipation", type=float, default=0.0)
    p.add_argument("--policy-sigma", type=float, default=1.0)
    p.add_argument("--selection-strength", type=float, default=0.0)
    p.add_argument("--zero-prob", type=float, default=0.5)
    p.add_argument("--support-low", type=float, default=1.0)
    p.add_argument("--support-high", type=float, default=2.0)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--ring-neighbors", type=int, default=2)
    common(p, stochastic=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="within-OLS panel VAR fit")
    p.add_argument("--input", required=True)
    p.add_argument("--policies", type=int, default=None)
    p.add_argument("--lags", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("lagselect", help="information criteria over lag orders")
    p.add_argument("--input", required=True)
    p.add_argument("--policies", type=int, default=None)
    p.add_argument("--pmax", type=int, default=6)
    common(p)
    p.set_defaults(func=cmd_lagselect)

    p = sub.add_parser("diagnose", help="autocorrelation, stationarity, policy probe")
    p.add_argument("--input", required=True)
    p.add_argument("--policies", type=int, default=None)
    p.add_argument("--lags", type=int, default=1)
    p.add_argument("--smax", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("irf", help="impulse response with bootstrap bands")
    p.add_argument("--input", required=True)
    p.add_argument("--policies", type=int, default=None)
    p.add_argument("--lags", type=int, default=1)
    p.add_argument("--shock", type=int, default=0, help="0-based shocked variable index")
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--level", type=float, default=0.9)
    common(p, stochastic=True)
    p.set_defaults(func=cmd_irf)

    p = sub.add_parser("spillover", help="exposure-adjusted impact regression")
    p.add_argument("--input", required=True)
    p.add_argument("--policies", type=int, default=None)
    p.add_argument("--lags", type=int, default=1)
    p.add_argument("--adjacency", required=True, help="edge-list file unit_a,unit_b")
    p.add_argument("--mode", choices=[TREATED_NEIGHBOR_SHARE, BINARY_ANY_NEIGHBOR],
                   default=TREATED_NEIGHBOR_SHARE)
    p.add_argument("--outcome", type=int, default=1, help="0-based outcome variable index")
    p.add_argument("--reps", type=int, default=200)
    common(p, stochastic=True)
    p.set_defaults(func=cmd_spillover)

    p = sub.add_parser("verify", help="theorem-by-theorem Monte-Carlo checks")
    p.add_argument("--theorem", default="all", choices=[*CHECKS, "all"])
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--rho", type=float, default=0.5, help="spillover strength (interference)")
    common(p, stochastic=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print(f"error: --threads must be at least 1, got {args.threads}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except CausalPvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
