"""Command-line front end.

Subcommands cover the full pipeline: simulate a scenario, fit the panel
VAR, pick a lag order, run diagnostics, compute bootstrap impulse
responses, run the spillover regression, and drive the theorem
verifications.  All stochastic commands require a non-negative seed (flag
or the CAUSAL_PVAR_SEED environment variable) and write byte-identical
artifacts given the same seed; only they take --seed, and only the
commands that write result records take --format.  Only ``irf`` takes
--threads, which must be at least 1 but changes nothing: the bootstrap
runs on one thread.

Defaults live in the library: a ``simulate`` scenario flag left out takes
the ``ScenarioConfig`` default of the field it sets (``SCENARIO_FLAGS``),
and ``verify --rho`` defaults to the interference check's own scenario.
JSON artifacts write non-finite numbers as ``null``.

Exit codes: 0 success, 1 expected errors (bad data, estimation failures),
2 invalid invocation.  Every error is one ``error:`` line on stderr;
``main`` is the one place that prints it and picks the code.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace

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
    taken_fields,
)
from .spillover import estimate_adjusted_impact, oracle_atte_aste
from .estimands import oracle_estimands
from .verify import CHECKS, verify_suite

SEED_ENV = "CAUSAL_PVAR_SEED"


class InvalidInvocation(Exception):
    """A bad command line: ``main`` prints it as one ``error:`` line and exits 2."""


class _Parser(argparse.ArgumentParser):
    """Raises argparse's own errors as InvalidInvocation instead of printing usage."""

    def error(self, message):
        raise InvalidInvocation(message)


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        env = os.environ.get(SEED_ENV)
        if env is None:
            raise InvalidInvocation(f"this command is stochastic; pass --seed or set {SEED_ENV}")
        try:
            seed = int(env)
        except ValueError:
            raise InvalidInvocation(f"{SEED_ENV}={env!r} is not an integer seed") from None
    if seed < 0:
        raise InvalidInvocation(f"seed must be non-negative, got {seed}")
    return seed


def _parse_phi(spec: str):
    """Rows separated by ';', entries by ',': e.g. '0.2,0;0.3,0.35'."""
    try:
        mat = np.asarray([[float(v) for v in row.split(",")] for row in spec.split(";")])
        if mat.shape == (2, 2):
            return mat
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 'a,b;c,d', got {spec!r}")


def _parse_impact(spec: str):
    kind, _, rest = spec.partition(":")
    make = {"linear": linear_impact, "quadratic": quadratic_impact, "step": step_impact}.get(kind)
    try:
        params = [float(tok) for tok in rest.split(",")] if rest else []
        if make is not None:
            return make(*params)
    except (TypeError, ValueError):
        pass
    raise argparse.ArgumentTypeError(
        f"expected linear:b, quadratic:a,b or step:h,thr, got {spec!r}")


# simulate's scenario flags: flag -> (ScenarioConfig field it sets, value
# type).  Only the flags given reach the config, so every default is
# ScenarioConfig's own; --support-low and --support-high set the two ends
# of ``support``.
SCENARIO_FLAGS = {
    "--impact": ("impact", _parse_impact),
    "--phi": ("phi", _parse_phi),
    "--noise-scale": ("noise_scale", float),
    "--mu-scale": ("mu_scale", float),
    "--effect-sd": ("effect_sd", float),
    "--treat-prob": ("treat_prob", float),
    "--time-frac": ("time_frac", float),
    "--anticipation": ("anticipation", float),
    "--policy-sigma": ("policy_sigma", float),
    "--selection-strength": ("selection_strength", float),
    "--zero-prob": ("zero_prob", float),
    "--support-low": ("support", float),
    "--support-high": ("support", float),
    "--rho": ("spillover_rho", float),
    "--ring-neighbors": ("ring_neighbors", int),
}


def _scenario(args) -> ScenarioConfig:
    """The ScenarioConfig of a ``simulate`` invocation: defaults plus the flags given."""
    cfg = ScenarioConfig(args.regime, args.units, args.times, args.seed)
    given = {}
    for flag, (name, _) in SCENARIO_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        if name == "support":
            ends = list(given.get(name, cfg.support))
            ends[flag == "--support-high"] = value
            value = tuple(ends)
        given[name] = value
    return replace(cfg, **given)


def cmd_simulate(args) -> int:
    cfg = _scenario(args)
    panel, pop = simulate_scenario(cfg)
    cpio.ensure_dir(args.output)
    cpio.write_panel_csv(panel, os.path.join(args.output, "panel.csv"))
    report = oracle_estimands(pop)
    config = taken_fields(cfg)
    config["impact"] = f"{cfg.impact.kind}:{','.join(map(repr, cfg.impact.params))}"
    truth = {
        "config": config,
        "estimands": {
            "ate": report.ate, "att": report.att,
            "selection_bias": report.selection_bias,
            "mc_se": report.mc_se,
        },
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
    records = [{"p": int(p), "bic_like": table.bic_like[i], "aic_like": table.aic_like[i],
                "hq_like": table.hq_like[i]} for i, p in enumerate(table.lags)]
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
        probes[panel.variable_names[k]] = asdict(probe)
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
    if args.threads < 1:
        raise InvalidInvocation(f"--threads must be at least 1, got {args.threads}")
    panel = _load_panel(args)
    if not 0 <= args.shock < panel.n_vars:
        raise InvalidInvocation(f"--shock {args.shock} outside 0..{panel.n_vars - 1}")
    point, bands = bootstrap_irf(panel, PVARSpec(args.lags), k=args.shock, horizon=args.horizon,
                                 n_reps=args.reps, level=args.level, seed=args.seed)
    records = [{"variable": name, "horizon": h, "point": point[v, h],
                "lower": bands.lower[v, h], "upper": bands.upper[v, h]}
               for v, name in enumerate(panel.variable_names) for h in range(args.horizon + 1)]
    cpio.ensure_dir(args.output)
    _write_records(records, args, "irf")
    return 0


def cmd_spillover(args) -> int:
    panel = _load_panel(args)
    if not 1 <= args.outcome < panel.n_vars:
        raise InvalidInvocation(f"--outcome {args.outcome} outside 1..{panel.n_vars - 1}")
    adjacency = cpio.load_edge_list(args.adjacency, panel.unit_labels)
    reg = estimate_adjusted_impact(
        fit_pvar(panel, PVARSpec(args.lags)), adjacency, panel.values[:, :, 0],
        mode=args.mode, outcome=args.outcome, n_reps=args.reps, seed=args.seed,
    )
    cpio.ensure_dir(args.output)
    records = [{"term": panel.variable_names[0], "estimate": reg.delta, "se": reg.se_delta},
               {"term": "spillover_exposure", "estimate": reg.rho, "se": reg.se_rho}]
    _write_records(records, args, "spillover")
    return 0


def cmd_verify(args) -> int:
    if args.rho is not None and args.theorem not in ("all", "interference"):
        raise InvalidInvocation(f"--rho applies to the interference check, "
                                f"which --theorem {args.theorem} does not run")
    cpio.ensure_dir(args.output)
    reports = []
    names = None if args.theorem == "all" else [args.theorem]
    for rep in verify_suite(args.seed, args.reps, names, rho=args.rho):
        print(rep.summary_line())
        reports.append(rep)
    _write_records([r.record() for r in reports], args, "verify")
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="causal-pvar", description="Panel-VAR causal inference toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, stochastic=False, records=False):
        """A command writing into --output; a stochastic one takes --seed, and
        one that writes result records takes --format."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, stochastic=stochastic)
        p.add_argument("--output", required=True, help="output directory")
        if stochastic:
            p.add_argument("--seed", type=int, help=f"RNG seed (falls back to ${SEED_ENV})")
        if records:
            p.add_argument("--format", choices=["csv", "json-lines"], default="csv")
        return p

    def panel_command(name, func, help, lags=True, **kinds):
        """A command that reads a panel CSV (and fits it at --lags, if it has them)."""
        p = command(name, func, help, **kinds)
        p.add_argument("--input", required=True)
        p.add_argument("--policies", type=int, default=None)
        if lags:
            p.add_argument("--lags", type=int, default=1)
        return p

    p = command("simulate", cmd_simulate, "generate a scenario panel plus ground truth",
                stochastic=True)
    p.add_argument("--regime", choices=REGIMES, required=True)
    p.add_argument("--units", type=int, default=100)
    p.add_argument("--times", type=int, default=120)
    for flag, (name, kind) in SCENARIO_FLAGS.items():
        p.add_argument(flag, type=kind, help=f"sets ScenarioConfig.{name} (omitted: the field's default)")

    panel_command("fit", cmd_fit, "within-OLS panel VAR fit")

    p = panel_command("lagselect", cmd_lagselect, "information criteria over lag orders",
                      lags=False, records=True)
    p.add_argument("--pmax", type=int, default=6)

    p = panel_command("diagnose", cmd_diagnose, "autocorrelation, stationarity, policy probe")
    p.add_argument("--smax", type=int, default=2)

    p = panel_command("irf", cmd_irf, "impulse response with bootstrap bands", stochastic=True,
                      records=True)
    p.add_argument("--shock", type=int, default=0, help="0-based shocked variable index")
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--level", type=float, default=0.9)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; the bootstrap runs on one thread")

    p = panel_command("spillover", cmd_spillover, "exposure-adjusted impact regression",
                      stochastic=True, records=True)
    p.add_argument("--adjacency", required=True, help="edge-list file unit_a,unit_b")
    p.add_argument("--mode", choices=[TREATED_NEIGHBOR_SHARE, BINARY_ANY_NEIGHBOR],
                   default=TREATED_NEIGHBOR_SHARE)
    p.add_argument("--outcome", type=int, default=1, help="0-based outcome variable index")
    p.add_argument("--reps", type=int, default=200)

    p = command("verify", cmd_verify, "theorem-by-theorem Monte-Carlo checks", stochastic=True,
                records=True)
    p.add_argument("--theorem", default="all", choices=[*CHECKS, "all"])
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--rho", type=float,
                   help="spillover strength of the interference check (default: its scenario's)")
    return parser


def main(argv=None) -> int:
    """Run one command; the single exit for every error it meets."""
    try:
        args = build_parser().parse_args(argv)
        if args.stochastic:
            args.seed = _resolve_seed(args.seed)
        return args.func(args)
    except InvalidInvocation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CausalPvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
