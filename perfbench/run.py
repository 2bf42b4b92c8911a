#!/usr/bin/env python3
"""Benchmark of the causal-pvar CLI chain and Monte-Carlo verify suite.

    python3 perfbench/run.py --workload chain_small --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One run is one process.  It times the import of
``causal_pvar.cli`` plus input preparation (``setup_s``), then repeats the
workload's pass of ``causal-pvar`` commands, each through
``causal_pvar.cli.main(argv)``, for about ``--seconds``, and checks every
artifact.  ``--trace 0`` reports the end-to-end metrics as medians over
passes.  ``--trace 1`` alternates untraced and traced passes and reports
per-layer metrics from the traced ones.  The last line of stdout is the
JSON result; the line before it holds the environment and per-pass times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import chains
import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_CHILDREN = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# A fresh interpreter timing what every ``causal-pvar`` invocation pays.
_CHILD = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import causal_pvar.cli, chains\n"
    "chains.prepare(sys.argv[3], sys.argv[4])\n"
    "print(time.perf_counter() - t)\n"
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_FIELD_UNIT = {"s": "s", "self_s": "s", "calls": "count", "rows": "count",
               "draws": "count", "concurrency": "ratio"}


def _per_layer():
    """Per-layer metric -> unit, and span-derived metric -> (stats key, field)."""
    units, source = {}, {}

    def add(key, *fields, sfx=None):
        for field in fields:
            name = f"{key}.{field}" + (f".{sfx}" if sfx else "")
            units[name] = _FIELD_UNIT[field]
            source[name] = (f"{key}.{sfx}" if sfx else key, field)

    for cmd in ("simulate", "fit", "lagselect", "diagnose", "irf.t1", "irf.tmax",
                "spillover", "verify"):
        add(f"cli.{cmd}", "s", "self_s")
    add("io.load_panel_csv", "s", "calls", "rows")
    units["io.load_panel_csv.rows_per_s"] = "rows/s"
    add("panel.panel_from_records", "s")
    add("io.write_panel_csv", "s", "rows")
    add("io.write_records", "s", "rows")
    units["io.bytes_written"] = "B"
    add("scenarios.simulate_scenario", "s", "calls")
    add("scenarios.simulate_var_panel", "s")
    units["scenarios.po_bytes"] = "B"
    source["scenarios.po_bytes"] = ("scenarios.simulate_scenario", "po_bytes")
    add("panel.fit_pvar", "s", "self_s", "calls", "rows")
    for sfx in ("t1", "tmax"):
        add("identify.bootstrap_irf", "s", "self_s", "concurrency", sfx=sfx)
        add("identify.cholesky_lower", "s", "calls", sfx=sfx)
        add("identify.irf", "s", sfx=sfx)
    add("diagnostics.lag_criteria", "s", "self_s")
    add("diagnostics.residual_autocorr", "s")
    add("diagnostics.stationarity", "s")
    add("estimands.oracle_estimands", "s", "calls")
    for fn in ("estimands.did_four_means", "estimands.dummy_gamma", "weights.gaussian_weights",
               "weights.nonneg_weights", "weights.weighted_estimand"):
        add(fn, "s")
    add("spillover.spillover_regression", "s", "draws")
    add("spillover.build_exposure", "s")
    add("spillover.oracle_atte_aste", "s")
    add("spillover.verify_interference", "s", "self_s")
    for theorem in ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T9", "T10"):
        add(f"verify.verify_theorem.{theorem}", "s", "self_s")
    for layer in ("cli", *spans.TRACED):
        units[f"layer.{layer}.self_s"] = "s"
    units.update({
        "bench.self_s": "s",
        "irf_reps_per_s.t1": "reps/s", "irf_reps_per_s.tmax": "reps/s", "mc_reps_per_s": "reps/s",
        "op_fail_share": "ratio",
        "trace.wall_s": "s", "trace.overlap_s": "s", "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s", "trace.overhead_share": "ratio",
    })
    return units, source


PER_LAYER, _SPAN_SOURCE = _per_layer()


class Tally:
    """Operations attempted and failed: CLI commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name} {detail}".strip())

    def run(self, name, fn):
        try:
            ok, detail = bool(fn()), ""
        except Exception as exc:  # a malformed artifact fails its check
            ok, detail = False, repr(exc)
        self.check(name, ok, detail)


def environment():
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": None,
        "git_dirty": None,
    }
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return env
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
                   GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)

    def git(*cmd):
        return subprocess.run(["git", *cmd], cwd=ROOT, env=git_env, capture_output=True,
                              text=True, timeout=30)

    try:
        sha, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    except (OSError, subprocess.TimeoutExpired):
        return env
    if sha.returncode == 0:
        env["git_sha"] = sha.stdout.strip()
        env["git_dirty"] = bool(status.stdout.strip())
    return env


def _files(out):
    return sorted(os.path.join(d, f) for d, _, files in os.walk(out) for f in files)


def _digests(out):
    found = {}
    for path in _files(out):
        with open(path, "rb") as fh:
            found[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return found


def run_pass(cli, plan, tracer=None):
    """Run one pass's commands; return (start, end, seconds, exit codes, stdouts) per command."""
    uninstall = spans.install(tracer) if tracer else None
    seconds, codes, stdout = {}, {}, {}
    try:
        start = perf_counter()
        for label, argv in plan:
            buf = io.StringIO()
            span = tracer.open(f"cli.{label}") if tracer else None
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    codes[label] = cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crashing command is a failed operation
                codes[label] = repr(exc)
            seconds[label] = perf_counter() - t0
            if span is not None:
                tracer.close(span)
            stdout[label] = buf.getvalue()
        end = perf_counter()
    finally:
        if uninstall:
            uninstall()
    return start, end, seconds, codes, stdout


def layer_metrics(tracer, start, end, out):
    """Per-layer figures of one traced pass (all but the rates and trace.* totals)."""
    stats, bench_self = spans.summarize(tracer.spans, start, end)
    m = {}
    for name, (key, field) in _SPAN_SOURCE.items():
        entry = stats.get(key, {})
        if field == "concurrency":
            m[name] = entry["child_s"] / entry["s"] if entry else 0.0
        else:
            m[name] = entry.get(field, 0)
    load_s = m["io.load_panel_csv.s"]
    m["io.load_panel_csv.rows_per_s"] = m["io.load_panel_csv.rows"] / load_s if load_s else 0.0
    m["io.bytes_written"] = sum(os.path.getsize(p) for p in _files(out))
    for layer in ("cli", *spans.TRACED):
        m[f"layer.{layer}.self_s"] = sum(v["self_s"] for k, v in stats.items()
                                         if k.split(".", 1)[0] == layer)
    m["bench.self_s"] = bench_self
    # time children of one span spent running at once (pool threads of irf.tmax):
    # sum of layer.*.self_s + bench.self_s - trace.overlap_s == trace.wall_s
    m["trace.overlap_s"] = sum(v["child_s"] - (v["s"] - v["self_s"]) for v in stats.values())
    m["trace.wall_s"] = end - start
    return m


def run_workload(workload, seed, seconds, trace, reference=None):
    """Repeat the workload's pass for about ``seconds``; return the result object.

    ``reference`` replaces the recorded default-seed values (tests corrupt it).
    """
    import causal_pvar.cli as cli

    nproc = len(os.sched_getaffinity(0))
    run_dir = os.path.join(OUT_DIR, f"{workload}-{os.getpid()}")
    tally = Tally()
    passes = []
    first_digests = None
    try:
        t0 = perf_counter()
        chains.prepare(workload, run_dir)
        prep_s = perf_counter() - t0
        while True:
            k = len(passes)
            traced = trace and k % 2 == 1
            out = os.path.join(run_dir, f"pass{k}")
            tracer = spans.Tracer() if traced else None
            start, end, secs, codes, stdout = run_pass(
                cli, chains.steps(workload, seed, run_dir, out, nproc), tracer)
            # ru_maxrss never falls: read it before the checks allocate.  Only
            # pass 0's figure is reported, as a user runs each command once per process.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for label, rc in codes.items():
                ok = rc == 0 or (label == "verify" and rc == 1 and seed != chains.DEFAULT_SEED)
                tally.check(f"cli {label} exit code", ok, f"= {rc}")
            if workload == "verify_all":
                chains.check_verify(out, codes["verify"], tally)
            else:
                chains.check_chain(workload, out, stdout, tally)
            if k == 0 and seed == chains.DEFAULT_SEED:
                expected = reference if reference is not None else _load_reference()[workload]
                _check_reference(workload, out, stdout, expected, tally)
            digests = _digests(out)
            if first_digests is None:
                first_digests = digests
            else:
                tally.check("artifacts identical to pass 0", digests == first_digests)
            record = {"traced": traced, "wall_s": end - start, "cmd_s": secs, "rss_mb": rss_mb}
            if traced:
                record["layers"] = layer_metrics(tracer, start, end, out)
            passes.append(record)
            shutil.rmtree(out, ignore_errors=True)
            if len(passes) >= max(2, round(seconds / passes[0]["wall_s"])):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(OUT_DIR)  # only once no other run is using it
    result = _result(workload, trace, passes, tally)
    result["prep_s"] = prep_s
    return result


def _check_reference(workload, out, stdout, expected, tally):
    try:
        got = chains.extract(workload, out, stdout)
    except Exception as exc:  # unreadable artifacts fail every reference check
        got, detail = {}, repr(exc)
    else:
        detail = ""
    for part, want in expected.items():
        tally.check(f"reference {part}", chains.same(got.get(part), want), detail)


def _result(workload, trace, passes, tally):
    plain = [p for p in passes if not p["traced"]]
    if trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {name: statistics.median([p["layers"][name] for p in traced])
                   for name in traced[0]["layers"]}
        untraced = statistics.median([p["wall_s"] for p in plain])
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced
        for name, cmd, reps in (("irf_reps_per_s.t1", "irf.t1", chains.irf_reps(workload)),
                                ("irf_reps_per_s.tmax", "irf.tmax", chains.irf_reps(workload)),
                                ("mc_reps_per_s", "verify", chains.mc_reps(workload))):
            metrics[name] = (reps / statistics.median([p["cmd_s"][cmd] for p in plain])
                             if reps else 0.0)
        metrics["op_fail_share"] = len(tally.failures) / tally.attempted
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median([p["wall_s"] for p in plain]),
            "peak_rss_mb": passes[0]["rss_mb"],
        }
        units = {k: v for k, v in END_TO_END.items() if k in metrics}
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
        "failures": tally.failures,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_cmd_s": [p["cmd_s"] for p in passes],
    }


def _load_reference():
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _child_setup(workload):
    """Seconds a fresh interpreter takes to import causal_pvar.cli and prepare inputs."""
    run_dir = os.path.join(OUT_DIR, f"{workload}-{os.getpid()}-setup")
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, SRC, BENCH_DIR, workload, run_dir],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    t_start = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=chains.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=chains.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "causal_pvar", "cli.py")):
        print(f"error: no package source at {SRC}; run from a causal-pvar checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import causal_pvar.cli

    import_s = perf_counter() - t0
    if not os.path.abspath(causal_pvar.cli.__file__).startswith(SRC + os.sep):
        print(f"error: causal_pvar imported from {causal_pvar.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    setups = [] if args.trace else [_child_setup(args.workload) for _ in range(SETUP_CHILDREN)]
    env = environment()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if not args.trace:
        # the import can run only once per process, so the other samples come from children
        setups.append(import_s + result["prep_s"])
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for failure in result.pop("failures"):
        print(f"check failed: {failure}", file=sys.stderr)
    details = {k: result.pop(k) for k in ("pass_wall_s", "pass_cmd_s", "prep_s")}
    details["setup_samples_s"] = setups  # children first, this process last
    details["run_s"] = perf_counter() - t_start
    print(json.dumps({"environment": env, "run": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
