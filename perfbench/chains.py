"""Workloads: the ``causal-pvar`` argv lists one pass runs, and the checks on what they write.

Each pass drives ``causal_pvar.cli.main`` in-process with the argv a user
would pass to ``causal-pvar``.  Artifacts are read back here with plain
Python, independently of the package's own readers.
"""

from __future__ import annotations

import json
import math
import os

DEFAULT_SEED = 0
WORKLOADS = ("chain_small", "chain_large", "verify_all")

# Both chains run simulate -> fit -> lagselect -> diagnose -> irf (1 thread,
# then nproc threads) [-> spillover].  chain_small is tiny arrays, so per-
# replication Python overhead dominates and threads contend for the GIL; its
# B=500 keeps a pass near 6 s, so a 25 s run takes a median over several.
# chain_large is a 500x150 panel whose bootstrap makes full passes over large
# arrays, so threads help, and whose CSVs are 75k rows; B=100 is
# bootstrap_irf's minimum.  T=150, not 400, keeps a pass near 8 s, so a run
# takes a median over several and compares later passes' bytes with pass 0.
CHAINS = {
    "chain_small": {
        "simulate": ("--regime", "spillover_dummy", "--units", "60", "--times", "150",
                     "--treat-prob", "0.15", "--rho", "0.5",
                     "--phi", "0.0,0.0;0.3,0.35", "--mu-scale", "0.0"),
        "units": 60, "times": 150, "ring_neighbors": 2,
        "irf_reps": 500, "spillover_reps": 1000,
    },
    "chain_large": {
        "simulate": ("--regime", "gaussian_continuous", "--units", "500", "--times", "150"),
        "units": 500, "times": 150, "ring_neighbors": None,
        "irf_reps": 100, "spillover_reps": None,
    },
}
HORIZON, PMAX, SMAX = 10, 6, 3
VERIFY_REPS = 50
VERIFY_ROWS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T9", "T10", "T11_T12_interference")
TOL = 1e-10


def irf_reps(workload):
    return CHAINS[workload]["irf_reps"] if workload in CHAINS else 0


def mc_reps(workload):
    return VERIFY_REPS * len(VERIFY_ROWS) if workload == "verify_all" else 0


def prepare(workload, run_dir):
    """Create the run directory and the inputs the chain reads besides its own outputs."""
    os.makedirs(run_dir, exist_ok=True)
    spec = CHAINS.get(workload)
    if spec and spec["ring_neighbors"]:
        from causal_pvar.scenarios import ring_adjacency

        adj = ring_adjacency(spec["units"], spec["ring_neighbors"])
        with open(os.path.join(run_dir, "edges.csv"), "w", encoding="utf-8") as fh:
            for a in range(spec["units"]):
                for b in range(a + 1, spec["units"]):
                    if adj[a, b]:
                        fh.write(f"{a + 1},{b + 1}\n")


def steps(workload, seed, run_dir, out, nproc):
    """(label, argv) for each command of one pass writing into ``out``."""
    s = str(seed)
    if workload == "verify_all":
        return [("verify", ["verify", "--theorem", "all", "--reps", str(VERIFY_REPS),
                            "--seed", s, "--output", out])]
    spec = CHAINS[workload]
    panel = os.path.join(out, "panel.csv")
    irf = ["irf", "--input", panel, "--horizon", str(HORIZON),
           "--reps", str(spec["irf_reps"]), "--seed", s]
    plan = [
        ("simulate", ["simulate", *spec["simulate"], "--seed", s, "--output", out]),
        ("fit", ["fit", "--input", panel, "--output", out]),
        ("lagselect", ["lagselect", "--input", panel, "--pmax", str(PMAX), "--output", out]),
        ("diagnose", ["diagnose", "--input", panel, "--smax", str(SMAX), "--output", out]),
        ("irf.t1", irf + ["--threads", "1", "--output", os.path.join(out, "irf_t1")]),
        ("irf.tmax", irf + ["--threads", str(nproc), "--output", os.path.join(out, "irf_tmax")]),
    ]
    if spec["spillover_reps"]:
        plan.append(("spillover", ["spillover", "--input", panel,
                                   "--adjacency", os.path.join(run_dir, "edges.csv"),
                                   "--reps", str(spec["spillover_reps"]), "--seed", s,
                                   "--output", out]))
    return plan


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def _column(path, name, cast=float):
    header, rows = _read_csv(path)
    i = header.index(name)
    return [cast(r[i]) for r in rows]


def _finite(values):
    return all(math.isfinite(v) for v in values)


def _panel_summary(path, n_sample=64):
    header, rows = _read_csv(path)
    values = [float(v) for r in rows for v in r[2:]]
    stride = max(1, len(values) // n_sample)
    return {
        "shape": [len(rows), len(header)],
        "sum": math.fsum(values),
        "sumsq": math.fsum(v * v for v in values),
        "sample": values[::stride][:n_sample],
    }


def extract(workload, out, stdout):
    """Values compared against the reference recorded for the default seed."""
    if workload == "verify_all":
        path = os.path.join(out, "verify.csv")
        return {"verify": {
            "theorem": _column(path, "theorem", str),
            "estimate_mean": _column(path, "estimate_mean"),
            "oracle_mean": _column(path, "oracle_mean"),
            "passed": _column(path, "passed", str),
        }}
    irf_csv = os.path.join(out, "irf_t1", "irf.csv")
    lag_csv = os.path.join(out, "lagselect.csv")
    values = {
        "panel": _panel_summary(os.path.join(out, "panel.csv")),
        "irf": {k: _column(irf_csv, k) for k in ("point", "lower", "upper")},
        "lagselect": {k: _column(lag_csv, k) for k in ("bic_like", "aic_like", "hq_like")},
    }
    values["lagselect"]["chosen"] = _chosen(stdout["lagselect"])
    if CHAINS[workload]["spillover_reps"]:
        sp_csv = os.path.join(out, "spillover.csv")
        values["spillover"] = {k: _column(sp_csv, k) for k in ("estimate", "se")}
    return values


def _chosen(text):
    line = next(ln for ln in text.splitlines() if ln.startswith("chosen:"))
    return json.loads(line.split(":", 1)[1].strip().replace("'", '"'))


def same(a, b):
    """Equal structure; numbers within the 1e-10 refactor tolerance."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and not isinstance(a, bool):
        return abs(a - b) <= TOL * max(1.0, abs(b))
    return a == b


def check_chain(workload, out, stdout, tally):
    """Self-consistency checks that hold for any seed."""
    spec = CHAINS[workload]
    n, t, m = spec["units"], spec["times"], 2

    def panel_ok():
        header, rows = _read_csv(os.path.join(out, "panel.csv"))
        cells = {(int(r[0]), int(r[1])) for r in rows}
        values = [float(v) for r in rows for v in r[2:]]
        ok = len(header) == 2 + m and len(rows) == n * t and len(cells) == n * t and _finite(values)
        if spec["spillover_reps"]:
            ok = ok and all(r[2] in ("0", "1") for r in rows)
        return ok

    def fit_ok():
        with open(os.path.join(out, "fit.json"), encoding="utf-8") as fh:
            fit = json.load(fh)
        _, rows = _read_csv(os.path.join(out, "residuals.csv"))
        return len(fit["phi"]) == 1 and len(rows) == n * (t - fit["lag_order"])

    def lagselect_ok():
        path = os.path.join(out, "lagselect.csv")
        chosen = _chosen(stdout["lagselect"])
        lags = _column(path, "p", int)
        return lags == list(range(1, PMAX + 1)) and all(
            chosen[c] == lags[min(range(PMAX), key=_column(path, c).__getitem__)]
            for c in ("bic_like", "aic_like", "hq_like"))

    def diagnose_ok():
        with open(os.path.join(out, "diagnostics.json"), encoding="utf-8") as fh:
            diag = json.load(fh)
        r = diag["spectral_radius"]
        return math.isfinite(r) and diag["stationary"] == (r < 1.0) and len(diag["autocorr"]) == m

    def irf_ok():
        path = os.path.join(out, "irf_t1", "irf.csv")
        point, lower, upper = (_column(path, k) for k in ("point", "lower", "upper"))
        horizon = _column(path, "horizon", int)
        return (len(point) == m * (HORIZON + 1) and _finite(point + lower + upper)
                and all(lo <= hi for lo, hi in zip(lower, upper))
                and point[0] == 1.0 and horizon[0] == 0)

    def threads_identical():
        with open(os.path.join(out, "irf_t1", "irf.csv"), "rb") as a, \
                open(os.path.join(out, "irf_tmax", "irf.csv"), "rb") as b:
            return a.read() == b.read()

    def spillover_ok():
        path = os.path.join(out, "spillover.csv")
        est, se = _column(path, "estimate"), _column(path, "se")
        return len(est) == 2 and _finite(est + se) and all(v > 0 for v in se)

    checks = [("panel.csv", panel_ok), ("fit.json+residuals.csv", fit_ok),
              ("lagselect chosen = argmin", lagselect_ok), ("diagnostics.json", diagnose_ok),
              ("irf.csv", irf_ok), ("irf.csv --threads 1 == --threads nproc", threads_identical)]
    if spec["spillover_reps"]:
        checks.append(("spillover.csv", spillover_ok))
    for name, fn in checks:
        tally.run(name, fn)


def check_verify(out, rc, tally):
    """Self-consistency of verify.csv for any seed.

    T1 is an exact identity and passes at every seed.  Each other row is a
    3-SE Monte-Carlo test that a correct program misses with probability
    well under 1%, so away from the default seed one miss is tolerated and
    the exit code must agree with the ``passed`` column.
    """
    path = os.path.join(out, "verify.csv")

    def table_ok():
        theorems = _column(path, "theorem", str)
        means = _column(path, "estimate_mean") + _column(path, "oracle_mean")
        return (tuple(theorems) == VERIFY_ROWS and _finite(means)
                and set(_column(path, "n_reps", int)) == {VERIFY_REPS})

    def verdicts_ok():
        passed = dict(zip(_column(path, "theorem", str), _column(path, "passed", str)))
        misses = sum(v != "true" for v in passed.values())
        return passed["T1"] == "true" and misses <= 1 and (rc == 0) == (misses == 0)

    tally.run("verify.csv", table_ok)
    tally.run("verify passed flags", verdicts_ok)
