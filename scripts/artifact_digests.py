#!/usr/bin/env python3
"""SHA-256 digests of every artifact the CLI writes on a fixed set of runs.

Usage:
    python scripts/artifact_digests.py [--seed 0] [--verify-reps 50] [--out DIR]

Runs ``causal_pvar.cli.main`` in-process: each of the five regimes
simulated at 40 units x 80 periods, then ``fit``, ``diagnose`` and ``irf``
at ``--lags`` 1 and 2 and ``lagselect`` on its panel; ``spillover`` on a
spillover panel whose policy column stays 0/1; ``verify --theorem all``;
and ``lagselect``, ``irf``, ``spillover`` and ``verify`` once more under
``--format json-lines`` (on the spillover panel, into ``json-lines/``).
Prints one ``sha256  path`` line per artifact, sorted by path relative to
``--out`` (an empty or new directory; by default a temporary one, removed
afterwards).  Two checkouts give the same lines exactly when
they write the same bytes, so ``diff`` of two runs' output is a byte gate.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from causal_pvar.cli import main as cli_main  # noqa: E402
from causal_pvar.scenarios import REGIMES  # noqa: E402

UNITS, TIMES = 40, 80
IRF_REPS = 200


def _plan(out: str, seed: int, verify_reps: int):
    """(argv, must exit 0) of every command, in run order."""
    s = str(seed)
    size = ("--units", str(UNITS), "--times", str(TIMES))
    for regime in REGIMES:
        home = os.path.join(out, regime)
        panel = os.path.join(home, "panel.csv")
        yield ["simulate", "--regime", regime, *size, "--seed", s, "--output", home], True
        yield ["lagselect", "--input", panel, "--output", home], True
        for lags in ("1", "2"):
            here = os.path.join(home, f"lags{lags}")
            common = ["--input", panel, "--lags", lags, "--output", here]
            yield ["fit", *common], True
            yield ["diagnose", *common], True
            yield ["irf", *common, "--reps", str(IRF_REPS), "--seed", s], True
    # A zero policy row in --phi and no unit means keep the policy column 0/1.
    home = os.path.join(out, "spillover")
    yield ["simulate", "--regime", "spillover_dummy", *size, "--treat-prob", "0.15",
           "--rho", "0.5", "--phi", "0.0,0.0;0.3,0.35", "--mu-scale", "0.0",
           "--seed", s, "--output", home], True
    panel = os.path.join(home, "panel.csv")
    edges = ("--adjacency", os.path.join(home, "edges.csv"))
    # verify exits 1 when a check fails, which few replications allow
    verify = ["verify", "--theorem", "all", "--reps", str(verify_reps), "--seed", s]
    yield ["spillover", "--input", panel, *edges, "--seed", s, "--output", home], True
    yield [*verify, "--output", os.path.join(out, "verify")], False
    # Each record-writing command once more, through the JSON-lines writer.
    jsonl = ("--format", "json-lines", "--output", os.path.join(out, "json-lines"))
    yield ["lagselect", "--input", panel, *jsonl], True
    yield ["irf", "--input", panel, "--reps", str(IRF_REPS), "--seed", s, *jsonl], True
    yield ["spillover", "--input", panel, *edges, "--seed", s, *jsonl], True
    yield [*verify, *jsonl], False


def _ring_edges(path: str) -> None:
    """The edge list of the simulator's default ring, two neighbours on each side."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(1, UNITS + 1):
            for off in (1, 2):
                fh.write(f"{i},{(i - 1 + off) % UNITS + 1}\n")


def digests(out: str, seed: int, verify_reps: int) -> list[str]:
    """Run the plan into ``out``; the sorted ``sha256  path`` lines of what it wrote."""
    _ring_edges(os.path.join(out, "spillover", "edges.csv"))
    for argv, strict in _plan(out, seed, verify_reps):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        if code not in ((0,) if strict else (0, 1)):
            raise SystemExit(f"{argv[0]} exited {code}")
    lines = []
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {os.path.relpath(path, out)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None, help="keep the artifacts in this directory")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--verify-reps", type=int, default=50)
    args = ap.parse_args()
    if args.out is not None:
        if os.path.isdir(args.out) and os.listdir(args.out):
            raise SystemExit(f"--out {args.out} is not empty; its files would be listed too")
        lines = digests(args.out, args.seed, args.verify_reps)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            lines = digests(tmp, args.seed, args.verify_reps)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
