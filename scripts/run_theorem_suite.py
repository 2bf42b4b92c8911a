#!/usr/bin/env python3
"""Run every estimand-recovery check and print one line per claim.

Usage:
    python scripts/run_theorem_suite.py [--reps 200] [--seed 0] [--out DIR]

Covers the regime map end to end: homogeneous dummy -> ATE (plus zero
selection bias), Gaussian dose -> density-weighted derivative / ACRT /
ACR, non-negative dose -> dose/extensive-margin mixture, heterogeneous
dummy -> four-mean contrast and ATT, and the interference pair (naive
coefficient vs ATTE - ASTE, exposure-adjusted coefficient vs ATTE).
Each check runs its default scenario from ``causal_pvar.verify.CHECKS``.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from causal_pvar.io import write_records  # noqa: E402
from causal_pvar.verify import verify_suite  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="optional directory for verify records")
    args = ap.parse_args()

    reports = []
    t0 = time.time()
    for rep in verify_suite(args.seed, args.reps):
        print(f"{rep.summary_line()}  [{time.time() - t0:.1f}s]")
        reports.append(rep)
        t0 = time.time()

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_records([r.record() for r in reports], os.path.join(args.out, "theorem_suite.csv"))
        print(f"records -> {os.path.join(args.out, 'theorem_suite.csv')}")
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
