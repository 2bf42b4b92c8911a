#!/usr/bin/env python3
"""Record perfbench/reference.json: the default-seed values every run checks.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known to be right; a later change
that moves any recorded value by more than 1e-10 then fails the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import chains
import run


def main():
    sys.path.insert(0, run.SRC)
    import causal_pvar.cli as cli

    reference = {}
    for workload in chains.WORKLOADS:
        run_dir = os.path.join(run.OUT_DIR, f"{workload}-{os.getpid()}-reference")
        out = os.path.join(run_dir, "pass0")
        try:
            chains.prepare(workload, run_dir)
            plan = chains.steps(workload, chains.DEFAULT_SEED, run_dir, out,
                                len(os.sched_getaffinity(0)))
            *_, codes, stdout = run.run_pass(cli, plan)
            if any(rc != 0 for rc in codes.values()):
                raise SystemExit(f"{workload}: a command failed: {codes}")
            reference[workload] = chains.extract(workload, out, stdout)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    with open(os.path.join(run.BENCH_DIR, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
