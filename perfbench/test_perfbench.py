"""Tests of the benchmark itself, at a short run length.

    python3 -m pytest perfbench -q

About three minutes on two cores: every workload runs once untraced and
once traced.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

import chains
import run
import spans

sys.path.insert(0, run.SRC)


def _declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_declares_what_run_reports():
    bench = _declared()
    assert [w["name"] for w in bench["workloads"]] == list(chains.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", chains.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(chains.DEFAULT_SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["failed"]) == (True, 0), proc.stderr
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_reference_value_is_a_failed_operation():
    reference = copy.deepcopy(run._load_reference()["verify_all"])
    reference["verify"]["estimate_mean"][3] += 1e-6
    result = run.run_workload("verify_all", chains.DEFAULT_SEED, 0, True, reference=reference)
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["op_fail_share"]["value"] == 1 / result["attempted"]


def test_traced_pass_counts_fits_and_accounts_for_wall_time(tmp_path):
    import causal_pvar.cli as cli

    chains.prepare("chain_small", str(tmp_path))
    plan = chains.steps("chain_small", chains.DEFAULT_SEED, str(tmp_path),
                        str(tmp_path / "out"), 2)
    tracer = spans.Tracer()
    start, end, _, codes, _ = run.run_pass(cli, plan, tracer)
    assert set(codes.values()) == {0}
    m = run.layer_metrics(tracer, start, end, str(tmp_path / "out"))
    layers = sum(v for k, v in m.items() if k.startswith("layer."))
    assert layers + m["bench.self_s"] - m["trace.overlap_s"] == pytest.approx(m["trace.wall_s"])

    def root(sp):
        while sp.parent is not None:
            sp = sp.parent
        return sp.name

    fits, reps = {}, {}
    for sp in tracer.spans:
        if sp.name == "panel.fit_pvar":
            fits[root(sp)] = fits.get(root(sp), 0) + 1
        if sp.name == "identify.irf" and sp.parent.name == "identify.bootstrap_irf":
            reps[root(sp)] = reps.get(root(sp), 0) + 1
    b = chains.CHAINS["chain_small"]["irf_reps"]
    # each bootstrap runs one point irf plus one per successful replication
    assert reps == {"cli.irf.t1": b + 1, "cli.irf.tmax": b + 1}
    assert fits == {"cli.fit": 1, "cli.lagselect": chains.PMAX, "cli.diagnose": 1,
                    "cli.irf.t1": b + 1, "cli.irf.tmax": b + 1, "cli.spillover": 1}


def test_self_time_subtracts_the_union_of_overlapping_children():
    def span(name, start, end, parent=None):
        sp = spans.Span(name, parent)
        sp.start, sp.end = start, end
        return sp

    boot = span("identify.bootstrap_irf", 1.0, 5.0)
    cmd = span("cli.irf.tmax", 0.0, 6.0)
    boot.parent = cmd
    kids = [span("panel.fit_pvar", 1.0, 3.0, boot), span("panel.fit_pvar", 2.0, 4.0, boot)]
    stats, bench_self = spans.summarize([cmd, boot, *kids], -1.0, 7.0)
    assert stats["identify.bootstrap_irf.tmax"]["self_s"] == pytest.approx(1.0)
    assert stats["identify.bootstrap_irf.tmax"]["child_s"] == pytest.approx(4.0)
    assert stats["cli.irf.tmax"]["self_s"] == pytest.approx(2.0)
    assert stats["panel.fit_pvar"]["calls"] == 2
    assert bench_self == pytest.approx(2.0)
