"""The batched Monte-Carlo verification engine against a per-replication reference.

``_reference_pairs`` is the one-replication-at-a-time pipeline: simulate
the scenario, fit it with ``fit_pvar``, factor with ``cholesky_lower``, read
the impact coefficient with ``impact_gamma``, and compute each check's
oracles on the replication's ground truth.  The engine must reproduce every
replication's estimates and oracles to 1e-12 for any chunking.
``_unit_major`` is the unit-major VAR loop the propagation kernel replaced.
"""

import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causal_pvar.cli as cli
import causal_pvar.verify as verify
from causal_pvar.errors import BadConfig, SingularDesign
from causal_pvar.estimands import did_four_means, dummy_gamma, oracle_estimands
from causal_pvar.identify import cholesky_lower, impact_gamma
from causal_pvar.panel import PVARSpec, _var_recursion, fit_pvar
from causal_pvar.scenarios import ring_adjacency, simulate_scenario, simulate_var_panel
from causal_pvar.spillover import build_exposure, estimate_adjusted_impact, oracle_atte_aste
from causal_pvar.weights import ZeroInflatedUniform, gaussian_weights, nonneg_weights, weighted_estimand

REPS = 5


def _oracle_pairs(name, config, pop, fit, gamma):
    """The (estimate, oracle) pairs of check ``name`` on one replication."""
    if name in ("T1", "T2", "T10"):
        report = oracle_estimands(pop)
        if name == "T1":
            return ((dummy_gamma(pop.assignments, pop.realized_outcomes),
                     report.ate + report.selection_bias),)
        if name == "T2":
            return (gamma, report.ate), (report.selection_bias, 0.0)
        return ((gamma, report.att),)
    if name == "T3":
        return ((gamma, verify._gaussian_quadrature_oracle(config.policy_sigma, config.impact)),)
    if name in ("T4", "T5"):
        sigma = config.policy_sigma
        grid = np.linspace(-5.0 * sigma, 5.0 * sigma, 201)
        mode = "acrt" if name == "T4" else "acr"
        return ((gamma, weighted_estimand(gaussian_weights(sigma, grid), pop, mode, grid)),)
    if name in ("T6", "T7"):
        law = ZeroInflatedUniform(config.zero_prob, *config.support)
        profile = (nonneg_weights(law=law) if name == "T6"
                   else nonneg_weights(sample=pop.assignments))
        grid = np.concatenate([[0.0], np.linspace(*config.support, 41)])
        return ((gamma, weighted_estimand(profile, pop, "acrt", grid)),)
    if name == "T9":
        groups = pop.groups
        return ((gamma, did_four_means(pop.realized_outcomes, groups.treated_units,
                                       groups.treated_times)),)
    # the exposure built afresh from the network, not read from the truth
    adjacency = ring_adjacency(config.n_units, config.ring_neighbors)
    adjusted = estimate_adjusted_impact(fit, build_exposure(adjacency, pop.assignments),
                                        pop.assignments)
    atte, aste = oracle_atte_aste(pop)
    return (adjusted.delta, atte), (gamma, atte - aste)


def _reference_pairs(name, config, reps):
    """(pairs, 2, reps) estimates and oracles, one replication at a time."""
    rows = []
    for seed in verify._rep_seeds(config.seed, reps):
        rep_config = config.with_seed(seed)
        panel, pop = simulate_scenario(rep_config)
        fit = fit_pvar(panel, PVARSpec(1))
        gamma = impact_gamma(cholesky_lower(fit.sigma), 0, 1)
        rows.append(_oracle_pairs(name, rep_config, pop, fit, gamma))
    return np.asarray(rows, dtype=float).transpose(1, 2, 0)


def _engine_chunks(name, config, reps, per_chunk):
    """What ``_chunk_pairs`` returns for each chunk of ``per_chunk`` replications."""
    budget = per_chunk * 16 * config.n_units * config.n_times
    real, chunks = verify._chunk_pairs, []

    def spy(*args):
        chunks.append(real(*args))
        return chunks[-1]

    with mock.patch.object(verify, "CHUNK_BYTES", budget), \
            mock.patch.object(verify, "_chunk_pairs", spy):
        verify.verify_theorem(name, config, reps)
    return chunks


def _engine_pairs(name, config, reps, per_chunk):
    """The engine's (pairs, 2, reps) estimates and oracles and its chunk sizes,
    read from what ``_chunk_pairs`` returns."""
    chunks = _engine_chunks(name, config, reps, per_chunk)
    rows = [rep[0] for chunk in chunks for rep in chunk]  # the one check's pairs
    return np.asarray(rows, dtype=float).transpose(1, 2, 0), [len(c) for c in chunks]


@pytest.mark.parametrize("name", list(verify.CHECKS))
def test_engine_matches_per_replication_reference(name):
    config = verify.CHECKS[name].config.with_seed(11)
    got, sizes = _engine_pairs(name, config, REPS, per_chunk=2)
    assert sizes == [2, 2, 1]  # several chunks and a partial last one
    want = _reference_pairs(name, config, REPS)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["T1", "T2", "T3", "T6", "interference"])
def test_engine_does_not_depend_on_chunk_size(name):
    config = verify.CHECKS[name].config.with_seed(3)
    one, sizes = _engine_pairs(name, config, REPS, per_chunk=1)
    assert sizes == [1] * REPS
    whole, sizes = _engine_pairs(name, config, REPS, per_chunk=REPS)
    assert sizes == [REPS]
    np.testing.assert_allclose(one, whole, rtol=0, atol=1e-12)


# T2's oracles are numpy scalars, which the engine hands back as floats
@pytest.mark.parametrize("name", ["T2", "T3", "interference"])
def test_check_run_reuses_one_working_set(name):
    config = verify.CHECKS[name].config.with_seed(2)
    with mock.patch.object(verify, "_propagate", wraps=verify._propagate) as propagate, \
            mock.patch.object(verify, "_within_moments", wraps=verify._within_moments) as moments:
        chunks = _engine_chunks(name, config, REPS, per_chunk=2)
    assert [len(chunk) for chunk in chunks] == [2, 2, 1]
    for kernel in (propagate, moments):
        outs = [call.kwargs.get("out") for call in kernel.call_args_list]
        assert len(outs) == len(chunks) and outs[0] is not None
        assert all(np.shares_memory(out, outs[0]) for out in outs)
    # nothing that aliases the working set outlives its chunk
    values = [v for chunk in chunks for rep in chunk for pairs in rep
              for pair in pairs for v in pair]
    assert values and all(type(v) is float for v in values)


def test_every_check_runs_through_verify_theorem_as_in_the_suite():
    suite = {rep.theorem: rep.record() for rep in verify.verify_suite(4, reps=3)}
    assert list(suite) == list(verify.CHECKS)
    assert suite["interference"]["theorem"] == "T11_T12_interference"
    for name in verify.CHECKS:
        config = verify.CHECKS[name].config.with_seed(4)
        assert verify.verify_theorem(name, config, reps=3).record() == suite[name]


def test_summary_line_adds_one_clause_per_further_pair(tmp_path, capsys):
    code = cli.main(["verify", "--theorem", "all", "--reps", "5", "--seed", "0",
                     "--output", str(tmp_path)])
    lines = dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines())
    assert code in (0, 1)
    assert list(lines) == list(verify.CHECKS)
    head = r" (PASS|FAIL)  \|mean gamma_hat - oracle\| = \S+ vs 3\*SE = \S+ \(5 reps\)"
    clause = r"; {} \|mean - oracle\| = \S+ vs 3\*SE = \S+"
    further = {"T2": clause.format("selection_bias"), "interference": clause.format("naive")}
    for name, line in lines.items():
        assert re.fullmatch(head + further.get(name, ""), line), line


def test_suite_resolves_names_in_any_case():
    upper = next(verify.verify_suite(0, 3, ["INTERFERENCE"]))
    lower = next(verify.verify_suite(0, 3, ["interference"]))
    assert upper.record() == lower.record()
    shared = [rep.record() for rep in verify.verify_suite(0, 3, ["t6", "t7"])]
    assert shared == [rep.record() for rep in verify.verify_suite(0, 3, ["T6", "T7"])]


def test_overflowing_replications_raise_singular_design_without_warnings(
        overflowing_interference):
    # an overflowing cross-product is a singular design, as in bootstrap_irf;
    # the error::RuntimeWarning filter turns any numpy warning into a failure
    with pytest.raises(SingularDesign, match="lag Gram matrix is singular"):
        list(verify.verify_suite(0, 3, ["interference"]))


# A worker's checks never reach a spy in this process, so these also assert
# that no worker is forked.
def test_suite_rejects_an_unknown_name_before_any_check_runs():
    with mock.patch.object(verify, "_chunk_pairs") as spy, \
            mock.patch("os.fork", wraps=os.fork) as fork, \
            pytest.raises(BadConfig, match="unknown theorem 'bogus'"):
        list(verify.verify_suite(0, 3, ["T6", "bogus"]))
    spy.assert_not_called()
    fork.assert_not_called()


def test_an_empty_selection_runs_no_check():
    with mock.patch.object(verify, "_chunk_pairs") as spy, \
            mock.patch("os.fork", wraps=os.fork) as fork:
        assert list(verify.verify_suite(0, 3, [])) == []
    spy.assert_not_called()
    fork.assert_not_called()


def _unit_major(phi, mu, innovations):
    """The VAR recursion one unit-major slice at a time, as it was before the kernel."""
    p, m = len(phi), phi[0].shape[0]
    n, t = innovations.shape[:2]
    const = mu @ (np.eye(m) - sum(phi)).T
    buf = np.empty((n, t + p, m))
    buf[:, :p, :] = mu[:, None, :]
    for s in range(t):
        x = const + innovations[:, s, :]
        for l in range(1, p + 1):
            x = x + buf[:, p + s - l, :] @ phi[l - 1].T
        buf[:, p + s, :] = x
    return buf[:, p:, :]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(1, 3), m=st.integers(2, 3),
       n=st.integers(1, 6), t=st.integers(1, 30))
def test_propagation_kernel_matches_unit_major_loop(seed, p, m, n, t):
    rng = np.random.default_rng(seed)
    phi = [rng.uniform(-0.6, 0.6, (m, m)) / p for _ in range(p)]
    mu = rng.standard_normal((n, m))
    innovations = rng.standard_normal((n, t, m))
    want = _unit_major(phi, mu, innovations)
    got = simulate_var_panel(np.stack(phi), mu, innovations).values
    if p == 1:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(1, 3), m=st.integers(2, 3),
       rows=st.integers(1, 700), t=st.integers(1, 30))
def test_var_recursion_matches_a_matmul_loop(seed, p, m, rows, t):
    rng = np.random.default_rng(seed)
    phi = [rng.uniform(-0.6, 0.6, (m, m)) / p for _ in range(p)]
    states = rng.standard_normal((p + t, rows, m))
    want = states.copy()
    for s in range(p, p + t):
        for l in range(1, p + 1):
            want[s] += want[s - l] @ phi[l - 1].T
    np.testing.assert_array_equal(_var_recursion(states, phi), want)


def test_propagation_kernel_covers_a_one_unit_panel():
    rng = np.random.default_rng(5)
    phi = [np.array([[0.4, 0.0], [0.3, 0.5]])]
    mu = rng.standard_normal((1, 2))
    innovations = rng.standard_normal((1, 80, 2))
    got = simulate_var_panel(phi[0], mu, innovations).values
    np.testing.assert_array_equal(got, _unit_major(phi, mu, innovations))
