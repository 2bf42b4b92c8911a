import hashlib
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_pvar.cli import SCENARIO_FLAGS
from causal_pvar.diagnostics import policy_regime_probe
from causal_pvar.errors import BadConfig, NonFinite
from causal_pvar.scenarios import (
    GAUSSIAN_CONTINUOUS,
    HETEROGENEOUS_DUMMY,
    HOMOGENEOUS_DUMMY,
    NONNEGATIVE_CONTINUOUS,
    REGIMES,
    SCENARIOS,
    SPILLOVER_DUMMY,
    ImpactFunction,
    ScenarioConfig,
    _draw,
    linear_impact,
    quadratic_impact,
    ring_adjacency,
    simulate_scenario,
    simulate_var_panel,
    step_impact,
)
from causal_pvar.verify import CHECKS


def test_homogeneous_dummy_noiseless_effect_is_exact():
    cfg = ScenarioConfig(
        regime=HOMOGENEOUS_DUMMY, n_units=10, n_times=30, seed=1,
        impact=linear_impact(2.0), noise_scale=0.0,
    )
    _, pop = simulate_scenario(cfg)
    diff = pop.po_at(1.0) - pop.po_at(0.0)
    np.testing.assert_allclose(diff, 2.0)


def test_homogeneous_dummy_common_assignment():
    _, pop = simulate_scenario(
        ScenarioConfig(regime=HOMOGENEOUS_DUMMY, n_units=8, n_times=40, seed=2)
    )
    assert (pop.assignments == pop.assignments[0]).all()
    assert set(np.unique(pop.assignments)) <= {0.0, 1.0}


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100_000),
       regime=st.sampled_from([HOMOGENEOUS_DUMMY, GAUSSIAN_CONTINUOUS,
                               NONNEGATIVE_CONTINUOUS, HETEROGENEOUS_DUMMY,
                               SPILLOVER_DUMMY]))
def test_consistency_realized_equals_po_at_assignment(seed, regime):
    spillover = {"spillover_rho": 0.5} if regime == SPILLOVER_DUMMY else {}
    cfg = ScenarioConfig(regime=regime, n_units=12, n_times=25, seed=seed,
                         impact=quadratic_impact(1.0, 0.4), effect_sd=0.3, **spillover)
    panel, pop = simulate_scenario(cfg)
    w = pop.assignments
    if regime in (GAUSSIAN_CONTINUOUS, NONNEGATIVE_CONTINUOUS):
        # continuous doses: evaluate po cell by cell via interpolation
        got = np.empty_like(w)
        for lam in np.unique(w):
            mask = w == lam
            got[mask] = pop.po_at(float(lam))[mask]
    else:
        got = np.where(w == 1.0, pop.po_at(1.0), pop.po_at(0.0))
    np.testing.assert_allclose(pop.realized_outcomes, got, atol=1e-10)
    # the outcome innovation actually drives the panel: policy column too
    assert panel.values.shape == (12, 25, 2)


def test_sutva_regimes_po_independent_of_others():
    # Identical base draws, one cell's assignment flipped: other units'
    # potential-outcome grids are unchanged by construction in SUTVA
    # regimes (potential outcomes depend only on own base noise and the dose).
    cfg = ScenarioConfig(regime=HETEROGENEOUS_DUMMY, n_units=6, n_times=12, seed=9)
    _, pop = simulate_scenario(cfg)
    assert pop.exposure is None
    # po depends on lambda only through own impact: grid columns differ by
    # the deterministic impact difference for every cell
    diff = pop.po_at(1.0) - pop.po_at(0.0)
    assert np.allclose(diff, diff[:, :1])


def test_gaussian_policy_probe_normality():
    below = 0
    for r in range(20):
        cfg = ScenarioConfig(regime=GAUSSIAN_CONTINUOUS, n_units=20, n_times=50,
                             seed=r, policy_sigma=1.0)
        _, pop = simulate_scenario(cfg)
        below += policy_regime_probe(pop.assignments.ravel()).normality_stat < 9.21
    assert below >= 18


def test_heterogeneous_dummy_has_contemporaneous_controls():
    for seed in range(10):
        cfg = ScenarioConfig(regime=HETEROGENEOUS_DUMMY, n_units=10, n_times=20,
                             seed=seed, treat_prob=0.3)
        _, pop = simulate_scenario(cfg)
        w = pop.assignments
        treated_periods = w.any(axis=0)
        assert ((1.0 - w[:, treated_periods]).sum(axis=0) >= 1).all()
        # product structure
        outer = np.outer(pop.groups.treated_units, pop.groups.treated_times)
        np.testing.assert_array_equal(w, outer.astype(float))


def test_nonnegative_support_and_zero_mass():
    cfg = ScenarioConfig(regime=NONNEGATIVE_CONTINUOUS, n_units=30, n_times=60,
                         seed=4, zero_prob=0.5, support=(1.0, 2.0))
    _, pop = simulate_scenario(cfg)
    w = pop.assignments
    assert ((w == 0.0) | ((w >= 1.0) & (w <= 2.0))).all()
    assert 0.35 < (w == 0.0).mean() < 0.65


BAD_CONFIGS = [
    ("nope", "regime", "nope", "unknown regime 'nope'"),
    (GAUSSIAN_CONTINUOUS, "n_units", 1, "at least 2 units and 4 periods"),
    (GAUSSIAN_CONTINUOUS, "n_times", 3, "at least 2 units and 4 periods"),
    (GAUSSIAN_CONTINUOUS, "phi", np.eye(3) * 0.2, r"\(m = 2\)"),
    (GAUSSIAN_CONTINUOUS, "noise_scale", -1.0, "scales must be non-negative"),
    (GAUSSIAN_CONTINUOUS, "policy_sigma", 0.0, "policy_sigma must be positive"),
    (NONNEGATIVE_CONTINUOUS, "support", (0.0, 2.0), "0 < support low <= high"),
    (NONNEGATIVE_CONTINUOUS, "zero_prob", 1.0, r"zero_prob must be in \[0, 1\)"),
    (HOMOGENEOUS_DUMMY, "treat_prob", 0.0, r"^treat_prob must be in \(0, 1\)"),
    (HETEROGENEOUS_DUMMY, "treat_prob", 0.0, "treat_prob and time_frac"),
    (SPILLOVER_DUMMY, "treat_prob", 0.0, r"^treat_prob must be in \(0, 1\)"),
    (HETEROGENEOUS_DUMMY, "time_frac", 1.0, "treat_prob and time_frac"),
    (SPILLOVER_DUMMY, "ring_neighbors", 5, "neighbors_each_side < n/2"),
]


@pytest.mark.parametrize("regime, name, value, match", BAD_CONFIGS,
                         ids=[f"{regime}-{name}" for regime, name, *_ in BAD_CONFIGS])
def test_invalid_config_is_rejected(regime, name, value, match):
    cfg = replace(ScenarioConfig(regime=regime, n_units=10, n_times=10, seed=0), **{name: value})
    with pytest.raises(BadConfig, match=match):
        simulate_scenario(cfg)


@pytest.mark.parametrize("treat_prob, treated", [(1e-9, [0]), (1 - 1e-9, range(9))])
def test_common_dummy_keeps_both_arms(treat_prob, treated):
    # no period drawn treated: the first is; every period drawn: the last is not
    cfg = ScenarioConfig(regime=HOMOGENEOUS_DUMMY, n_units=4, n_times=10, seed=0,
                         treat_prob=treat_prob)
    _, pop = simulate_scenario(cfg)
    periods = np.zeros(10)
    periods[list(treated)] = 1.0
    np.testing.assert_array_equal(pop.assignments, np.tile(periods, (4, 1)))


def test_overflowing_var_panel_raises_non_finite_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match=r"\(unit=1, time=3, variable=1\)"):
            simulate_var_panel(np.diag([1e200, 1e200]), np.zeros((3, 2)), np.ones((3, 20, 2)))


def test_unknown_impact_kind_is_rejected_when_built():
    with pytest.raises(BadConfig, match="unknown impact kind 'cubic'"):
        ImpactFunction("cubic", (1.0,))


@pytest.mark.parametrize("kind, params, needed", [
    ("linear", (1.0, 2.0), 1), ("quadratic", (1.0,), 2), ("step", (), 2)])
def test_impact_param_count_is_checked_when_built(kind, params, needed):
    with pytest.raises(BadConfig, match=f"^impact kind '{kind}' takes {needed} param\\(s\\), "
                                        f"got {len(params)}$"):
        ImpactFunction(kind, params)


def test_spillover_exposure_truth():
    cfg = ScenarioConfig(regime=SPILLOVER_DUMMY, n_units=12, n_times=30, seed=6,
                         treat_prob=0.2, spillover_rho=0.5, ring_neighbors=1)
    _, pop = simulate_scenario(cfg)
    exp = pop.exposure
    assert exp is not None
    # exposure is the treated-neighbour share on the ring
    adj = ring_adjacency(12, 1)
    share = (adj @ pop.assignments) / adj.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(exp.s_values, share, atol=1e-12)
    # realized outcome = po(w, s) at realized w and s: po(0, 0) + own effect + rho s
    baseline = pop.po_at(0.0) - exp.rho * exp.s_values
    own = pop.impact_scale * (cfg.impact(1.0) - cfg.impact(0.0))
    got = baseline + pop.assignments * own + exp.rho * exp.s_values
    np.testing.assert_allclose(pop.realized_outcomes, got, atol=1e-12)
    # baseline removes the spillover entirely: it is the same draw at rho = 0
    _, pop0 = simulate_scenario(replace(cfg, spillover_rho=0.0))
    np.testing.assert_allclose(pop.po_at(0.0) - pop0.po_at(0.0), 0.5 * exp.s_values, atol=1e-12)
    np.testing.assert_allclose(baseline, pop0.po_at(0.0), atol=1e-12)


def test_mu_scale_zero_matches_shifted_panel():
    # Same seed, mu_scale on vs off: shocks identical, panels differ by a
    # per-unit constant only.
    base = ScenarioConfig(regime=GAUSSIAN_CONTINUOUS, n_units=6, n_times=20, seed=8,
                          mu_scale=0.0)
    withmu = ScenarioConfig(regime=GAUSSIAN_CONTINUOUS, n_units=6, n_times=20, seed=8,
                            mu_scale=3.0)
    p0, pop0 = simulate_scenario(base)
    p1, pop1 = simulate_scenario(withmu)
    np.testing.assert_allclose(pop0.assignments, pop1.assignments, atol=1e-12)
    shift = p1.values - p0.values
    assert np.abs(shift - shift[:, :1, :]).max() < 1e-9


# First 16 hex digits of the SHA-256 of each array's little-endian float64
# bytes: mu, burn, assignments, realized_outcomes of ``_draw`` at seed 0.
# They involve only the RNG and elementwise arithmetic, so they hold on any
# machine; a change moves the draw order or the streams of existing configs.
DRAW_DIGESTS = {
    HOMOGENEOUS_DUMMY: ("0109e58c26417499", "886f20cfc230639b", "2ae2c9397f1534e0",
                        "4de72d92695cc94b"),
    GAUSSIAN_CONTINUOUS: ("0109e58c26417499", "bd22e1c8ab27923a", "f958d169c651e2cd",
                          "aa5fa490464dcc23"),
    NONNEGATIVE_CONTINUOUS: ("0109e58c26417499", "9e31ef42fd288442", "739d7c8bfc663e0f",
                             "e50773d0de1f4e16"),
    HETEROGENEOUS_DUMMY: ("0109e58c26417499", "ef940342e2628d46", "b2bbf6dfd6c91c7e",
                          "def5269167a7cc36"),
    SPILLOVER_DUMMY: ("0109e58c26417499", "ed6f248833a856bc", "0f7d2cbb243fb9cd",
                      "b9752aa409ec12a0"),
}


def _pinned_config(name):
    return ScenarioConfig(regime=name, n_units=12, n_times=20, seed=0,
                          impact=quadratic_impact(1.0, 0.4), effect_sd=0.3, spillover_rho=0.5)


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("name", REGIMES)
def test_draw_stream_is_pinned(name):
    draw = _draw(_pinned_config(name))
    arrays = (draw.mu, draw.burn, draw.pop.assignments, draw.pop.realized_outcomes)
    assert tuple(_digest(a) for a in arrays) == DRAW_DIGESTS[name]


# Digests, as in DRAW_DIGESTS, of the treated units and periods of ``groups``
# (None where a regime has none) and of the realized outcomes at seeds 0 and 1
# of ``_derived_config``, recorded when the simulator stored both: deriving
# them from the assignment must not move a byte.
DERIVED_DIGESTS = {
    (HOMOGENEOUS_DUMMY, 0): (("cf966f1001f07510", "6bb6fd6bac75a3c9"), "bafe147969c9062f"),
    (HOMOGENEOUS_DUMMY, 1): (("cf966f1001f07510", "431a45c8e0fe412d"), "87a5bbafb569e218"),
    (GAUSSIAN_CONTINUOUS, 0): (None, "aa5fa490464dcc23"),
    (GAUSSIAN_CONTINUOUS, 1): (None, "d9af38f32fd4d219"),
    (NONNEGATIVE_CONTINUOUS, 0): (None, "e50773d0de1f4e16"),
    (NONNEGATIVE_CONTINUOUS, 1): (None, "c4e0a4efdb5c5a90"),
    (HETEROGENEOUS_DUMMY, 0): (("0137f4671bbc845e", "f86de4b5672a9112"), "afa027bef3f469f5"),
    (HETEROGENEOUS_DUMMY, 1): (("61de2fdace7de45c", "3752006198c8f192"), "c10392ffe2cfe8dd"),
    (SPILLOVER_DUMMY, 0): (None, "b9752aa409ec12a0"),
    (SPILLOVER_DUMMY, 1): (None, "b0119b3dfc1c1117"),
}


def _derived_config(regime, seed):
    extra = {"anticipation": 0.4, "spillover_rho": 0.5, "treat_on_gain": 0.5}
    return ScenarioConfig(regime=regime, n_units=12, n_times=20, seed=seed,
                          impact=quadratic_impact(1.0, 0.4), effect_sd=0.3,
                          **{k: v for k, v in extra.items() if k in SCENARIOS[regime].reads})


@pytest.mark.parametrize("regime, seed", list(DERIVED_DIGESTS))
def test_draw_gives_the_assignment_and_the_truth_derives_the_rest(regime, seed):
    cfg = _derived_config(regime, seed)
    rng = np.random.default_rng(seed)
    assert isinstance(SCENARIOS[regime].draw(rng, cfg, np.zeros(cfg.n_units)), np.ndarray)
    _, pop = simulate_scenario(cfg)
    groups = pop.groups
    got = (None if groups is None else (_digest(groups.treated_units), _digest(groups.treated_times)),
           _digest(pop.realized_outcomes))
    assert got == DERIVED_DIGESTS[regime, seed]


@pytest.mark.parametrize("regime, flag", [
    (GAUSSIAN_CONTINUOUS, "anticipation"),
    (NONNEGATIVE_CONTINUOUS, "anticipation"),
    (SPILLOVER_DUMMY, "anticipation"),
    (HOMOGENEOUS_DUMMY, "selection_strength"),
    (NONNEGATIVE_CONTINUOUS, "selection_strength"),
    (HETEROGENEOUS_DUMMY, "selection_strength"),
    (SPILLOVER_DUMMY, "selection_strength"),
])
def test_violation_flag_the_regime_ignores_is_rejected(regime, flag):
    cfg = ScenarioConfig(regime=regime, n_units=10, n_times=20, seed=0, **{flag: 0.7})
    with pytest.raises(BadConfig, match=flag):
        simulate_scenario(cfg)


@pytest.mark.parametrize("regime, name, value", [
    (GAUSSIAN_CONTINUOUS, "spillover_rho", 0.5),
    (HOMOGENEOUS_DUMMY, "ring_neighbors", 7),
    (HOMOGENEOUS_DUMMY, "policy_sigma", 3.0),
    (HOMOGENEOUS_DUMMY, "zero_prob", 0.9),
    (HOMOGENEOUS_DUMMY, "time_frac", 0.5),
    (SPILLOVER_DUMMY, "time_frac", 0.5),
    (GAUSSIAN_CONTINUOUS, "treat_prob", 0.5),
    (NONNEGATIVE_CONTINUOUS, "treat_on_gain", 0.4),
    (HETEROGENEOUS_DUMMY, "support", (0.5, 3.0)),
])
def test_field_the_regime_does_not_read_is_rejected(regime, name, value):
    cfg = ScenarioConfig(regime=regime, n_units=10, n_times=20, seed=0, **{name: value})
    with pytest.raises(BadConfig, match=f"regime '{regime}' does not take {name}"):
        simulate_scenario(cfg)


def test_every_scenario_option_is_set_by_a_flag_or_a_check():
    # A field no ``simulate`` flag and no check sets away from its default is
    # an option nothing outside the tests can use.
    used = {"regime", "n_units", "n_times", "seed"}
    used |= {name for name, _ in SCENARIO_FLAGS.values()}
    used |= {f.name for check in CHECKS.values() for f in fields(check.config)
             if not np.array_equal(getattr(check.config, f.name), f.default)}
    orphans = [f.name for f in fields(ScenarioConfig) if f.name not in used]
    assert orphans == []


def test_each_regime_takes_the_fields_it_reads():
    # Each field a regime reads, set away from its default, still simulates.
    values = {"treat_prob": 0.4, "time_frac": 0.5, "treat_on_gain": 0.3,
              "anticipation": 0.2, "policy_sigma": 2.0,
              "selection_strength": 0.3, "zero_prob": 0.2, "support": (0.5, 1.5),
              "spillover_rho": 0.4, "ring_neighbors": 3}
    for regime in REGIMES:
        for name in SCENARIOS[regime].reads:
            cfg = ScenarioConfig(regime=regime, n_units=10, n_times=20, seed=0,
                                 **{name: values[name]})
            simulate_scenario(cfg)


@pytest.mark.parametrize("regime, name, value", [
    (GAUSSIAN_CONTINUOUS, "phi", ((np.nan, 0.0), (0.0, 0.0))),
    (GAUSSIAN_CONTINUOUS, "impact", linear_impact(np.inf)),
    (GAUSSIAN_CONTINUOUS, "noise_scale", np.nan),
    (GAUSSIAN_CONTINUOUS, "mu_scale", np.inf),
    (GAUSSIAN_CONTINUOUS, "effect_sd", np.inf),
    (GAUSSIAN_CONTINUOUS, "policy_sigma", np.inf),
    (GAUSSIAN_CONTINUOUS, "selection_strength", np.nan),
    (HOMOGENEOUS_DUMMY, "anticipation", -np.inf),
    (SPILLOVER_DUMMY, "spillover_rho", np.nan),
    (NONNEGATIVE_CONTINUOUS, "support", (1.0, np.inf)),
])
def test_non_finite_parameter_is_rejected_by_name(regime, name, value):
    cfg = ScenarioConfig(regime=regime, n_units=10, n_times=20, seed=0, **{name: value})
    with pytest.raises(BadConfig, match=f"^{name} must be finite$"):
        simulate_scenario(cfg)


@pytest.mark.parametrize("impact", [linear_impact(1.7), quadratic_impact(1.0, 0.4),
                                    step_impact(1.5, 0.5)])
def test_impact_derivative_matches_central_differences(impact):
    # the grid stays 0.05 away from the step's threshold, where g is flat
    lam, h = np.linspace(-2.05, 1.95, 41), 1e-5
    central = (impact(lam + h) - impact(lam - h)) / (2 * h)
    np.testing.assert_allclose(impact.derivative(lam), central, rtol=0, atol=1e-8)
