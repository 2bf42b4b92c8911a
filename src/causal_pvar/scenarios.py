"""Scenario simulators with fully observed potential outcomes.

Each regime is one entry of ``SCENARIOS``: its assignment law (common
dummy, Gaussian, zero-inflated non-negative, unit-by-time dummy, sparse
dummy with network spillovers), its default dose grid and the
regime-specific config fields it reads; ``taken_fields`` is the one rule
for which fields a regime takes.  The outcome innovation is a structural
impact of the realized policy innovation plus noise, shifted by the
selection, anticipation and spillover steps, and the panel runs through
the autoregressive dynamics.  Potential outcomes are kept in structural form,
``po(lam) = scale * g(lam) + base`` with every other shock held in
``base``, so any counterfactual dose is evaluated exactly and brute-force
estimand oracles need no stored grid of outcomes.  The network exposure
(``build_exposure``) lives here too, so the simulator and the estimators
share one definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .errors import AsymmetricAdjacency, BadConfig, SelfLoop
from .panel import PanelDataset, _var_recursion

__all__ = [
    "ImpactFunction",
    "linear_impact",
    "quadratic_impact",
    "step_impact",
    "GroupLabels",
    "ExposureTruth",
    "PotentialOutcomePanel",
    "ScenarioConfig",
    "Scenario",
    "SCENARIOS",
    "taken_fields",
    "build_exposure",
    "ring_adjacency",
    "simulate_var_panel",
    "simulate_scenario",
    "REGIMES",
    "DUMMY_REGIMES",
    "HOMOGENEOUS_DUMMY",
    "GAUSSIAN_CONTINUOUS",
    "NONNEGATIVE_CONTINUOUS",
    "HETEROGENEOUS_DUMMY",
    "SPILLOVER_DUMMY",
    "TREATED_NEIGHBOR_SHARE",
    "BINARY_ANY_NEIGHBOR",
]

HOMOGENEOUS_DUMMY = "homogeneous_dummy"
GAUSSIAN_CONTINUOUS = "gaussian_continuous"
NONNEGATIVE_CONTINUOUS = "nonnegative_continuous"
HETEROGENEOUS_DUMMY = "heterogeneous_dummy"
SPILLOVER_DUMMY = "spillover_dummy"

TREATED_NEIGHBOR_SHARE = "treated_neighbor_share"
BINARY_ANY_NEIGHBOR = "binary_any_neighbor"

# Periods simulated from the unit means before the sample, then dropped.
BURN_IN = 50


# g and its derivative g' of each impact kind, given the kind's params.
_IMPACT_KINDS = {
    "linear": (lambda lam, beta: beta * lam, lambda lam, beta: np.full_like(lam, beta)),
    "quadratic": (lambda lam, a, b: a * lam + b * lam**2, lambda lam, a, b: a + 2.0 * b * lam),
    "step": (lambda lam, height, threshold: height * (lam >= threshold).astype(float),
             lambda lam, height, threshold: np.zeros_like(lam)),
}


@dataclass(frozen=True)
class ImpactFunction:
    """Structural impact of the policy innovation on the outcome innovation.

    kind "linear": beta * lam; "quadratic": a * lam + b * lam**2;
    "step": height * 1{lam >= threshold}.  Any other kind raises BadConfig.
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in _IMPACT_KINDS:
            raise BadConfig(f"unknown impact kind {self.kind!r}")

    def __call__(self, lam):
        return _IMPACT_KINDS[self.kind][0](np.asarray(lam, dtype=float), *self.params)

    def derivative(self, lam):
        return _IMPACT_KINDS[self.kind][1](np.asarray(lam, dtype=float), *self.params)


def linear_impact(beta: float) -> ImpactFunction:
    return ImpactFunction("linear", (float(beta),))


def quadratic_impact(a: float, b: float) -> ImpactFunction:
    return ImpactFunction("quadratic", (float(a), float(b)))


def step_impact(height: float, threshold: float = 0.5) -> ImpactFunction:
    return ImpactFunction("step", (float(height), float(threshold)))


@dataclass(frozen=True)
class GroupLabels:
    """Unit/time partition for dummy designs: treated vs control groups."""

    treated_units: np.ndarray
    treated_times: np.ndarray


@dataclass(frozen=True)
class ExposureTruth:
    """Ground-truth network exposure of the spillover regime.

    The network (``adjacency``), each cell's exposure ``s_values`` and the
    spillover effect ``rho``, which broadcasts against ``s_values``: a
    cell's ``base`` holds ``rho * s``, so its potential outcome with own
    dose lam at exposure s' is ``po_at(lam) + rho * (s' - s)``.
    """

    adjacency: np.ndarray
    s_values: np.ndarray
    rho: float | np.ndarray


@dataclass(frozen=True)
class PotentialOutcomePanel:
    """Simulator ground truth: assignments, structural potential outcomes, groups.

    The potential outcome of cell (i, t) at dose lam is
    ``impact_scale * impact(lam) + base``.  ``impact_scale`` broadcasts
    against ``base``: the simulator stores one scale per unit, shape
    (n, 1); a hand-built panel may give one per cell.  ``lambda_grid`` is
    the dose grid the oracles evaluate on.
    """

    regime: str
    assignments: np.ndarray
    lambda_grid: np.ndarray
    realized_outcomes: np.ndarray
    groups: GroupLabels | None
    exposure: ExposureTruth | None
    impact: ImpactFunction
    impact_scale: np.ndarray
    base: np.ndarray

    def po_at(self, lam: float) -> np.ndarray:
        """Potential outcomes of every cell at one counterfactual dose (exact)."""
        return self.impact_scale * float(self.impact(lam)) + self.base


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one simulated scenario.

    Every regime reads the fields from ``regime`` to ``effect_sd`` and
    ``lambda_grid``.  The rest are regime-specific: a regime reads those its
    ``SCENARIOS`` entry names in ``reads``, and any other one set away from
    its default raises BadConfig, as does a non-finite value in any field.
    ``anticipation`` shifts treated units' innovations in untreated periods
    (the regimes with groups, ``homogeneous_dummy`` and
    ``heterogeneous_dummy``), and ``selection_strength`` correlates the
    outcome noise with the realized policy draw (``gaussian_continuous``).
    ``treat_on_gain`` tilts unit-level treatment probability toward units
    with larger impact scale (a selection-on-gains device).
    """

    regime: str
    n_units: int
    n_times: int
    seed: int
    phi: tuple = ((0.2, 0.0), (0.3, 0.35))
    mu_scale: float = 1.0
    impact: ImpactFunction = field(default_factory=lambda: linear_impact(1.0))
    noise_scale: float = 1.0
    effect_sd: float = 0.0
    treat_prob: float = 0.3
    time_frac: float = 0.4
    treat_on_gain: float = 0.0
    anticipation: float = 0.0
    treat_schedule: np.ndarray | None = None
    policy_sigma: float = 1.0
    selection_strength: float = 0.0
    zero_prob: float = 0.5
    support: tuple[float, float] = (1.0, 2.0)
    spillover_rho: float = 0.0
    ring_neighbors: int = 2
    lambda_grid: np.ndarray | None = None

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=int(seed))


def ring_adjacency(n_units: int, neighbors_each_side: int) -> np.ndarray:
    """Ring lattice: unit i linked to the k nearest units on each side."""
    if not 1 <= neighbors_each_side < n_units / 2:
        raise BadConfig(
            f"need 1 <= neighbors_each_side < n/2, got {neighbors_each_side} for n={n_units}"
        )
    adj = np.zeros((n_units, n_units), dtype=float)
    for off in range(1, neighbors_each_side + 1):
        idx = np.arange(n_units)
        adj[idx, (idx + off) % n_units] = 1.0
        adj[idx, (idx - off) % n_units] = 1.0
    return adj


def build_exposure(adjacency: np.ndarray, treatment: np.ndarray, mode: str = TREATED_NEIGHBOR_SHARE) -> np.ndarray:
    """Map other units' treatment paths into the (n_units, n_times) exposure.

    treated_neighbor_share: number of treated neighbours over number of
    neighbours; binary_any_neighbor: 1 if any neighbour is treated.
    Isolated units always get zero.
    """
    adjacency = np.asarray(adjacency, dtype=float)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise BadConfig("adjacency must be square")
    if not np.array_equal(adjacency, adjacency.T):
        raise AsymmetricAdjacency("adjacency matrix must be symmetric")
    if np.abs(np.diag(adjacency)).max(initial=0.0) > 0:
        raise SelfLoop("adjacency diagonal must be zero")
    if not np.isin(adjacency, (0.0, 1.0)).all():
        raise BadConfig("adjacency entries must be 0/1")
    treatment = np.asarray(treatment, dtype=float)
    if treatment.ndim != 2 or treatment.shape[0] != adjacency.shape[0]:
        raise BadConfig("treatment must be (n_units, n_times) aligned with adjacency")
    if not np.isin(treatment, (0.0, 1.0)).all():
        raise BadConfig("treatment indicator must be 0/1")

    counts = adjacency @ treatment
    if mode == TREATED_NEIGHBOR_SHARE:
        degree = adjacency.sum(axis=1)
        s = np.divide(
            counts, degree[:, None], out=np.zeros_like(counts), where=degree[:, None] > 0
        )
    elif mode == BINARY_ANY_NEIGHBOR:
        s = (counts > 0).astype(float)
    else:
        raise BadConfig(f"unknown exposure mode {mode!r}")
    return s


def simulate_var_panel(phi, mu, innovations, n_policies=1, variable_names=None) -> PanelDataset:
    """Run (n, t, m) innovations through the autoregressive dynamics.

    ``x_t = (I - sum phi_l) mu + sum_l phi_l x_{t-l} + e_t`` with the
    pre-sample state pinned at ``mu``, so adding a constant to ``mu``
    shifts every observation by exactly that constant.  Dynamics that
    overflow raise NonFinite when the panel is built.
    """
    phi = _as_phi_tuple(phi)
    m, p = phi[0].shape[0], len(phi)
    innovations = np.asarray(innovations, dtype=float)
    n, t = innovations.shape[0], innovations.shape[1]
    states = np.empty((p + t, n, m))
    states[p:] = innovations.transpose(1, 0, 2)
    _run_pinned(phi, np.asarray(mu, dtype=float).reshape(n, m), states)
    values = states[p:].transpose(1, 0, 2)
    return PanelDataset(values, n_policies, variable_names or _default_names(n_policies, m))


def _run_pinned(phi, mu: np.ndarray, states: np.ndarray) -> None:
    """Run the VAR dynamics in place over time-major (p + t, ..., m) ``states``
    whose ``states[p:]`` hold the innovations: pin the p pre-sample states at
    ``mu``, which broadcasts against one period, shift every innovation by
    ``(I - sum phi) mu``, and recurse.  Overflow leaves non-finite states
    without a warning, for the panel built from them to reject."""
    p, m = len(phi), states.shape[-1]
    states[:p] = mu
    states[p:] += mu @ (np.eye(m) - sum(phi)).T
    with np.errstate(over="ignore", invalid="ignore"):
        _var_recursion(states.reshape(len(states), -1, m), phi)


def _default_names(n_policies: int, m: int) -> tuple[str, ...]:
    return tuple(
        [f"policy{k + 1}" for k in range(n_policies)]
        + [f"outcome{j + 1}" for j in range(m - n_policies)]
    )


def _as_phi_tuple(phi) -> tuple[np.ndarray, ...]:
    arr = np.asarray(phi, dtype=float)
    if arr.ndim == 2:
        return (arr,)
    if arr.ndim == 3:
        return tuple(arr[i] for i in range(arr.shape[0]))
    raise BadConfig("phi must be an m x m matrix or a stack of them")


def _validate_config(config: ScenarioConfig) -> tuple[np.ndarray, ...]:
    """The checks every regime shares; each draw checks the fields it reads."""
    if config.regime not in SCENARIOS:
        raise BadConfig(f"unknown regime {config.regime!r}")
    if config.n_units < 2 or config.n_times < 4:
        raise BadConfig("need at least 2 units and 4 periods")
    phi = _as_phi_tuple(config.phi)
    if phi[0].shape != (2, 2):
        raise BadConfig("scenario simulators use one policy and one outcome (m = 2)")
    if config.noise_scale < 0 or config.mu_scale < 0:
        raise BadConfig("scales must be non-negative")
    taken = taken_fields(config)
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name not in taken and not np.array_equal(value, f.default):
            raise BadConfig(f"regime {config.regime!r} does not take {f.name}")
        if isinstance(value, ImpactFunction):
            value = value.params
        if f.name not in ("regime", "seed") and value is not None and not np.isfinite(value).all():
            raise BadConfig(f"{f.name} must be finite")
    if config.lambda_grid is not None:
        grid = np.asarray(config.lambda_grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or (np.diff(grid) <= 0).any():
            raise BadConfig("lambda_grid must be strictly increasing")
    return phi


def _both_arms(treated: np.ndarray, on=0, off=-1) -> np.ndarray:
    """Keep at least one treated and one control entry of a boolean draw:
    treat flat entry ``on`` if none is treated, untreat ``off`` if all are."""
    flat = treated.reshape(-1)
    if not flat.any():
        flat[on] = True
    if flat.all():
        flat[off] = False
    return treated


def _schedule(config: ScenarioConfig) -> np.ndarray:
    """The fixed 0/1 calendar ``treat_schedule``, with a control unit in every
    treated period, as the assumption structure requires."""
    w = np.asarray(config.treat_schedule, dtype=float)
    if w.shape != (config.n_units, config.n_times):
        raise BadConfig("treat_schedule shape must be (n_units, n_times)")
    if not np.isin(w, (0.0, 1.0)).all():
        raise BadConfig("treat_schedule must be 0/1")
    if (w.all(axis=0) & w.any(axis=0)).any():
        raise BadConfig("every treated period needs at least one control unit")
    return w


def _common_dummy(rng, config, scale_z):
    """Every unit treated in the same randomly drawn periods."""
    if not 0.0 < config.treat_prob < 1.0:
        raise BadConfig("treat_prob must be in (0, 1)")
    d = _both_arms(rng.random(config.n_times) < config.treat_prob)
    n = config.n_units
    return np.tile(d.astype(float), (n, 1)), GroupLabels(np.ones(n, dtype=bool), d)


def _gaussian_dose(rng, config, scale_z):
    if config.policy_sigma <= 0:
        raise BadConfig("policy_sigma must be positive")
    return config.policy_sigma * rng.standard_normal((config.n_units, config.n_times)), None


def _nonnegative_dose(rng, config, scale_z):
    """Zero with probability ``zero_prob``, else uniform on ``support``."""
    low, high = config.support
    if not 0.0 < low <= high:
        raise BadConfig("non-negative regime needs 0 < support low <= high")
    if not 0.0 <= config.zero_prob < 1.0:
        raise BadConfig("zero_prob must be in [0, 1)")
    shape = (config.n_units, config.n_times)
    is_zero = rng.random(shape) < config.zero_prob
    return np.where(is_zero, 0.0, low + (high - low) * rng.random(shape)), None


def _block_dummy(rng, config, scale_z):
    """Treated units in treated periods, a product of unit and period draws
    (unit probabilities tilted by ``treat_on_gain``), or ``treat_schedule``."""
    if config.treat_schedule is not None:
        w = _schedule(config)
        return w, GroupLabels(w.any(axis=1), w.any(axis=0))
    if not 0.0 < config.treat_prob < 1.0 or not 0.0 < config.time_frac < 1.0:
        raise BadConfig("treat_prob and time_frac must be in (0, 1)")
    prob = np.clip(config.treat_prob + config.treat_on_gain * scale_z, 0.02, 0.98)
    units = _both_arms(rng.random(config.n_units) < prob, np.argmax(prob), np.argmin(prob))
    times = _both_arms(rng.random(config.n_times) < config.time_frac)
    return np.outer(units, times).astype(float), GroupLabels(units, times)


def _sparse_dummy(rng, config, scale_z):
    """Sparse, independently timed treatment (or ``treat_schedule``), so every
    unit re-enters the control pool and own timing is independent of
    neighbour exposure.  With grouped timing the within estimator draws no
    variation from pure controls and would absorb the treated cells' own
    exposure instead of netting it out."""
    if config.treat_schedule is not None:
        return _schedule(config), None
    if not 0.0 < config.treat_prob < 1.0:
        raise BadConfig("treat_prob must be in (0, 1)")
    w = _both_arms(rng.random((config.n_units, config.n_times)) < config.treat_prob)
    return w.astype(float), None


def _dummy_grid(config):
    return np.array([0.0, 1.0])


@dataclass(frozen=True)
class Scenario:
    """One regime: ``draw(rng, config, scale_z) -> (w, groups)`` draws the
    policy innovations and rejects bad values of its fields, ``grid(config)``
    is the default dose grid, and ``reads`` names the regime-specific config
    fields the regime takes (see ``taken_fields``)."""

    draw: Callable
    grid: Callable
    reads: tuple[str, ...]


SCENARIOS = {
    HOMOGENEOUS_DUMMY: Scenario(
        _common_dummy, _dummy_grid, ("treat_prob", "anticipation")),
    GAUSSIAN_CONTINUOUS: Scenario(
        _gaussian_dose, lambda c: np.linspace(-5.0 * c.policy_sigma, 5.0 * c.policy_sigma, 201),
        ("policy_sigma", "selection_strength")),
    NONNEGATIVE_CONTINUOUS: Scenario(
        _nonnegative_dose, lambda c: np.concatenate([[0.0], np.linspace(*c.support, 121)]),
        ("zero_prob", "support")),
    HETEROGENEOUS_DUMMY: Scenario(
        _block_dummy, _dummy_grid,
        ("treat_prob", "time_frac", "treat_on_gain", "treat_schedule", "anticipation")),
    SPILLOVER_DUMMY: Scenario(
        _sparse_dummy, _dummy_grid,
        ("treat_prob", "treat_schedule", "spillover_rho", "ring_neighbors")),
}
REGIMES = tuple(SCENARIOS)
# The config fields that only some regimes read.
REGIME_FIELDS = frozenset(name for s in SCENARIOS.values() for name in s.reads)
DUMMY_REGIMES = (HOMOGENEOUS_DUMMY, HETEROGENEOUS_DUMMY, SPILLOVER_DUMMY)


def taken_fields(config: ScenarioConfig) -> dict:
    """The fields ``config``'s regime takes, with their values: every field
    outside ``REGIME_FIELDS`` and those its ``SCENARIOS`` entry ``reads``."""
    reads = SCENARIOS[config.regime].reads
    return {f.name: getattr(config, f.name) for f in fields(config)
            if f.name not in REGIME_FIELDS or f.name in reads}


@dataclass(frozen=True)
class _Draw:
    """The draw step of one replication: unit means ``mu`` (n, 2), the
    outcome noise ``burn`` (n, BURN_IN) of the burn-in periods, and the
    ground truth, whose assignments and realized outcomes are the policy
    and outcome innovations of the sample periods."""

    mu: np.ndarray
    burn: np.ndarray
    pop: PotentialOutcomePanel


def simulate_scenario(config: ScenarioConfig) -> tuple[PanelDataset, PotentialOutcomePanel]:
    """Generate one panel plus its fully observed potential outcomes.

    The outcome innovation of cell (i, t) is
    ``scale_i * g(W_it) + base_it`` where ``base_it`` collects noise,
    anticipation shifts, selection terms, and (in the spillover regime)
    ``rho * S_it``; potential outcomes re-evaluate ``g`` at any dose with
    ``base_it`` held fixed, so realized outcomes equal the potential
    outcome at the realized assignment exactly.  Dynamics that overflow
    raise NonFinite when the panel is built.
    """
    phi = _validate_config(config)
    draw = _draw(config)
    values = _propagate(phi, [draw])[-config.n_times:, 0].transpose(1, 0, 2)
    return PanelDataset(values, 1, _default_names(1, 2)), draw.pop


def _propagate(phi, draws: list[_Draw]) -> np.ndarray:
    """Time-major (p + BURN_IN + t, b, n, 2) states of b draws of one config.

    Zero policy innovations and ``burn`` drive the burn-in periods, then the
    draw's assignments and realized outcomes the sample periods, run from
    each draw's ``mu`` by ``_run_pinned``, as in ``simulate_var_panel``.
    Overflowing dynamics leave non-finite states; the panel built from them
    raises NonFinite.
    """
    p = len(phi)
    n, t = draws[0].pop.base.shape
    states = np.empty((p + BURN_IN + t, len(draws), n, 2))
    for r, draw in enumerate(draws):
        units = states[p:, r]
        units[:BURN_IN, :, 0] = 0.0
        units[:BURN_IN, :, 1] = draw.burn.T
        units[BURN_IN:, :, 0] = draw.pop.assignments.T
        units[BURN_IN:, :, 1] = draw.pop.realized_outcomes.T
    _run_pinned(phi, np.stack([draw.mu for draw in draws]), states)
    return states


def _draw(config: ScenarioConfig) -> _Draw:
    """Every random draw of one replication from ``default_rng(config.seed)``,
    in order: unit means, effect scales, assignment, outcome noise, burn-in
    noise.  ``config`` has passed ``_validate_config``."""
    rng = np.random.default_rng(config.seed)
    n, t = config.n_units, config.n_times
    g = config.impact

    mu = config.mu_scale * rng.standard_normal((n, 2))
    scale_z = rng.standard_normal(n)
    scale = 1.0 + config.effect_sd * scale_z

    scenario = SCENARIOS[config.regime]
    w, groups = scenario.draw(rng, config, scale_z)

    base = config.noise_scale * rng.standard_normal((n, t))
    if config.selection_strength != 0.0:
        base = base + config.selection_strength * w
    if config.anticipation != 0.0:
        base = base + config.anticipation * np.outer(groups.treated_units, ~groups.treated_times)
    exposure = None
    if "spillover_rho" in scenario.reads:
        adjacency = ring_adjacency(n, config.ring_neighbors)
        s = build_exposure(adjacency, w)
        exposure = ExposureTruth(adjacency, s, config.spillover_rho)
        base = base + config.spillover_rho * s

    grid = (scenario.grid(config) if config.lambda_grid is None
            else np.asarray(config.lambda_grid, dtype=float))
    realized = scale[:, None] * g(w) + base

    burn = config.noise_scale * rng.standard_normal((n, BURN_IN))

    pop = PotentialOutcomePanel(
        regime=config.regime,
        assignments=w,
        lambda_grid=grid,
        realized_outcomes=realized,
        groups=groups,
        exposure=exposure,
        impact=g,
        impact_scale=scale[:, None],
        base=base,
    )
    return _Draw(mu, burn, pop)
