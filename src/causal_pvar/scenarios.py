"""Scenario simulators with fully observed potential outcomes.

Each regime draws policy innovations from a different law (common dummy,
Gaussian, zero-inflated non-negative, unit-by-time dummy, dummy with
network spillovers), builds the outcome innovation as a structural impact
of the realized policy innovation plus idiosyncratic noise, and runs the
panel through the autoregressive dynamics.  Potential outcomes are kept in
structural form, ``po(lam) = scale * g(lam) + base`` with every other
shock held in ``base``, so any counterfactual dose is evaluated exactly
and brute-force estimand oracles need no stored grid of outcomes.  The
network exposure of the spillover regime (``build_exposure``) lives here
too, so the simulator and the estimators share one definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AsymmetricAdjacency, BadConfig, SelfLoop
from .panel import PanelDataset

__all__ = [
    "ImpactFunction",
    "linear_impact",
    "quadratic_impact",
    "step_impact",
    "GroupLabels",
    "ExposureMap",
    "ExposureTruth",
    "PotentialOutcomePanel",
    "ScenarioConfig",
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
REGIMES = (
    HOMOGENEOUS_DUMMY,
    GAUSSIAN_CONTINUOUS,
    NONNEGATIVE_CONTINUOUS,
    HETEROGENEOUS_DUMMY,
    SPILLOVER_DUMMY,
)
DUMMY_REGIMES = (HOMOGENEOUS_DUMMY, HETEROGENEOUS_DUMMY, SPILLOVER_DUMMY)

TREATED_NEIGHBOR_SHARE = "treated_neighbor_share"
BINARY_ANY_NEIGHBOR = "binary_any_neighbor"


@dataclass(frozen=True)
class ImpactFunction:
    """Structural impact of the policy innovation on the outcome innovation.

    kind "linear": beta * lam; "quadratic": a * lam + b * lam**2;
    "step": height * 1{lam >= threshold}.
    """

    kind: str
    params: tuple[float, ...]

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        if self.kind == "linear":
            return self.params[0] * lam
        if self.kind == "quadratic":
            a, b = self.params
            return a * lam + b * lam**2
        if self.kind == "step":
            height, threshold = self.params
            return height * (lam >= threshold).astype(float)
        raise BadConfig(f"unknown impact kind {self.kind!r}")

    def derivative(self, lam):
        lam = np.asarray(lam, dtype=float)
        if self.kind == "linear":
            return np.full_like(lam, self.params[0])
        if self.kind == "quadratic":
            a, b = self.params
            return a + 2.0 * b * lam
        if self.kind == "step":
            return np.zeros_like(lam)
        raise BadConfig(f"unknown impact kind {self.kind!r}")


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
class ExposureMap:
    """Per-cell exposure to other units' treatments on a fixed network."""

    adjacency: np.ndarray
    s_values: np.ndarray
    mode: str


@dataclass(frozen=True)
class ExposureTruth:
    """Ground-truth exposure and exposure-indexed potential outcomes.

    The ``po_*`` arrays are per-cell potential outcome innovations: own
    treatment at the realized exposure, no own treatment at the realized
    exposure, and no own treatment with zero exposure.
    """

    adjacency: np.ndarray
    s_values: np.ndarray
    po_treated_realized: np.ndarray
    po_control_realized: np.ndarray
    po_baseline: np.ndarray


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
    truth: dict
    impact: ImpactFunction
    impact_scale: np.ndarray
    base: np.ndarray

    def po_at(self, lam: float) -> np.ndarray:
        """Potential outcomes of every cell at one counterfactual dose (exact)."""
        return self.impact_scale * float(self.impact(lam)) + self.base


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one simulated scenario.

    Only the fields relevant to ``regime`` are read; the rest keep their
    defaults.  ``treat_on_gain`` tilts unit-level treatment probability
    toward units with larger impact scale (a selection-on-gains device),
    ``anticipation`` shifts treated units' innovations in untreated
    periods (a no-anticipation violation), and ``selection_strength``
    correlates the outcome noise with the realized Gaussian policy draw.
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
    adjacency: np.ndarray | None = None
    lambda_grid: np.ndarray | None = None
    burn_in: int = 50

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


def build_exposure(adjacency: np.ndarray, treatment: np.ndarray, mode: str = TREATED_NEIGHBOR_SHARE) -> ExposureMap:
    """Map other units' treatment paths into a per-cell scalar exposure.

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
    return ExposureMap(adjacency=adjacency, s_values=s, mode=mode)


def simulate_var_panel(phi, mu, innovations, n_policies=1, variable_names=None) -> PanelDataset:
    """Run innovations through the autoregressive dynamics.

    ``x_t = (I - sum phi_l) mu + sum_l phi_l x_{t-l} + e_t`` with the
    pre-sample state pinned at ``mu``, so adding a constant to ``mu``
    shifts every observation by exactly that constant.
    """
    phi = _as_phi_tuple(phi)
    m = phi[0].shape[0]
    p = len(phi)
    innovations = np.asarray(innovations, dtype=float)
    n, t = innovations.shape[0], innovations.shape[1]
    mu = np.asarray(mu, dtype=float).reshape(n, m)
    const = mu @ (np.eye(m) - sum(phi)).T
    buf = np.empty((n, t + p, m))
    buf[:, :p, :] = mu[:, None, :]
    for s in range(t):
        x = const + innovations[:, s, :]
        for l in range(1, p + 1):
            x = x + buf[:, p + s - l, :] @ phi[l - 1].T
        buf[:, p + s, :] = x
    return PanelDataset(buf[:, p:, :], n_policies, variable_names or _default_names(n_policies, m))


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
    if config.regime not in REGIMES:
        raise BadConfig(f"unknown regime {config.regime!r}")
    if config.n_units < 2 or config.n_times < 4:
        raise BadConfig("need at least 2 units and 4 periods")
    phi = _as_phi_tuple(config.phi)
    if phi[0].shape != (2, 2):
        raise BadConfig("scenario simulators use one policy and one outcome (m = 2)")
    if config.noise_scale < 0 or config.mu_scale < 0:
        raise BadConfig("scales must be non-negative")
    if config.regime == HOMOGENEOUS_DUMMY and not 0.0 < config.treat_prob < 1.0:
        raise BadConfig("treat_prob must be in (0, 1)")
    if config.regime == GAUSSIAN_CONTINUOUS and config.policy_sigma <= 0:
        raise BadConfig("policy_sigma must be positive")
    if config.regime == NONNEGATIVE_CONTINUOUS:
        low, high = config.support
        if not (0.0 < low <= high):
            raise BadConfig("non-negative regime needs 0 < support low <= high")
        if not 0.0 <= config.zero_prob < 1.0:
            raise BadConfig("zero_prob must be in [0, 1)")
    if config.regime in (HETEROGENEOUS_DUMMY, SPILLOVER_DUMMY):
        if config.treat_schedule is None:
            if not 0.0 < config.treat_prob < 1.0 or not 0.0 < config.time_frac < 1.0:
                raise BadConfig("treat_prob and time_frac must be in (0, 1)")
    return phi


def _group_assignment(config: ScenarioConfig, rng, scale_z):
    """Draw product-form unit x time treatment with non-degenerate groups."""
    n, t = config.n_units, config.n_times
    prob = np.clip(config.treat_prob + config.treat_on_gain * scale_z, 0.02, 0.98)
    units = rng.random(n) < prob
    if not units.any():
        units[int(np.argmax(prob))] = True
    if units.all():
        units[int(np.argmin(prob))] = False
    times = rng.random(t) < config.time_frac
    if not times.any():
        times[0] = True
    if times.all():
        times[-1] = False
    return units, times


def _schedule_groups(schedule: np.ndarray):
    w = np.asarray(schedule, dtype=float)
    if not np.isin(w, (0.0, 1.0)).all():
        raise BadConfig("treat_schedule must be 0/1")
    treated_times = w.any(axis=0)
    # Assumption structure: a contemporaneous control unit must exist
    # whenever anyone is treated.
    if (w.all(axis=0) & treated_times).any():
        raise BadConfig("every treated period needs at least one control unit")
    return w, w.any(axis=1), treated_times


def _default_grid(config: ScenarioConfig) -> np.ndarray:
    if config.lambda_grid is not None:
        grid = np.asarray(config.lambda_grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or (np.diff(grid) <= 0).any():
            raise BadConfig("lambda_grid must be strictly increasing")
        return grid
    if config.regime in DUMMY_REGIMES:
        return np.array([0.0, 1.0])
    if config.regime == GAUSSIAN_CONTINUOUS:
        s = config.policy_sigma
        return np.linspace(-5.0 * s, 5.0 * s, 201)
    low, high = config.support
    return np.concatenate([[0.0], np.linspace(low, high, 121)])


def simulate_scenario(config: ScenarioConfig) -> tuple[PanelDataset, PotentialOutcomePanel]:
    """Generate one panel plus its fully observed potential outcomes.

    The outcome innovation of cell (i, t) is
    ``scale_i * g(W_it) + base_it`` where ``base_it`` collects noise,
    anticipation shifts, selection terms, and (in the spillover regime)
    ``rho * S_it``; potential outcomes re-evaluate ``g`` at any dose with
    ``base_it`` held fixed, so realized outcomes equal the potential
    outcome at the realized assignment exactly.
    """
    phi = _validate_config(config)
    rng = np.random.default_rng(config.seed)
    n, t = config.n_units, config.n_times
    g = config.impact

    mu = config.mu_scale * rng.standard_normal((n, 2))
    scale_z = rng.standard_normal(n)
    scale = 1.0 + config.effect_sd * scale_z

    groups = None
    exposure = None
    truth = {
        "regime": config.regime,
        "impact_kind": g.kind,
        "impact_params": tuple(g.params),
        "noise_scale": config.noise_scale,
        "effect_sd": config.effect_sd,
    }

    if config.regime == HOMOGENEOUS_DUMMY:
        d = (rng.random(t) < config.treat_prob).astype(float)
        if not d.any():
            d[0] = 1.0
        if d.all():
            d[-1] = 0.0
        w = np.tile(d, (n, 1))
        groups = GroupLabels(np.ones(n, dtype=bool), d.astype(bool))
    elif config.regime == GAUSSIAN_CONTINUOUS:
        w = config.policy_sigma * rng.standard_normal((n, t))
        truth["policy_sigma"] = config.policy_sigma
    elif config.regime == NONNEGATIVE_CONTINUOUS:
        low, high = config.support
        is_zero = rng.random((n, t)) < config.zero_prob
        pos = low + (high - low) * rng.random((n, t))
        w = np.where(is_zero, 0.0, pos)
        truth["zero_prob"] = config.zero_prob
        truth["support"] = (low, high)
    elif config.regime == HETEROGENEOUS_DUMMY:
        if config.treat_schedule is not None:
            w, unit_mask, time_mask = _schedule_groups(config.treat_schedule)
            if w.shape != (n, t):
                raise BadConfig("treat_schedule shape must be (n_units, n_times)")
        else:
            unit_mask, time_mask = _group_assignment(config, rng, scale_z)
            w = np.outer(unit_mask, time_mask).astype(float)
        groups = GroupLabels(unit_mask, time_mask)
    else:
        # Spillover regime: sparse, independently timed treatment, so every
        # unit re-enters the control pool and own timing is independent of
        # neighbour exposure.  With grouped timing the within estimator
        # draws no variation from pure controls and would absorb the
        # treated cells' own exposure instead of netting it out.
        if config.treat_schedule is not None:
            w, _, _ = _schedule_groups(config.treat_schedule)
            if w.shape != (n, t):
                raise BadConfig("treat_schedule shape must be (n_units, n_times)")
        else:
            w = (rng.random((n, t)) < config.treat_prob).astype(float)
            if not w.any():
                w[0, 0] = 1.0
            if w.all():
                w[0, 0] = 0.0

    eps = config.noise_scale * rng.standard_normal((n, t))
    base = eps
    if config.regime == GAUSSIAN_CONTINUOUS and config.selection_strength != 0.0:
        base = base + config.selection_strength * w
        truth["selection_strength"] = config.selection_strength
    if config.anticipation != 0.0 and groups is not None:
        antic = config.anticipation * np.outer(
            groups.treated_units, ~groups.treated_times
        )
        base = base + antic
        truth["anticipation"] = config.anticipation

    if config.regime == SPILLOVER_DUMMY:
        adjacency = (
            config.adjacency
            if config.adjacency is not None
            else ring_adjacency(n, config.ring_neighbors)
        )
        if np.shape(adjacency) != (n, n):
            raise BadConfig("adjacency must be n x n")
        network = build_exposure(adjacency, w)
        s_values = network.s_values
        base = base + config.spillover_rho * s_values
        truth["spillover_rho"] = config.spillover_rho
        own = scale[:, None] * (g(1.0) - g(0.0))
        po_baseline = base - config.spillover_rho * s_values + scale[:, None] * g(0.0)
        exposure = ExposureTruth(
            adjacency=network.adjacency,
            s_values=s_values,
            po_treated_realized=po_baseline + config.spillover_rho * s_values + own,
            po_control_realized=po_baseline + config.spillover_rho * s_values,
            po_baseline=po_baseline,
        )

    grid = _default_grid(config)
    realized = scale[:, None] * g(w) + base

    innovations = np.stack([w, realized], axis=2)
    if config.burn_in > 0:
        burn = np.zeros((n, config.burn_in, 2))
        burn[:, :, 1] = config.noise_scale * rng.standard_normal((n, config.burn_in))
        full = np.concatenate([burn, innovations], axis=1)
    else:
        full = innovations
    panel = simulate_var_panel(phi, mu, full, n_policies=1)
    panel = PanelDataset(panel.values[:, -t:, :], 1, panel.variable_names)

    pop = PotentialOutcomePanel(
        regime=config.regime,
        assignments=w,
        lambda_grid=grid,
        realized_outcomes=realized,
        groups=groups,
        exposure=exposure,
        truth=truth,
        impact=g,
        impact_scale=scale[:, None],
        base=base,
    )
    return panel, pop
