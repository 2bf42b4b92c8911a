"""Panel-VAR causal inference toolkit.

Within (fixed-effects) estimation of panel VARs, recursive identification
of contemporaneous impacts, bootstrap impulse-response bands, simulators
with fully observed potential outcomes, estimand oracles for the causal
content of the impact coefficient under each policy regime, and
spillover-adjusted estimation on a known network.
"""

from .diagnostics import (
    AutocorrDiagnostic,
    LagSelectionTable,
    PolicyProbe,
    StationarityDiagnostic,
    lag_criteria,
    policy_regime_probe,
    residual_autocorr,
    stationarity,
)
from .errors import CausalPvarError
from .estimands import (
    EstimandReport,
    average_effects,
    did_four_means,
    dummy_gamma,
    oracle_estimands,
    selection_bias,
)
from .identify import (
    BootstrapBands,
    CholeskyFactor,
    bootstrap_irf,
    cholesky_lower,
    impact_gamma,
    irf,
    irf_from_impact,
)
from .panel import (
    PanelDataset,
    PVARFit,
    PVARSpec,
    companion,
    fit_pvar,
    panel_from_records,
    within_demean,
)
from .scenarios import (
    ImpactFunction,
    PotentialOutcomePanel,
    ScenarioConfig,
    linear_impact,
    quadratic_impact,
    ring_adjacency,
    simulate_scenario,
    simulate_var_panel,
    step_impact,
)
from .spillover import (
    SpilloverFit,
    build_exposure,
    oracle_atte_aste,
    spillover_regression,
)
from .verify import (
    VerificationReport,
    default_config,
    verify_interference,
    verify_suite,
    verify_theorem,
)
from .weights import (
    WeightProfile,
    ZeroInflatedUniform,
    gaussian_weights,
    nonneg_weights,
    weighted_estimand,
)

__version__ = "0.1.0"
