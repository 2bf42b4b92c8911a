"""Exception hierarchy for the causal_pvar package.

Every error raised by the library derives from :class:`CausalPvarError`,
so callers (notably the CLI) can map any expected failure to a nonzero
exit code without enumerating causes.
"""


class CausalPvarError(Exception):
    """Base class for all causal_pvar errors."""


# --- panel construction / validation ---------------------------------------

class UnbalancedPanel(CausalPvarError):
    """A (unit, time) cell is missing from the panel, or ``repeated`` in its records."""

    def __init__(self, unit, time, problem="missing"):
        self.unit = unit
        self.time = time
        super().__init__(f"{problem} cell (unit={unit}, time={time})")


class NonFinite(CausalPvarError):
    """Panel values contain NaN or infinity."""


class BadOrdering(CausalPvarError):
    """Policy/outcome counts are inconsistent with the variable layout."""


class ParseError(CausalPvarError):
    """A file could not be parsed; carries the offending line number."""

    def __init__(self, message, line_number=None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


# --- estimation -------------------------------------------------------------

class DegenerateDummy(CausalPvarError):
    """An exogenous dummy is collinear with the unit means."""


class SingularDesign(CausalPvarError):
    """The within lag regressors are numerically collinear.

    The one rule of every within-OLS fit (``fit_pvar``, ``lag_criteria``,
    each bootstrap replication): with G the Gram matrix of the per-unit
    demeaned, dummy-partialled lags and S = diag(G)^-1/2, a non-finite
    cross-product, a zero diagonal in G, or a condition number of the
    unit-diagonal S G S above ``panel.COND_LIMIT`` (1e12) rejects the
    design, whatever units the data are in.  A point fit raises this
    error; a rejected bootstrap replication counts as failed.
    """


class InsufficientObs(CausalPvarError):
    """Too few time periods per unit for the requested lag order."""


# --- identification ---------------------------------------------------------

class NotPSD(CausalPvarError):
    """Covariance matrix has an eigenvalue below -1e-8."""


class ZeroPolicyVariance(CausalPvarError):
    """The policy residual has (numerically) zero variance."""


class BootstrapUnstable(CausalPvarError):
    """Too many bootstrap replications failed to refit.

    Raised when more than 5% of an impulse-response bootstrap fails, or
    when fewer than two spillover-regression draws remain.
    """


# --- simulation / estimands ---------------------------------------------------

class BadConfig(CausalPvarError):
    """Scenario configuration is internally inconsistent."""


class RegimeMismatch(CausalPvarError):
    """Scenario regime does not match the requested verification."""


class EmptyTreatedSet(CausalPvarError):
    """No realized-treated cells: ATT, ATTE and ASTE are undefined."""


class DegenerateAssignment(CausalPvarError):
    """All cells treated or all cells control."""


class EmptyCell(CausalPvarError):
    """One of the four difference-in-means cells is empty."""


# --- weights ------------------------------------------------------------------

class GridTooNarrow(CausalPvarError):
    """Weight grid does not capture enough probability mass."""


class GridMismatch(CausalPvarError):
    """Weight grid and estimand grid do not align."""


class AllZeros(CausalPvarError):
    """Non-negative policy sample contains no positive values."""


# --- spillover ------------------------------------------------------------------

class AsymmetricAdjacency(CausalPvarError):
    """Adjacency matrix is not symmetric."""


class SelfLoop(CausalPvarError):
    """Adjacency matrix has a nonzero diagonal entry."""


class CollinearRegressors(CausalPvarError):
    """Policy residual and exposure are numerically collinear."""


class IoError(CausalPvarError):
    """A file could not be read, decoded as UTF-8, or written, or a directory created."""
