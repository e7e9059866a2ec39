"""Exception hierarchy.

Two broad families matter for the CLI exit codes: configuration problems
(exit 1) and numerical failures (exit 2). Everything else is I/O (exit 3).
"""


class AccBandError(Exception):
    """Base class for all library errors."""


# -- configuration / validation -------------------------------------------

class ConfigError(AccBandError):
    """Invalid user input (config files, flags, parameter invariants)."""


class ParseError(ConfigError):
    """Malformed config file; carries line number and offending text."""

    def __init__(self, message, line=None, key=None):
        self.line = line
        self.key = key
        where = f" (line {line})" if line is not None else ""
        which = f" [key {key!r}]" if key is not None else ""
        super().__init__(f"{message}{where}{which}")


class ValidationError(ConfigError):
    """A parameter violates a stated invariant."""


class LambdaNotZero(ValidationError):
    """Closed-form zonal solver called with a nonzero vorticity slope."""


class ContractionViolated(ValidationError):
    """Band too wide for the Picard map to contract at this |lambda|."""


# -- numerical failures ----------------------------------------------------

class NumericalError(AccBandError):
    """Base class for failures of the numerical machinery."""


class GridMismatch(NumericalError):
    """Fields defined on incompatible grids were combined."""


class ConvergenceFailure(NumericalError):
    """Matrix and shooting eigenvalues disagree beyond tolerance."""


class ZeroFunction(NumericalError):
    """Rayleigh quotient of a (numerically) zero function."""


class ResonantEigenvalue(NumericalError):
    """Inhomogeneous problem posed at (or too near) an eigenvalue."""


class NearEigenvalue(NumericalError):
    """Zonal BVP matrix is numerically singular (lambda near spectrum)."""


class MaxIterExceeded(NumericalError):
    """Fixed-point iteration hit its iteration cap before the tolerance."""


class TooFewSamples(NumericalError):
    """Profile too short for the requested finite-difference stencil."""


class CflViolation(NumericalError):
    """Advection step too large for the current velocity field.

    Carries ``suggested_dt``, the largest step obeying the limit.
    """

    def __init__(self, cfl, dt, suggested_dt):
        self.cfl = cfl
        self.dt = dt
        self.suggested_dt = suggested_dt
        super().__init__(
            f"CFL number {cfl:.3g} exceeds limit for dt={dt:.3g}; "
            f"suggested dt <= {suggested_dt:.3g}"
        )
