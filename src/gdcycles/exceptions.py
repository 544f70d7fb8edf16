"""Exception types shared across the package."""


class GDCyclesError(Exception):
    """Base class for all package-specific errors."""


class ParseError(GDCyclesError):
    """Malformed dataset text. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SeparableDataError(GDCyclesError):
    """Raised when an operation requires non-separable data but the data are
    separable or weakly separable (no finite minimizer)."""


class DegenerateDataError(GDCyclesError):
    """Raised when the feature second-moment matrix is rank deficient, so the
    minimizer is not unique in weight space."""


class ConvergenceError(GDCyclesError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class PowerIterationError(ConvergenceError):
    """Power iteration did not converge; carries the last Rayleigh quotient."""

    def __init__(self, message, last_estimate):
        self.last_estimate = last_estimate
        super().__init__(f"{message} (last estimate {last_estimate!r})")
