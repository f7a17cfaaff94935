"""Exception hierarchy shared by all modules."""


class DegenspecError(Exception):
    """Base class for all library errors."""


class DomainError(DegenspecError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class SignatureError(DomainError):
    """Orbifold signature admits no hyperbolic structure."""


class QuadratureError(DegenspecError, ArithmeticError):
    """A quadrature rule failed to reach the requested tolerance.

    Carries the best value and error estimate reached before giving up.
    """

    def __init__(self, message, value=None, error_estimate=None, evaluations=0):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.evaluations = evaluations


class NonFiniteIntegrandError(QuadratureError):
    """Integrand returned NaN or infinity at a sampled abscissa."""


class InvariantViolation(DegenspecError, ValueError):
    """Structured data violates one of its declared invariants."""


class ParseError(DegenspecError, ValueError):
    """Input file could not be parsed; message carries field diagnostics."""


class AlphaCollisionError(DomainError):
    """Truncation level alpha coincides with a listed eigenvalue."""


class ModelValidationError(InvariantViolation):
    """Scattering model data violates its invariants."""


class PoleError(DegenspecError, ArithmeticError):
    """Evaluation requested at a pole of the function."""


class FitError(DegenspecError, ValueError):
    """Least-squares fit is degenerate, ill conditioned or short of its
    residual floor.

    Carries the best coefficients and their residual where a fit was made.
    """

    def __init__(self, message, coefficients=None, residual=None):
        super().__init__(message)
        self.coefficients = coefficients
        self.residual = residual


class ExpansionMismatchError(DegenspecError, ValueError):
    """Supplied small-time expansion coefficients do not match the trace.

    Carries the remainder trace(t) - sum b_alpha t^alpha and the t at which
    it was found.
    """

    def __init__(self, message, remainder=None, t=None):
        super().__init__(message)
        self.remainder = remainder
        self.t = t


class InsufficientSubtractionsError(DomainError):
    """Continuation requested deeper than the subtracted expansion allows."""


class StripViolationError(DomainError):
    """Shift parameter z outside the half-plane Re z > 0 in which a trace's
    Laplace-Mellin transform converges."""
