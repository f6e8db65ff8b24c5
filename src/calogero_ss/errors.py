"""Exception hierarchy shared by all modules.

The CLI maps these onto its exit codes, so new error types should subclass
one of the existing categories rather than Exception directly.
"""


class CalogeroError(Exception):
    """Base class for all library errors."""


class DomainError(CalogeroError, ValueError):
    """Arguments outside an operation's documented domain."""


class CouplingRangeError(DomainError):
    """Coupling constants admit no non-negative ground-state exponent."""


class NoRealExponentError(CouplingRangeError):
    """Discriminant of the exponent quadratic is negative: no real root."""


class SingularConfigurationError(DomainError):
    """Evaluation point too close to a particle-coincidence hyperplane."""


class ResourceLimitError(DomainError):
    """Size caps (polynomial degree / particle number) exceeded."""


class DegenerateEnvelopeError(CalogeroError):
    """Matching envelope vanishes at the reference radius."""


class NumericalFailureError(CalogeroError):
    """A numerically singular system that should be impossible analytically."""
