"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when an argument fails a precondition (bad probability,
    bad count, parity mismatch, NaN, ...)."""


class UnsupportedArity(ValidationError):
    """Raised for hypergraph arities outside the supported set {2, 3}."""


class OutOfRangeError(ValidationError):
    """Raised when a numeric solve is asked for an unattainable target."""


class CoverageNotReached(ValidationError):
    """Raised when a coupon collector run misses full coverage within its draw cap."""


class PlanningError(Exception):
    """Raised when an experiment point cannot be parameterized.

    Carries enough context to identify the offending grid value.
    """
