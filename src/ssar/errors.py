"""Exception types raised by the ssar library."""


class SsarError(Exception):
    """Base class for all library errors."""


class InvalidInputError(SsarError, ValueError):
    """Malformed or out-of-range input (non-finite entries, bad shapes, bad parameters)."""


class SingularMatrixError(SsarError):
    """A matrix required to be invertible is numerically rank deficient."""


class NotPsdError(SsarError):
    """A matrix required to be symmetric PSD has a materially negative eigenvalue."""


class BarrierViolationError(SsarError):
    """The running matrix touched or crossed one of its eigenvalue barriers."""


class NumericalBreakdownError(SsarError):
    """An internal quantity left its mathematically guaranteed range by more than round-off."""


class InsufficientSampleError(SsarError):
    """A statistical check was requested on a batch smaller than its minimum size."""


class ResourceLimitError(SsarError):
    """The request would exhaust the configured compute budget (e.g. exhaustive enumeration)."""


class WellBalancedEventFailedError(SsarError):
    """Every sampling attempt failed the well-balancedness check.

    Carries the per-attempt reports in ``self.reports``.
    """

    def __init__(self, message, reports):
        super().__init__(message)
        self.reports = list(reports)
