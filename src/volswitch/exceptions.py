"""Exception hierarchy for estimation and data-handling failures."""


class EstimationError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(EstimationError):
    """Malformed inputs: non-finite values, bad shapes, violated preconditions."""


class CovarianceError(EstimationError):
    """A covariance matrix is singular or cannot be factorized after regularization."""


class DegenerateCovarianceError(CovarianceError):
    """A posterior covariance has a non-positive diagonal entry."""


class NumericalFailureError(EstimationError):
    """A filter update failed numerically (non-positive innovation covariance, Cholesky failure)."""


class SingularityError(EstimationError):
    """A matrix stayed numerically singular through the information recursion."""


class NoFilterError(EstimationError):
    """Every filter was excluded from a switching decision."""


class InsufficientDataError(EstimationError):
    """Too few usable rows to build a contract series."""


class SchemaError(EstimationError):
    """A required column is missing from an input file."""


class FormatError(EstimationError):
    """An input file cannot be parsed."""


class ContractExpiredError(EstimationError):
    """A forecast horizon extends past the contract's expiry."""


class WorkerExitedError(EstimationError):
    """A forked worker exited before it sent its answer."""


# Numerical trouble that degrades a run instead of stopping it: a filter
# holds its prior, a bound carries its J forward.
RECOVERABLE = (NumericalFailureError, CovarianceError, SingularityError)
