"""Exception hierarchy shared across the package."""


class EivError(Exception):
    """Base class for all errors raised by this package."""


class CsvParseError(EivError):
    """A cell in the input file could not be parsed as a number."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class ValidationError(EivError):
    """Input data violates a model requirement (dimensions, replicates, finiteness)."""


class UsageError(ValidationError, ValueError):
    """An argument outside its allowed set or range; also a ValueError."""


class EstimationError(EivError):
    """A linear system or least-squares problem is too ill-conditioned to solve."""


class DegenerateCovarianceError(EivError):
    """A covariance needed for weighting has a zero leading eigenvalue."""


class WeightSolveError(EivError):
    """The quasi-likelihood weight system is singular."""


class DegenerateInputError(EivError):
    """Input with no variation where variation is required (e.g. constant outcomes)."""


class BootstrapInstabilityError(EivError):
    """Too many bootstrap replicates failed to produce a usable gradient."""


class StandardErrorError(EivError):
    """The sandwich covariance for standard errors is singular."""
