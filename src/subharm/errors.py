"""Exception hierarchy.

Three top-level families map onto CLI exit codes: ConfigError (2),
DataError (3), NumericalError (4).
"""


class SubharmError(Exception):
    """Base class for all package errors."""


class ConfigError(SubharmError):
    """Invalid configuration, flags, or scenario specification."""


class DataError(SubharmError):
    """Invalid or insufficient input data."""


class NumericalError(SubharmError):
    """Numerical failure during estimation."""


# --- data errors -----------------------------------------------------------

class MalformedRow(DataError):
    """A CSV cell could not be parsed, or a record field is invalid."""


class EcTreatedPatient(DataError):
    """An external-control record carries treatment = 1."""


class UnknownSubgroup(DataError):
    """A subgroup label outside the declared set of levels."""


class DimensionMismatch(DataError):
    """Ragged covariate vectors or mismatched covariate dimension."""


class EmptySubgroupError(DataError):
    """A subgroup has no control patients, so Q is undefined."""


class EmptyArm(DataError):
    """A required trial arm has no patients."""


class EmptySubgroupArm(DataError):
    """A required subgroup-by-arm cell has no patients."""


class PoolTooSmall(DataError):
    """A resampling pool is empty or lacks required subgroups."""


class InsufficientData(DataError):
    """Too few observations to estimate a variance."""


class MissingCovariance(DataError):
    """An estimate lacks the covariance required by the operation."""


class InvalidDesign(DataError):
    """Design counts violate the preconditions of an analytic formula."""


class InconsistentDimensions(DataError):
    """Inputs disagree on the number of subgroups."""


# --- config errors ---------------------------------------------------------

class InvalidSpec(ConfigError):
    """A scenario specification fails validation."""


class InvalidEffect(ConfigError):
    """A spike-in effect is negative, has the wrong length, or would push a
    response rate above 1."""


# --- numerical errors ------------------------------------------------------

class RankDeficient(NumericalError):
    """Design matrix is numerically rank deficient."""


class SeparationDetected(NumericalError):
    """Logistic fit diverged; data are (quasi-)separated."""


class NotConverged(NumericalError):
    """Iterative fit failed to reach the score tolerance."""


class SingularSigma(NumericalError):
    """Harmonization matrix is singular or not positive definite."""


class DegenerateDirection(NumericalError):
    """Bias direction is orthogonal to the prevalences; no PD matrix exists."""


class NegativeVariance(NumericalError):
    """A variance entry is negative."""


class SingularPrior(NumericalError):
    """Prior covariance is singular."""


class SingularPosterior(NumericalError):
    """Posterior covariance is singular."""


class ReplicateFailure(NumericalError):
    """A bootstrap draw failed; `replicate` is the draw's index, not the
    Monte-Carlo replicate's, which the failure record carries."""

    def __init__(self, replicate: int, message: str):
        super().__init__(f"bootstrap draw {replicate}: {message}")
        self.replicate = replicate
        self.message = message

    def __reduce__(self):  # the default rebuilds from the formatted message alone
        return type(self), (self.replicate, self.message)
