"""Exception hierarchy for adaridge.

Every error raised by the library derives from :class:`AdaRidgeError` so
callers can catch the whole family with one clause.  Names mirror the
failure they report; most carry a short human-readable message and, where
useful, the offending index.
"""


class AdaRidgeError(Exception):
    """Base class for all adaridge errors."""


class DimensionMismatch(AdaRidgeError):
    """Array shapes do not agree."""


class NonFiniteInput(AdaRidgeError):
    """An input array contains NaN or infinity."""


class ZeroNormColumn(AdaRidgeError):
    """A predictor column has zero Euclidean norm and cannot be scaled."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"predictor column {column} has zero norm")


class NonPositiveSigma2(AdaRidgeError):
    """A noise variance that must be strictly positive is not."""


class SingularSystem(AdaRidgeError):
    """A linear system that should be positive definite is singular."""


class ExactFit(AdaRidgeError):
    """The solver encountered a perfect interpolation and cannot continue."""


class NoInitializer(AdaRidgeError):
    """The solvers' start (``Dataset.initial_beta``) is unavailable: the
    ridge fallback's ``X'X`` is singular, or the start is not finite."""


class NonInteriorMode(AdaRidgeError):
    """No interior mode to report: the curvature matrix there is not
    positive definite, or Newton's method cannot reach the mode."""


class NonFiniteEvidence(AdaRidgeError):
    """An evidence computation produced NaN or infinity."""


class EmptyBox(AdaRidgeError):
    """The sampling hypercube has no volume."""


class EmptyInput(AdaRidgeError):
    """An operation that needs at least one value received none."""


class RankDeficient(AdaRidgeError):
    """The design matrix does not have full column rank."""
