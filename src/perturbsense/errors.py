"""Exception types raised across the package."""

from __future__ import annotations

__all__ = [
    "PerturbSenseError",
    "HermiticityError",
    "DimensionMismatchError",
    "EigensolverError",
    "QuadratureError",
    "DegeneracyError",
    "ZeroCorrectionError",
    "ParallelCorrectionsError",
    "SingularQfimError",
    "FiniteDifferenceError",
    "FiniteDifferenceStepError",
    "LevelTrackingError",
]


class PerturbSenseError(Exception):
    """Base class for every error raised by this package."""


class HermiticityError(PerturbSenseError, ValueError):
    """A matrix failed the Hermiticity check at construction."""


class DimensionMismatchError(PerturbSenseError, ValueError):
    """Operands act on Hilbert spaces of different dimensions."""


class EigensolverError(PerturbSenseError):
    """The dense eigensolver failed to converge or violated its postconditions."""


class QuadratureError(PerturbSenseError):
    """A quadrature integrand produced a non-finite sample."""


class DegeneracyError(PerturbSenseError):
    """A perturbation couples the reference level to a degenerate level.

    First-order corrections are undefined in that case; degenerate
    perturbation theory is deliberately not implemented.
    """


class ZeroCorrectionError(PerturbSenseError):
    """An operation required a normalized correction direction but N = 0."""


class ParallelCorrectionsError(PerturbSenseError):
    """Two correction directions coincide up to a phase.

    Their span is one-dimensional, so the two-parameter angle
    decomposition does not exist.  This is the signature of an
    under-dimensioned probe encoding both parameters in one state.
    """


class SingularQfimError(PerturbSenseError):
    """The quantum Fisher information matrix is singular.

    The parameters are not jointly identifiable; ``rank`` carries the
    numerical rank of the matrix.
    """

    def __init__(self, message: str, rank: int | None = None):
        super().__init__(message)
        self.rank = rank


class FiniteDifferenceError(PerturbSenseError):
    """A finite-difference estimate failed its internal consistency check."""


class FiniteDifferenceStepError(PerturbSenseError, ValueError):
    """A finite-difference step is not positive and finite, or too small to move the couplings."""


class LevelTrackingError(PerturbSenseError):
    """Eigenlevel continuity could not be resolved along the coupling path."""
