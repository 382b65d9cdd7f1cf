"""Exception types shared across the package."""

__all__ = [
    "MinEnergyError",
    "NotSymmetricError",
    "NotPSDError",
    "PreconditionError",
    "UnstableSystemError",
    "StiffnessError",
    "NonFiniteError",
    "ReachabilityError",
    "NotInSpaceError",
    "MarginError",
    "MeshResolutionError",
    "ScenarioError",
]


class MinEnergyError(Exception):
    """Base class for all package-specific errors."""


class NotSymmetricError(MinEnergyError, ValueError):
    """Matrix expected to be symmetric is not, beyond tolerance."""


class NotPSDError(MinEnergyError, ValueError):
    """Symmetric matrix has an eigenvalue too negative to be attributable to roundoff."""


class PreconditionError(MinEnergyError, ValueError):
    """An operation's mathematical precondition was violated by the inputs."""


class UnstableSystemError(MinEnergyError, ValueError):
    """Operation requires a uniformly exponentially stable system (decay margin > 0)."""


class StiffnessError(MinEnergyError, RuntimeError):
    """Step-size control underflowed; the system is too stiff for the requested tolerance."""


class NonFiniteError(MinEnergyError, ArithmeticError):
    """A computed quantity left the double-precision range (overflow or NaN)."""


class ReachabilityError(MinEnergyError, ValueError):
    """Target is not reachable (not in the required Gramian range).

    Carries the distance from the target to the reachable subspace in
    ``defect``.
    """

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class NotInSpaceError(MinEnergyError, ValueError):
    """Vector lies outside the Gramian-weighted state space; carries the defect."""

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class MarginError(MinEnergyError, ValueError):
    """Requested time is at or below the invertibility threshold of an operator family."""


class MeshResolutionError(MinEnergyError, ValueError):
    """Discretization mesh is too coarse for the requested computation."""


class ScenarioError(MinEnergyError, ValueError):
    """A scenario the CLI cannot run: a field missing, unknown, or of the wrong
    type, range or shape; the message names the field."""
