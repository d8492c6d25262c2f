"""Exception and warning types shared across the package."""


class KickedChainError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(KickedChainError):
    """A dense matrix was requested above the configured size cap."""


class MemoryBudgetError(KickedChainError):
    """Recording the requested snapshots would exceed the memory budget."""


class DimensionMismatchError(KickedChainError):
    """State, parameter, or matrix dimensions do not agree."""


class ConfigError(KickedChainError):
    """Configuration text is malformed, has unknown keys, or is out of range."""


class NotLocalizedError(KickedChainError):
    """A distribution failed the localization-fit preconditions or quality gates."""


class InsufficientDataError(KickedChainError):
    """Too few data points for the requested fit."""


class PacketsOutOfRangeError(KickedChainError):
    """Ideal packet centers would fall too close to the chain boundary."""


class QuadratureConvergenceError(KickedChainError):
    """Numerical quadrature failed its self-consistency (refinement) check."""


class WeakChaosWarning(UserWarning):
    """Kick strength is below the regime where the diffusion estimate is reliable."""


class EmptyBranchWarning(UserWarning):
    """A measurement branch has (numerically) zero probability."""
