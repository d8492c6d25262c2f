"""Exception and warning types shared across the package, and how their
messages show a value."""

import math
import sys


def shown(value) -> str:
    """``repr(value)`` for a message; an int past the float range is named
    by its digit count, so the message stays short (and one line past
    ``sys.get_int_max_str_digits()``, where ``repr`` fails)."""
    if not isinstance(value, int) or abs(value) <= sys.float_info.max:
        return repr(value)
    size = abs(value)
    digits = int((size.bit_length() - 1) * math.log10(2.0)) + 1
    digits += size >= 10**digits
    return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"


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
    """Ideal packets would fall too close to the chain boundary, or too
    narrow between sites to normalize."""


class WeakChaosWarning(UserWarning):
    """Kick strength is below the regime where the diffusion estimate is reliable."""


class EmptyBranchWarning(UserWarning):
    """A measurement branch has (numerically) zero probability."""
