"""Single-excitation states on the chain.

A state is a normalized complex amplitude vector; entry k is the amplitude
for the excitation sitting on site k+1 (sites are numbered from 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

# Construction tolerance on |sum |a|^2 - 1|.  Unitary steps preserve the norm
# to machine precision, so drift stays far below this even over long runs.
NORM_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class SpinState:
    """Normalized amplitude vector over chain sites (read-only)."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("amplitudes must be a nonempty 1-D vector")
        # One pass: a NaN or infinite amplitude makes the norm non-finite,
        # and only then is the slower test needed to pick the message.
        norm_sq = float(np.vdot(arr, arr).real)
        if not math.isfinite(norm_sq) and not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: sum |a|^2 = {norm_sq!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def n_sites(self) -> int:
        return self.amplitudes.size

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def check_sites(state: SpinState, n_sites: int) -> None:
    """Raise DimensionMismatchError unless ``state`` has ``n_sites`` sites."""
    if state.n_sites != n_sites:
        raise DimensionMismatchError(
            f"state has {state.n_sites} sites but params have {n_sites}"
        )


def site_state(n_sites: int, site: int) -> SpinState:
    """Excitation perfectly localized on one site (1-based index)."""
    if not 1 <= site <= n_sites:
        raise ValueError(f"site must lie in [1, {n_sites}], got {site}")
    amps = np.zeros(n_sites, dtype=np.complex128)
    amps[site - 1] = 1.0
    return SpinState(amps)
