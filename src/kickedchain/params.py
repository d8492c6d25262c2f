"""Chain parameters and the dimensionless quantities derived from them.

The model is a spin chain restricted to its single-excitation sector,
evolving under free exchange hopping for one period and then receiving an
instantaneous parabolic phase kick centered on one site.  Two numbers fix
the physics:

    beta  -- integrated hopping phase per period (2*J*T0),
    b_q   -- curvature of the parabolic kick phase.

Their product K_s = beta * b_q is the stochasticity parameter of the
equivalent kicked rotor, with b_q playing the role of the effective
Planck constant.  ``derived_params`` owns every number implied by them:
alpha = K_s/2*pi and its accelerator-mode window, the advance of 2*pi/b_q
sites per period, the localization length, the break time, and the
period-1 accelerator mode's geometry.  One period is the map
n' = n + beta sin k (the hop), k' = k - b_q n' (the kick): with P = -b_q n
it is the standard map with kick -K_s, whose period-1 mode sits at
sin k* = 1/alpha with monodromy [[1 - K_s cos k*, 1], [-K_s cos k*, 1]]
(Fishman, Guarneri & Rebuzzini, PRL 89, 084101, 2002).  The chain
is always open; the ring that matches the rotor exactly is the circulant
of ``chain.ring_taps(n_sites, beta)``, which ``validate`` holds to the
Bessel column ``qkr.ring_kick_column``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import shown

# Past 2**53 a float phase has no digit left below 2*pi.
MAX_PHASE = 2.0**53
# Past 2**53 sites a float64 site offset is no longer exact.
MAX_SITES = 2**53
# Stable first-order accelerator modes exist for alpha = K/2pi in this window
# (inclusive); outside it the kicked dynamics has no ballistic island pair.
ACCEL_ALPHA_MIN = 1.03
ACCEL_ALPHA_MAX = 1.10
# The period-1 mode is linearly stable, |monodromy trace| <= 2, for alpha in
# this window: the trace 2 - 2*pi*sqrt(alpha**2 - 1) runs from 2 to -2.
STABLE_ALPHA_MIN = 1.0
STABLE_ALPHA_MAX = math.sqrt(1.0 + 4.0 / math.pi**2)


@dataclass(frozen=True)
class ChainParams:
    """Static description of one chain-plus-kick configuration.

    Sites are numbered 1..n_sites along an open chain; ``center`` is the
    site the parabolic kick is centered on.
    """

    n_sites: int
    center: int
    beta: float
    b_q: float

    def __post_init__(self) -> None:
        # Compared exactly, so a chain too long for float(reach)**2 below is
        # refused here rather than overflowing.
        if not isinstance(self.n_sites, int) or not 2 <= self.n_sites <= MAX_SITES:
            raise ValueError(f"n_sites must be an integer in [2, 2**53], got {shown(self.n_sites)}")
        if not isinstance(self.center, int) or not 1 <= self.center <= self.n_sites:
            raise ValueError(
                f"center must be an integer in [1, {shown(self.n_sites)}], "
                f"got {shown(self.center)}"
            )
        for name in ("beta", "b_q"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {shown(value)}")
            # Compared exactly, so an int past the float range is refused
            # here rather than overflowing in float arithmetic.
            if not 0.0 <= value <= sys.float_info.max:
                raise ValueError(f"{name} must be finite and nonnegative, got {shown(value)}")
        # The largest per-period phases, the hop's 2*beta and the kick's at
        # the far end of the chain, must be finite and at most MAX_PHASE.
        # The values show as floats, so an int in the float range is short.
        reach = max(self.center - 1, self.n_sites - self.center)
        for phase, what in (
            (2.0 * self.beta, f"beta={float(self.beta)!r} makes the hop phase 2*beta"),
            (0.5 * self.b_q * float(reach) ** 2,
             f"b_q={float(self.b_q)!r} makes the kick phase (b_q/2)*{reach}**2 "
             "at the chain's far end"),
        ):
            if not phase <= MAX_PHASE:
                raise ValueError(
                    f"{what} = {phase:.3g}, not finite or above 2**53 (no digit of "
                    "it mod 2*pi survives)"
                )


@dataclass(frozen=True)
class DerivedParams:
    """Dimensionless parameters implied by a ChainParams value.

    k_s                 -- rotor stochasticity parameter beta * b_q
    hbar_eff            -- effective Planck constant (= b_q)
    alpha               -- k_s / 2*pi, the accelerator-mode tuning parameter
    hop_distance        -- per-period site advance of an accelerator mode, 2*pi/b_q
    localization_length -- predicted dynamical-localization length beta**2 / 4
    break_time          -- periods until quantum spreading saturates, beta**2
    k_star              -- the period-1 mode's momentum arcsin(1/alpha), rad/site
    monodromy_trace     -- trace of its monodromy, 2 - 2*pi*alpha*cos(k_star)
    rotation            -- its rotation per period, arccos(trace/2)

    k_star is NaN for alpha < 1 (no such mode), and so is the trace;
    rotation is NaN where |trace| > 2, i.e. outside the stability window
    [STABLE_ALPHA_MIN, STABLE_ALPHA_MAX].
    """

    k_s: float
    hbar_eff: float
    alpha: float
    hop_distance: float
    localization_length: float
    break_time: float
    k_star: float
    monodromy_trace: float
    rotation: float

    @property
    def in_accelerator_window(self) -> bool:
        """Whether alpha lies in [ACCEL_ALPHA_MIN, ACCEL_ALPHA_MAX]."""
        return ACCEL_ALPHA_MIN <= self.alpha <= ACCEL_ALPHA_MAX


def derived_params(p: ChainParams) -> DerivedParams:
    """Compute every derived dimensionless parameter for ``p``.

    Total on valid inputs; b_q = 0 gives an infinite hop distance, and the
    mode geometry is NaN where it is undefined.
    """
    k_s = p.beta * p.b_q
    hop = 2.0 * math.pi / p.b_q if p.b_q > 0.0 else math.inf
    alpha = k_s / (2.0 * math.pi)
    k_star = math.asin(1.0 / alpha) if alpha >= 1.0 else math.nan
    trace = 2.0 - 2.0 * math.pi * alpha * math.cos(k_star)
    rotation = math.acos(trace / 2.0) if abs(trace) <= 2.0 else math.nan
    return DerivedParams(
        k_s=k_s,
        hbar_eff=p.b_q,
        alpha=alpha,
        hop_distance=hop,
        localization_length=p.beta**2 / 4.0,
        break_time=p.beta**2,
        k_star=k_star,
        monodromy_trace=trace,
        rotation=rotation,
    )
