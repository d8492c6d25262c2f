"""Heralded generation of a two-packet superposition by a central measurement.

After j driving periods the state is a chaotic central remnant plus a pair
of counter-propagating accelerator-mode packets.  Projectively measuring
the central region and finding the excitation absent (probability roughly
the weight carried by the packets) leaves a renormalized state close to an
equal superposition of two Gaussians at center +- 2*pi*j/b_q.  The packet
geometry (centers, margins, detection) comes from ``observables``; this
module measures and grades.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chain import evolve, make_context
from .errors import EmptyBranchWarning
from .observables import (
    PACKET_MARGIN_WIDTHS,
    detect_accelerator_modes,
    packet_centers,
    remnant_halfwidth,
)
from .params import ChainParams
from .state import SpinState, site_state

# Branch probabilities below this cannot be renormalized meaningfully.
EMPTY_BRANCH_EPS = 1e-12


@dataclass(frozen=True)
class MeasurementOutcome:
    """One branch of the two-outcome central measurement.

    ``success`` identifies the branch: True means the excitation was NOT
    found inside the window.  ``post_state`` is the renormalized projection
    onto the branch's site set, or None when the branch carries no
    probability.
    """

    success: bool
    probability: float
    post_state: SpinState | None


def _branch(flag: bool, amps: np.ndarray) -> MeasurementOutcome:
    prob = float(np.sum(np.abs(amps) ** 2))
    if prob <= EMPTY_BRANCH_EPS:
        warnings.warn(
            f"measurement branch (success={flag}) carries no probability",
            EmptyBranchWarning,
            stacklevel=3,
        )
        return MeasurementOutcome(success=flag, probability=prob, post_state=None)
    return MeasurementOutcome(
        success=flag,
        probability=prob,
        post_state=SpinState(amps / math.sqrt(prob)),
    )


def central_measurement(
    state: SpinState, window: tuple[int, int]
) -> tuple[MeasurementOutcome, MeasurementOutcome]:
    """Yes/no measurement of "excitation inside the window", both branches.

    ``window`` is an inclusive 1-based site range.  Returns the
    excitation-absent branch first, then the excitation-found branch; the
    two probabilities sum to one and the post states live on complementary
    site sets.  A branch with no probability gets post_state None and an
    EmptyBranchWarning.
    """
    lo, hi = window
    n = state.n_sites
    if not (1 <= lo <= hi <= n):
        raise ValueError(f"window must satisfy 1 <= lo <= hi <= {n}, got {window!r}")
    outside = state.amplitudes.copy()
    outside[lo - 1:hi] = 0.0
    inside = state.amplitudes - outside
    return _branch(True, outside), _branch(False, inside)


def _packet(p: ChainParams, center: float) -> np.ndarray:
    # The normalized accelerator-mode amplitude profile e^{-b_q (s - center)^2}.
    sites = np.arange(1, p.n_sites + 1, dtype=np.float64)
    g = np.exp(-p.b_q * (sites - center) ** 2)
    return g / np.linalg.norm(g)


def measurement_window(p: ChainParams, state: SpinState, pulse_index: int) -> tuple[int, int]:
    """Central region to measure: everything short of the traveling packets.

    The window runs from the chain center out to PACKET_MARGIN_WIDTHS fitted
    widths inside the packets located by detect_accelerator_modes, so the excitation-absent
    branch keeps the packets and nothing else.  A fixed boundary at
    pi * j / b_q (half the expected packet displacement) would strand the
    slower diffusive tail of the remnant outside the measured region and
    overstate the success probability.  When no packets are detected the
    fixed boundary is the fallback.
    """
    report = detect_accelerator_modes(state, pulse_index, p)
    b = 0.0
    if report.modes:
        b = min(abs(m.position - p.center) - PACKET_MARGIN_WIDTHS * m.width for m in report.modes)
    if b <= 1.0:
        b = remnant_halfwidth(pulse_index, p)
    lo = max(1, int(math.ceil(p.center - b)))
    hi = min(p.n_sites, int(math.floor(p.center + b)))
    return lo, hi


@dataclass(frozen=True)
class ProtocolReport:
    """Outcome summary: branch probability, packet fidelity, side weights."""

    success_probability: float
    fidelity: float
    left_weight: float
    right_weight: float


def run_protocol(p: ChainParams, n_pulses: int) -> ProtocolReport:
    """Drive, measure the central region, and grade the heralded state.

    The reference pair is two normalized accelerator-mode Gaussians
    g_j = e^{-b_q (s - s_j)^2} at the ``packet_centers``; fidelity against
    their equal-weight superposition is maximized analytically over the one
    free relative phase:

        F = (|<g_left|post>| + |<g_right|post>|)^2 / 2,

    valid because the two Gaussians have negligible overlap.
    """
    s_left, s_right = packet_centers(p, n_pulses)
    traj = evolve(site_state(p.n_sites, p.center), make_context(p), n_pulses,
                  record_every=n_pulses)
    final = traj.final
    window = measurement_window(p, final, n_pulses)
    absent, _found = central_measurement(final, window)
    if absent.post_state is None:
        return ProtocolReport(
            success_probability=absent.probability,
            fidelity=0.0,
            left_weight=0.0,
            right_weight=0.0,
        )
    post = absent.post_state.amplitudes
    g_left = _packet(p, s_left)
    g_right = _packet(p, s_right)
    c_left = abs(np.vdot(g_left, post))
    c_right = abs(np.vdot(g_right, post))
    fidelity = 0.5 * (c_left + c_right) ** 2
    probs = np.abs(post) ** 2
    left_weight = float(probs[: p.center - 1].sum())
    right_weight = float(probs[p.center:].sum())
    return ProtocolReport(
        success_probability=absent.probability,
        fidelity=float(fidelity),
        left_weight=left_weight,
        right_weight=right_weight,
    )
