"""Heralded generation of a two-packet superposition by a central measurement.

After j driving periods the state is a chaotic central remnant plus a pair
of counter-propagating accelerator-mode packets.  Projectively measuring
the central region heralds the pair: the branch where the excitation is
absent (probability roughly the weight carried by the packets) is close to
an equal superposition of two Gaussians at center +- 2*pi*j/b_q, and it is
the only branch ``central_measurement`` returns.  The packet geometry
(centers, margins, detection, the window's half-width) comes from
``observables``; this module measures and grades.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chain import evolve, make_context
from .errors import EmptyBranchWarning, PacketsOutOfRangeError
from .observables import (detect_accelerator_modes, packet_centers, pair_clearance,
                          trackable_pulses)
from .params import ChainParams
from .state import SpinState, site_state

# Branch probabilities below this cannot be renormalized meaningfully.
EMPTY_BRANCH_EPS = 1e-12
# A packet norm below this has a subnormal square.
_MIN_NORM = math.sqrt(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class MeasurementOutcome:
    """The heralded branch of the central measurement: excitation absent.

    ``probability`` is the weight outside the window; the other branch,
    excitation found, has probability one minus it.  ``post_state`` is the
    renormalized projection onto the sites outside the window, or None when
    the branch carries no probability.
    """

    probability: float
    post_state: SpinState | None


def central_measurement(state: SpinState, window: tuple[int, int]) -> MeasurementOutcome:
    """Measure "excitation inside the window" and keep the absent branch.

    ``window`` is an inclusive 1-based site range.  With no probability
    outside it, post_state is None and an EmptyBranchWarning is raised.
    """
    lo, hi = window
    n = state.n_sites
    if not (1 <= lo <= hi <= n):
        raise ValueError(f"window must satisfy 1 <= lo <= hi <= {n}, got {window!r}")
    outside = state.amplitudes.copy()
    outside[lo - 1:hi] = 0.0
    prob = float(np.sum(np.abs(outside) ** 2))
    if prob <= EMPTY_BRANCH_EPS:
        warnings.warn("the excitation-absent branch carries no probability",
                      EmptyBranchWarning, stacklevel=2)
        return MeasurementOutcome(probability=prob, post_state=None)
    return MeasurementOutcome(probability=prob, post_state=SpinState(outside / math.sqrt(prob)))


def _packet(p: ChainParams, center: float) -> np.ndarray:
    # The normalized accelerator-mode amplitude profile e^{-b_q (s - center)^2}.
    sites = np.arange(1, p.n_sites + 1, dtype=np.float64)
    g = np.exp(-p.b_q * (sites - center) ** 2)
    norm = np.linalg.norm(g)
    # At large b_q a centre between sites leaves the squares below the normal
    # float range, so the norm is 0 or inexact.
    if norm < _MIN_NORM:
        raise PacketsOutOfRangeError(
            f"the reference packet e^(-b_q (s - {center:.2f})^2) cannot be normalized: "
            "its squares are below the float range on every site"
        )
    return g / norm


def measurement_window(p: ChainParams, state: SpinState, pulse_index: int) -> tuple[int, int]:
    """Central region to measure: everything short of the traveling packets.

    The window reaches ``pair_clearance`` sites either side of the chain
    center, stopping short of the packets located by
    detect_accelerator_modes, so the excitation-absent branch keeps the
    packets and nothing else.  A fixed boundary at pi * j / b_q (half the
    expected packet displacement) would strand the slower diffusive tail of
    the remnant outside the measured region and overstate the success
    probability, so it is only the fallback when no packets are detected.
    """
    b = pair_clearance(detect_accelerator_modes(state, pulse_index, p), p)
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

    valid because the two Gaussians have negligible overlap.  A pulse past
    ``trackable_pulses`` (packets in boundary pile-up) or a pair that
    cannot be normalized raises PacketsOutOfRangeError before evolving.
    """
    s_left, s_right = packet_centers(p, n_pulses)
    if n_pulses > (last := trackable_pulses(p)):
        raise PacketsOutOfRangeError(f"pulse {n_pulses} is past the last trackable pulse, {last}")
    g_left, g_right = _packet(p, s_left), _packet(p, s_right)
    traj = evolve(site_state(p.n_sites, p.center), make_context(p), n_pulses,
                  record_every=n_pulses)
    final = traj.final
    window = measurement_window(p, final, n_pulses)
    absent = central_measurement(final, window)
    fidelity = left_weight = right_weight = 0.0
    if absent.post_state is not None:
        post = absent.post_state.amplitudes
        c_left = abs(np.vdot(g_left, post))
        c_right = abs(np.vdot(g_right, post))
        fidelity = float(0.5 * (c_left + c_right) ** 2)
        probs = np.abs(post) ** 2
        left_weight = float(probs[: p.center - 1].sum())
        right_weight = float(probs[p.center:].sum())
    return ProtocolReport(
        success_probability=absent.probability,
        fidelity=fidelity,
        left_weight=left_weight,
        right_weight=right_weight,
    )
