"""Measurements on evolved states: spreading, localization, entanglement,
and detection of the ballistic accelerator-mode wavepackets.

Every measurement takes a ``SpinState`` and reads ``|a|^2`` itself.  The
localization fit reads each tail of the profile as one slice, in which
entry d is the site d away from the peak.  A ``ModeReport`` names its
pulse ``pulse``, the key of ``modes.json``, so that file is the reports'
``asdict``.  This module owns the packet geometry built on the advance of
2*pi/b_q sites per period, which ``params.derived_params`` owns as
``hop_distance``: the corridor, the packet margin, ``packet_centers``,
``trackable_pulses``, the heralding window's ``pair_clearance``, and the
pulse window of the decay fit.

Site coordinates here are 1-based, matching the chain convention; fitted
peak positions are real-valued in the same coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InsufficientDataError, NotLocalizedError, PacketsOutOfRangeError
from .params import ChainParams, derived_params
from .state import SpinState, check_sites

# Localization-fit window rules: start 2 sites off-peak, stop at the first
# probability below FIT_FLOOR, never closer than EDGE_MARGIN sites to a chain
# end; demand at least MIN_DECAY_ORDERS decades of decay across the window.
FIT_FLOOR = 1e-8
EDGE_MARGIN = 5
MIN_DECAY_ORDERS = 4.0
RESIDUAL_TOL = 3.0

MODE_WEIGHT_THRESHOLD = 0.02
# A packet reaches PACKET_MARGIN_WIDTHS widths either side of its center:
# its weight is summed over that span, two packets closer than that overlap,
# and a packet needs that much clearance from a chain end.
PACKET_MARGIN_WIDTHS = 3.0
# A packet peak stands well above the median over that span
# (x90 for an isolated Gaussian, x8 or more on the chaotic pedestal);
# interference ripples stay within about x2 of theirs.
MODE_PROMINENCE = 3.0
# Weight beating counts as oscillation only when detrended residuals are
# well above fit noise and flip sign at least this often.
OSC_MIN_RMS = 0.02
OSC_MIN_FLIPS = 0.4
# Transporting packets advance by exactly 2*pi/b_q sites per period; any
# candidate farther than a quarter of one advance from the ballistic
# position (caustics of the free spreading, boundary pile-up) is not one.
CORRIDOR_FRACTION = 0.25
# A fitted packet center may sit at most this many sites from the local
# maximum it was fitted around; farther, the quadratic has latched onto
# something else.
MAX_FIT_SHIFT = 3.0
# The packet-pair decay fit reads the pulses from MODE_DECAY_FIRST_PULSE on
# and needs at least MODE_DECAY_MIN_PULSES of them with detected modes.
MODE_DECAY_FIRST_PULSE = 2
MODE_DECAY_MIN_PULSES = 5


def spread_variance(state: SpinState, s0: int, b_q: float) -> float:
    """Rotor-momentum variance b_q^2 * sum_s P(s) (s - s0)^2 about site s0."""
    if not 1 <= s0 <= state.n_sites:
        raise ValueError(f"s0 must lie in [1, {state.n_sites}], got {s0}")
    probs = np.abs(state.amplitudes) ** 2
    offsets = np.arange(1, state.n_sites + 1, dtype=np.float64) - s0
    return float(b_q * b_q * np.sum(probs * offsets * offsets))


@dataclass(frozen=True)
class LocalizationFit:
    length: float
    intercept: float
    residual: float
    window: tuple[int, int]


def fit_localization_length(state: SpinState, s0: int) -> LocalizationFit:
    """Localization length from the exponential envelope P(s) ~ e^{-2|s-s0|/L}.

    Log-linear regression of ln P against |s - s0| over both tails; the
    window starts 2 sites off-peak and ends where P first drops below
    FIT_FLOOR (capped EDGE_MARGIN sites short of the chain ends).  Raises
    NotLocalizedError when the profile has not decayed at least
    MIN_DECAY_ORDERS decades, the slope is not negative, or the residual
    scatter exceeds RESIDUAL_TOL.
    """
    n = state.n_sites
    if not 1 <= s0 <= n:
        raise ValueError(f"s0 must lie in [1, {n}], got {s0}")
    probs = np.abs(state.amplitudes) ** 2
    peak = float(probs.max())

    # tail[d] is the site d away from s0; a stop past the start would wrap
    # around, so it is clamped at 0.
    offsets: list[np.ndarray] = []
    logs: list[float] = []
    edge_values: list[float] = []
    for tail in (probs[s0 - 1::-1], probs[s0 - 1:]):
        window = tail[2:max(tail.size - EDGE_MARGIN, 0)]
        below = np.flatnonzero(window < FIT_FLOOR)
        window = window[:below[0] if below.size else window.size]
        if window.size:
            offsets.append(np.arange(2, window.size + 2, dtype=np.float64))
            # math.log, not np.log: the two differ in the last bit for some values.
            logs.extend(map(math.log, window.tolist()))
            edge_values.append(float(window[-1]))

    if len(logs) < 8:
        raise NotLocalizedError(
            f"only {len(logs)} usable sites in the fit window; profile too narrow"
        )
    decay = math.log10(peak / max(edge_values))
    if decay < MIN_DECAY_ORDERS:
        raise NotLocalizedError(
            f"profile decays only {decay:.2f} decades across the window "
            f"(need >= {MIN_DECAY_ORDERS})"
        )
    x = np.concatenate(offsets)
    y = np.asarray(logs)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    if slope >= 0.0:
        raise NotLocalizedError(f"envelope does not decay (slope = {slope:.3e})")
    if residual > RESIDUAL_TOL:
        raise NotLocalizedError(
            f"log-profile scatter {residual:.2f} exceeds tolerance {RESIDUAL_TOL}"
        )
    return LocalizationFit(
        length=float(-2.0 / slope),
        intercept=float(intercept),
        residual=residual,
        window=(2, int(x.max())),
    )


def q_measure(state: SpinState) -> float:
    """Global entanglement (4/N) * (1 - sum_k |a_k|^4)."""
    p2 = float(np.sum(np.abs(state.amplitudes) ** 4))
    return 4.0 / state.n_sites * (1.0 - p2)


def ipr(state: SpinState) -> float:
    """Inverse participation ratio 1 / sum_k |a_k|^4."""
    p2 = float(np.sum(np.abs(state.amplitudes) ** 4))
    return 1.0 / p2


def _pair_concurrence(m_i: float, m_j: float) -> float:
    """The one pair formula: concurrence 4 |a_i| |a_j| from the two
    magnitudes.

    Single-excitation convention: a state shared equally over two sites
    gives 2 (this normalization exceeds the usual spin-pair bound of 1).
    """
    return float(4.0 * m_i * m_j)


def concurrence(state: SpinState, i: int, j: int) -> float:
    """Pairwise concurrence 4 |a_i| |a_j| between sites i and j.

    Magnitudes come from np.abs, as in max_concurrence, so the two agree
    bit for bit.
    """
    n = state.n_sites
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"site indices must lie in [1, {n}], got {(i, j)}")
    if i == j:
        raise ValueError("concurrence needs two distinct sites")
    a = state.amplitudes
    return _pair_concurrence(np.abs(a[i - 1]), np.abs(a[j - 1]))


@dataclass(frozen=True)
class ConcurrenceMax:
    l_star: float
    c_star: float


def concurrence_profile_max(d: float) -> ConcurrenceMax:
    """Maximum over L of the concurrence between sites -d and +d of the
    normalized envelope P(s) ~ e^{-2|s|/L} on an unbounded chain.

    The normaliser is sum_s e^{-2|s|/L} = coth(1/L), so the pair value is
    4 tanh(1/L) e^{-2d/L}.  It peaks where sinh(2/L) = 1/d, at
    L* = 2/asinh(1/d), with C* = 4/(d + sqrt(d^2 + 1)) * e^{-2d/L*}
    (continuum limits 2d and 2/(d*e)).  Exact on the lattice for integer d;
    d < 1 is no lattice half-separation and is refused.
    """
    if not (math.isfinite(d) and d >= 1.0):
        raise ValueError(f"site separation d must be finite and >= 1, got {d!r}")
    two_over_l = math.asinh(1.0 / d)
    return ConcurrenceMax(
        l_star=2.0 / two_over_l,
        c_star=4.0 / (d + math.hypot(d, 1.0)) * math.exp(-d * two_over_l),
    )


def max_concurrence(state: SpinState) -> float:
    """Largest pairwise concurrence, from the two largest |a_k|."""
    mags = np.abs(state.amplitudes)
    if mags.size < 2:
        return 0.0
    top = np.partition(mags, mags.size - 2)[-2:]
    return _pair_concurrence(top[0], top[1])


def packet_centers(p: ChainParams, pulse_index: int) -> tuple[float, float]:
    """Ballistic packet centers center -+ 2*pi*j/b_q after ``pulse_index`` pulses.

    Raises ValueError for pulse_index < 1 or b_q = 0, and
    PacketsOutOfRangeError when a center sits closer than
    PACKET_MARGIN_WIDTHS / sqrt(b_q) to a chain end.
    """
    if pulse_index < 1:
        raise ValueError("pulse_index must be >= 1")
    if p.b_q <= 0.0:
        raise ValueError("packet geometry needs b_q > 0")
    hop = derived_params(p).hop_distance
    s_right = p.center + hop * pulse_index
    s_left = p.center - hop * pulse_index
    margin = PACKET_MARGIN_WIDTHS / math.sqrt(p.b_q)
    if s_right + margin > p.n_sites or s_left - margin < 1:
        raise PacketsOutOfRangeError(
            f"packet centers {s_left:.1f}, {s_right:.1f} need {margin:.1f} sites of "
            f"clearance inside [1, {p.n_sites}]"
        )
    return s_left, s_right


def trackable_pulses(p: ChainParams) -> int:
    """Last pulse whose ballistic packets still fit on the chain.

    A packet at pulse j sits 2*pi*j/b_q sites out; past the point where
    that position plus the corridor slack and the packet margin reaches a
    chain end, detection would confuse boundary pile-up with transport, so
    reports stop there.  Without a finite advance (b_q = 0, or so small
    that 2*pi/b_q overflows) no packet travels: 0.
    """
    advance = derived_params(p).hop_distance
    if not math.isfinite(advance):
        return 0
    margin = CORRIDOR_FRACTION * advance + PACKET_MARGIN_WIDTHS / math.sqrt(p.b_q)
    half_extent = min(p.center - 1, p.n_sites - p.center)
    return max(0, int((half_extent - margin) / advance))


def remnant_halfwidth(pulse_index: int, p: ChainParams) -> float:
    """Half-width pi * j / b_q of the central remnant region at pulse j
    (half the expected accelerator-mode displacement)."""
    if pulse_index < 1:
        raise ValueError("pulse_index must be >= 1")
    if p.b_q <= 0.0:
        raise ValueError("remnant geometry needs b_q > 0")
    return math.pi * pulse_index / p.b_q


@dataclass(frozen=True)
class GaussianMode:
    """One fitted wavepacket |psi|^2 ~ amplitude^2 * e^{-2 B (s - position)^2}."""

    position: float
    amplitude: float
    width_parameter: float
    weight: float

    @property
    def width(self) -> float:
        """e-folding half-width of the amplitude profile, 1/sqrt(B)."""
        return 1.0 / math.sqrt(self.width_parameter)


@dataclass(frozen=True)
class ModeReport:
    """Fitted packets at one pulse; remnant_weight is everything not in a mode."""

    pulse: int
    modes: tuple[GaussianMode, ...]
    remnant_weight: float


def _fit_gaussian_peak(probs: np.ndarray, i_peak: int) -> GaussianMode | None:
    """Quadratic fit of ln P over the peak's FWHM window (weighted by P)."""
    n = probs.size
    p_peak = probs[i_peak]
    if p_peak <= 0.0:
        return None
    half = 0.5 * p_peak
    lo = i_peak
    while lo - 1 >= 0 and probs[lo - 1] >= half and i_peak - (lo - 1) <= 8:
        lo -= 1
    hi = i_peak
    while hi + 1 < n and probs[hi + 1] >= half and (hi + 1) - i_peak <= 8:
        hi += 1
    # A quadratic fit needs headroom beyond 3 points: widen to 5, or to the array.
    while hi - lo < 4 and (lo > 0 or hi < n - 1):
        lo, hi = max(lo - 1, 0), min(hi + 1, n - 1)
    window = np.arange(lo, hi + 1)
    vals = probs[window]
    good = vals > 0.0
    if good.sum() < 4:
        return None
    x = window[good].astype(np.float64)
    y = np.log(vals[good])
    # full=True reports a rank-deficient fit instead of warning.
    (c2, c1, c0), *_ = np.polyfit(x, y, 2, w=vals[good], full=True)
    if c2 >= 0.0:
        return None
    center = -c1 / (2.0 * c2)
    if abs(center - i_peak) > MAX_FIT_SHIFT:
        return None
    b_fit = -0.5 * c2
    width = 1.0 / math.sqrt(b_fit)
    peak_log = c0 - c1 * c1 / (4.0 * c2)
    span_lo = max(0, int(math.ceil(center - PACKET_MARGIN_WIDTHS * width)))
    span_hi = min(n - 1, int(math.floor(center + PACKET_MARGIN_WIDTHS * width)))
    span = probs[span_lo:span_hi + 1]  # empty for a center fitted off the chain
    # statistics.median gives np.median's value at a fraction of its call
    # cost; imported here, its ~6 ms import stays off runs that fit no packet.
    import statistics
    if span.size and p_peak < MODE_PROMINENCE * statistics.median(span.tolist()):
        return None  # ripple riding on a pedestal, not a freestanding packet
    weight = float(span.sum())
    return GaussianMode(
        position=center + 1.0,  # 1-based site coordinate
        amplitude=math.sqrt(math.exp(peak_log)),
        width_parameter=b_fit,
        weight=weight,
    )


def detect_accelerator_modes(state: SpinState, pulse_index: int, p: ChainParams) -> ModeReport:
    """Locate ballistic wavepackets outside the central remnant at pulse j.

    Scans each side beyond the remnant half-width for local maxima and
    takes the 12 highest as candidates (largest first).  It fits a Gaussian
    to each candidate that lies within the ballistic corridor around the
    expected centers, center +- 2*pi*j/b_q, widened by the fit's shift
    bound MAX_FIT_SHIFT (plus one site of slack): a fitted center moves at
    most that far from its peak, so a candidate outside it could never be
    accepted and is not fitted.  It sums the probability within
    +-PACKET_MARGIN_WIDTHS fitted widths, and keeps non-overlapping peaks
    whose weight exceeds MODE_WEIGHT_THRESHOLD and whose fitted center
    sits within the corridor.  Finding no such peak is a normal outcome,
    not an error.
    """
    check_sites(state, p.n_sites)
    probs = np.abs(state.amplitudes) ** 2
    b = remnant_halfwidth(pulse_index, p)
    n = p.n_sites
    center0 = p.center - 1  # 0-based
    interior = np.arange(1, n - 1)
    advance = derived_params(p).hop_distance
    corridor = CORRIDOR_FRACTION * advance
    ballistic = advance * pulse_index
    # A fit moves its center at most MAX_FIT_SHIFT sites from the peak, so a
    # peak farther than this from the ballistic position cannot be accepted.
    reach = corridor + MAX_FIT_SHIFT + 1.0

    accepted: list[GaussianMode] = []
    for side in (-1, +1):
        region = interior[(interior - center0) * side > b]
        if region.size < 3:
            continue
        local_max = region[(probs[region] >= probs[region - 1]) & (probs[region] >= probs[region + 1])]
        order = local_max[np.argsort(probs[local_max])[::-1][:12]]
        order = order[np.abs(np.abs(order - center0) - ballistic) <= reach]
        for i_peak in order:
            mode = _fit_gaussian_peak(probs, int(i_peak))
            if mode is None or mode.weight <= MODE_WEIGHT_THRESHOLD:
                continue
            if abs(abs(mode.position - p.center) - ballistic) > corridor:
                continue
            if any(abs(mode.position - m.position) <= PACKET_MARGIN_WIDTHS * (mode.width + m.width)
                   for m in accepted):
                continue
            accepted.append(mode)

    accepted.sort(key=lambda m: m.position)
    # everything not captured by a fitted packet counts as remnant, so the
    # report always partitions total probability
    remnant = 1.0 - sum(m.weight for m in accepted)
    return ModeReport(pulse=pulse_index, modes=tuple(accepted), remnant_weight=remnant)


def pair_clearance(report: ModeReport, p: ChainParams) -> float:
    """Half-width of the heralding window: the sites from the chain center
    to PACKET_MARGIN_WIDTHS fitted widths inside the nearest packet of
    ``report``.  With no packet, or at most one site of clearance, the
    remnant half-width pi * j / b_q at the report's pulse."""
    b = min((abs(m.position - p.center) - PACKET_MARGIN_WIDTHS * m.width for m in report.modes),
            default=0.0)
    if b <= 1.0:
        b = remnant_halfwidth(report.pulse, p)
    return b


@dataclass(frozen=True)
class ModeDecayFit:
    rate: float
    oscillatory: bool
    residual: float


def mode_decay(reports: Iterable[ModeReport]) -> ModeDecayFit:
    """Exponential fit of packet-pair weight versus pulse index.

    Tracks the two heaviest fitted packets per pulse (the counter-propagating
    pair, immune to transient fringe detections), with weight(j) ~ e^{-rate*j},
    over the reports from pulse MODE_DECAY_FIRST_PULSE on.
    ``oscillatory`` is set when the residuals of the log-linear fit beat
    around the trend instead of scattering (their signs alternate and their
    size is well above numerical noise).
    """
    # A report without modes sums to 0, so it drops out with the zero weights.
    pts = [
        (r.pulse, w) for r in reports
        if r.pulse >= MODE_DECAY_FIRST_PULSE
        and (w := sum(sorted((m.weight for m in r.modes), reverse=True)[:2])) > 0.0
    ]
    if len(pts) < MODE_DECAY_MIN_PULSES:
        raise InsufficientDataError(f"mode-decay fit needs >= {MODE_DECAY_MIN_PULSES} pulses "
                                    f"with detected modes, found {len(pts)}")
    x = np.array([q[0] for q in pts], dtype=np.float64)
    y = np.log(np.array([q[1] for q in pts], dtype=np.float64))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    # Beating shows up as sign-alternating residuals around the local trend;
    # detrend with a quadratic first so a slowly drifting decay rate (a
    # convex log-series) does not mask or mimic it.
    around_trend = y - np.polyval(np.polyfit(x, y, 2), x)
    osc_rms = float(np.sqrt(np.mean(around_trend**2)))
    signs = np.sign(around_trend[np.abs(around_trend) > 1e-12])
    flip_fraction = (
        float(np.sum(signs[1:] != signs[:-1])) / (signs.size - 1)
        if signs.size > 1 else 0.0
    )
    oscillatory = bool(osc_rms >= OSC_MIN_RMS and flip_fraction >= OSC_MIN_FLIPS)
    return ModeDecayFit(rate=-float(slope), oscillatory=oscillatory, residual=rms)
