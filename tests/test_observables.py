import dataclasses
import math
import warnings

import numpy as np
import pytest

from kickedchain import (
    ChainParams,
    GaussianMode,
    ModeReport,
    SpinState,
    concurrence,
    concurrence_profile_max,
    detect_accelerator_modes,
    fit_localization_length,
    ipr,
    max_concurrence,
    mode_decay,
    observables,
    pair_clearance,
    parse_config,
    q_measure,
    remnant_halfwidth,
    site_state,
    spread_variance,
)
from kickedchain.observables import EDGE_MARGIN, FIT_FLOOR, MIN_DECAY_ORDERS, RESIDUAL_TOL
from kickedchain.errors import (
    DimensionMismatchError,
    InsufficientDataError,
    NotLocalizedError,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402


# Real or imaginary part of an amplitude: a few exact values make ties in
# magnitude common, including ties for the largest.
_component = st.one_of(st.sampled_from((0.0, 1.0, -1.0, 0.5, 2.0)), st.floats(-1.0, 1.0))


def normalized_state(weights: np.ndarray) -> SpinState:
    amps = np.sqrt(weights / weights.sum()).astype(complex)
    return SpinState(amps)


class TestDistribution:
    def test_sums_to_one(self, make_random_state):
        probs = np.abs(make_random_state(50).amplitudes) ** 2
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_spread_variance_by_hand(self):
        state = normalized_state(np.array([0.25, 0.5, 0.25]))
        # offsets -1, 0, 1 about site 2: variance 0.5 in site units
        assert spread_variance(state, 2, 0.1) == pytest.approx(0.5 * 0.01)

    def test_spread_variance_bounds(self):
        state = normalized_state(np.array([1.0]))
        with pytest.raises(ValueError):
            spread_variance(state, 2, 0.1)

    def test_measures_accept_any_valid_state(self):
        # SpinState admits a norm off by up to NORM_TOL; the measurements
        # must take every state it admits, not re-check a tighter sum.
        n, s0 = 1401, 701
        weights = np.exp(-2.0 * np.abs(np.arange(1, n + 1) - s0) / 20.0)
        amps = np.sqrt(weights / weights.sum() * (1.0 + 1e-8)).astype(complex)
        state = SpinState(amps)
        assert abs(state.norm_sq() - 1.0) > 1e-10
        assert spread_variance(state, s0, 0.1) > 0.0
        assert fit_localization_length(state, s0).length == pytest.approx(20.0, rel=0.01)


def exponential_state(n: int, s0: int, length: float) -> SpinState:
    return normalized_state(np.exp(-2.0 * np.abs(np.arange(1, n + 1) - s0) / length))


@st.composite
def localization_cases(draw):
    """A noisy exponential profile with runs of zeros and of values below
    FIT_FLOOR at random depths, and a peak site anywhere on the chain,
    often within EDGE_MARGIN + 2 of an end."""
    n = draw(st.integers(2, 200))
    near_end = EDGE_MARGIN + 2
    s0 = draw(st.one_of(st.integers(1, min(n, near_end)),
                        st.integers(max(1, n - near_end + 1), n),
                        st.integers(1, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = draw(st.floats(0.0, 4.0))
    weights = exponential_state(n, s0, draw(st.floats(0.5, 40.0))).amplitudes.real ** 2
    weights *= np.exp(noise * rng.standard_normal(n))
    for _ in range(draw(st.integers(0, 3))):
        lo = draw(st.integers(0, n - 1))
        stop = draw(st.integers(lo + 1, min(n, lo + 6)))
        weights[lo:stop] = draw(st.sampled_from((0.0, 1e-12, 1e-9, 1e-8)))
    assume(weights.sum() > 0.0)
    return normalized_state(weights), s0


def fit_by_site_walk(state: SpinState, s0: int) -> observables.LocalizationFit:
    """The localization fit with its window found by walking each tail site
    by site: the reference the sliced window must reproduce bit for bit."""
    n = state.n_sites
    probs = np.abs(state.amplitudes) ** 2
    peak = float(probs.max())
    offsets: list[float] = []
    logs: list[float] = []
    edge_values: list[float] = []
    outer_used = 0
    for direction in (-1, +1):
        if direction < 0:
            cap = s0 - 1 - EDGE_MARGIN
        else:
            cap = n - EDGE_MARGIN - s0
        last = 0
        for d in range(2, cap + 1):
            val = probs[s0 - 1 + direction * d]
            if val < FIT_FLOOR:
                break
            offsets.append(float(d))
            logs.append(math.log(val))
            last = d
        if last:
            edge_values.append(float(probs[s0 - 1 + direction * last]))
            outer_used = max(outer_used, last)
    if len(offsets) < 8:
        raise NotLocalizedError(
            f"only {len(offsets)} usable sites in the fit window; profile too narrow"
        )
    decay = math.log10(peak / max(edge_values))
    if decay < MIN_DECAY_ORDERS:
        raise NotLocalizedError(
            f"profile decays only {decay:.2f} decades across the window "
            f"(need >= {MIN_DECAY_ORDERS})"
        )
    x = np.asarray(offsets)
    y = np.asarray(logs)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    if slope >= 0.0:
        raise NotLocalizedError(f"envelope does not decay (slope = {slope:.3e})")
    if residual > RESIDUAL_TOL:
        raise NotLocalizedError(
            f"log-profile scatter {residual:.2f} exceeds tolerance {RESIDUAL_TOL}"
        )
    return observables.LocalizationFit(
        length=float(-2.0 / slope),
        intercept=float(intercept),
        residual=residual,
        window=(2, outer_used),
    )


class TestLocalizationFit:
    def test_recovers_synthetic_length(self):
        n, s0, length = 1401, 701, 20.0
        sites = np.arange(1, n + 1)
        weights = np.exp(-2.0 * np.abs(sites - s0) / length)
        fit = fit_localization_length(normalized_state(weights), s0)
        assert fit.length == pytest.approx(length, rel=0.01)

    def test_not_localized_on_flat_profile(self):
        n = 401
        with pytest.raises(NotLocalizedError):
            fit_localization_length(normalized_state(np.full(n, 1.0 / n)), 201)

    def test_bounds_check(self):
        with pytest.raises(ValueError):
            fit_localization_length(normalized_state(np.array([0.5, 0.5])), 3)

    def test_refuses_a_rising_envelope(self):
        # The peak stands 6 decades above every window site, so the decay
        # test passes, but both tails grow from 1e-7 to 1e-6 towards the
        # ends: the fitted slope is positive and there is no length.
        n, s0 = 101, 51
        d = np.abs(np.arange(1, n + 1) - s0)
        weights = 1e-7 * 10.0 ** ((d - 2) / (s0 - 1 - EDGE_MARGIN - 2))
        weights[s0 - 1] = 1.0
        with pytest.raises(NotLocalizedError, match="envelope does not decay"):
            fit_localization_length(normalized_state(weights), s0)

    @settings(max_examples=400, deadline=None)
    @given(case=localization_cases())
    @example(case=(exponential_state(60, 4, 3.0), 4))
    @example(case=(exponential_state(60, 57, 3.0), 57))
    def test_matches_the_site_by_site_walk(self, case):
        # At s0 = 4 or N - 3 the cap EDGE_MARGIN short of the near end lies
        # before d = 2, so that tail contributes nothing.
        state, s0 = case
        try:
            expected = fit_by_site_walk(state, s0)
        except NotLocalizedError as exc:
            with pytest.raises(NotLocalizedError) as raised:
                fit_localization_length(state, s0)
            assert str(raised.value) == str(exc)
        else:
            assert repr(fit_localization_length(state, s0)) == repr(expected)


class TestEntanglementMeasures:
    def test_uniform_state(self):
        n = 64
        state = normalized_state(np.ones(n))
        assert ipr(state) == pytest.approx(n, rel=1e-12)
        assert q_measure(state) == pytest.approx(4.0 / n * (1.0 - 1.0 / n), rel=1e-12)

    def test_localized_state(self):
        state = normalized_state(np.array([1.0, 0.0, 0.0]))
        assert ipr(state) == pytest.approx(1.0)
        assert q_measure(state) == pytest.approx(0.0, abs=1e-15)

    def test_q_ipr_identity_random(self, make_random_state):
        for _ in range(100):
            state = make_random_state(48)
            lhs = q_measure(state)
            rhs = 4.0 / 48 * (1.0 - 1.0 / ipr(state))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_concurrence_by_hand(self):
        state = normalized_state(np.array([0.5, 0.3, 0.2]))
        want = 4.0 * math.sqrt(0.5) * math.sqrt(0.2)
        assert concurrence(state, 1, 3) == pytest.approx(want, rel=1e-12)

    def test_concurrence_bounds(self):
        state = normalized_state(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            concurrence(state, 1, 3)
        with pytest.raises(ValueError) as info:
            concurrence(state, 2, 2)
        assert str(info.value) == "concurrence needs two distinct sites"

    def test_max_concurrence_two_site_peak(self):
        state = normalized_state(np.array([0.5, 0.5]))
        assert max_concurrence(state) == pytest.approx(2.0, rel=1e-12)
        # One site holds no pair.
        assert max_concurrence(site_state(1, 1)) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(parts=st.lists(st.tuples(_component, _component), min_size=2, max_size=40))
    def test_max_concurrence_is_the_largest_pair(self, parts):
        amps = np.array([complex(re, im) for re, im in parts])
        norm = np.linalg.norm(amps)
        assume(norm > 1e-100)
        state = SpinState(amps / norm)
        n = state.n_sites
        want = max(concurrence(state, i, j)
                   for i in range(1, n + 1) for j in range(i + 1, n + 1))
        assert max_concurrence(state).hex() == want.hex()

    def test_profile_maximum_closed_form(self):
        got = concurrence_profile_max(10.0)
        assert got.l_star == pytest.approx(20.0332393712892, rel=1e-12)
        assert got.c_star == pytest.approx(0.0735147378299778, rel=1e-12)

    def test_profile_maximum_matches_grid(self):
        # Production concurrence between sites center -+ d of built
        # profiles e^{-|s|/L}, 60d sites either side (the weight cut off
        # is about e^{-60} of the total at L ~ 2d), on the grid L*,
        # L* (1 -+ 1e-3): C* at L* to 1e-12, and lower at both neighbours.
        for d in (5, 10, 50):
            best = concurrence_profile_max(d)
            offsets = np.abs(np.arange(-60 * d, 60 * d + 1))
            values = []
            for length in best.l_star * np.array([1.0 - 1e-3, 1.0, 1.0 + 1e-3]):
                state = normalized_state(np.exp(-2.0 * offsets / length))
                values.append(concurrence(state, 60 * d + 1 - d, 60 * d + 1 + d))
            assert values[1] == pytest.approx(best.c_star, rel=1e-12), d
            assert values[0] < values[1] > values[2], d

    def test_profile_maximum_rejects_bad_separation(self):
        with pytest.raises(ValueError):
            concurrence_profile_max(0.0)

    @pytest.mark.parametrize("d", [5e-324, 1e-310, 0.5, math.nextafter(1.0, 0.0)])
    def test_profile_maximum_refuses_sub_lattice_separation(self, d):
        # Below one site there is no lattice pair; near 1e-308, 1/d
        # overflows and the closed form would read C* = 0 where C* -> 4.
        with pytest.raises(ValueError, match="site separation d must be finite and >= 1"):
            concurrence_profile_max(d)
        assert concurrence_profile_max(1.0).c_star > 0.0


def packet_state(n: int, peaks: list[tuple[float, float, float]]) -> SpinState:
    """Profile from Gaussian (position, width_param, weight) triples.

    Peak weights are exact; whatever probability they do not use is spread
    uniformly over the chain.
    """
    sites = np.arange(1, n + 1, dtype=np.float64)
    total = sum(w for _, _, w in peaks)
    assert total <= 1.0
    probs = np.full(n, (1.0 - total) / n)
    for position, b, weight in peaks:
        bump = np.exp(-2.0 * b * (sites - position) ** 2)
        probs += weight * bump / bump.sum()
    return normalized_state(probs)


class TestModeDetection:
    # Fig. 1 scale geometry: advance 2*pi/b_q ~ 94 sites per pulse.
    P = ChainParams(n_sites=1401, center=701, beta=100.0, b_q=1.0 / 15.0)

    def test_recovers_symmetric_pair(self):
        adv = 2.0 * math.pi / self.P.b_q
        state = packet_state(
            1401,
            [
                (701 - 3 * adv, self.P.b_q, 0.45),
                (701 + 3 * adv, self.P.b_q, 0.45),
            ],
        )
        report = detect_accelerator_modes(state, 3, self.P)
        assert len(report.modes) == 2
        got = sorted(m.position for m in report.modes)
        assert got[0] == pytest.approx(701 - 3 * adv, abs=0.5)
        assert got[1] == pytest.approx(701 + 3 * adv, abs=0.5)
        for m in report.modes:
            assert m.weight == pytest.approx(0.45, rel=0.02)
        assert report.remnant_weight == pytest.approx(1.0 - sum(m.weight for m in report.modes))

    def test_rejects_peak_off_the_ballistic_corridor(self):
        adv = 2.0 * math.pi / self.P.b_q
        # a strong peak half an advance short of the ballistic position
        state = packet_state(1401, [(701 + 2.5 * adv, self.P.b_q, 0.3)])
        report = detect_accelerator_modes(state, 3, self.P)
        assert report.modes == ()

    def test_rejects_below_weight_threshold(self):
        adv = 2.0 * math.pi / self.P.b_q
        # most probability in a central blob, a clean but tiny ballistic peak
        state = packet_state(
            1401,
            [(701.0, 0.01, 0.989), (701 + 3 * adv, self.P.b_q, 0.01)],
        )
        report = detect_accelerator_modes(state, 3, self.P)
        assert report.modes == ()

    def test_no_modes_on_central_blob(self):
        state = packet_state(1401, [(701.0, 0.01, 1.0)])
        report = detect_accelerator_modes(state, 2, self.P)
        assert report.modes == ()
        assert report.remnant_weight == pytest.approx(1.0)

    def test_side_regions_too_short_to_scan(self):
        # At pulse 14 the remnant half-width 14*pi/b_q = 659.7 sites leaves
        # two interior sites on each side of this chain, fewer than the 3 a
        # scan needs: both sides are skipped, and the peaks piled at the
        # ends are never fitted.
        p = ChainParams(n_sites=1325, center=663, beta=100.0, b_q=1.0 / 15.0)
        state = packet_state(1325, [(663.0, 0.01, 0.8), (2.0, 1.0, 0.1), (1324.0, 1.0, 0.1)])
        report = detect_accelerator_modes(state, 14, p)
        assert report.modes == ()
        assert report.remnant_weight == 1.0

    def test_width_property(self):
        mode = GaussianMode(position=0.0, amplitude=1.0, width_parameter=0.04, weight=0.1)
        assert mode.width == pytest.approx(5.0)

    def test_driven_packet_width_band(self):
        # Measured regression band: the fitted width parameter of a driven
        # packet tracks the kick curvature b_q only loosely.  At this
        # operating point it breathes between ~0.18 and ~0.66 b_q over the
        # first six pulses (the island holds more than one quasimode), so
        # the pin is the band, not equality with b_q.
        from kickedchain import evolve, make_context, site_state

        traj = evolve(site_state(1401, 701), make_context(self.P), 6)
        ratios = []
        for period, state in traj:
            if period < 1:
                continue
            rep = detect_accelerator_modes(state, period, self.P)
            ratios += [m.width_parameter / self.P.b_q for m in rep.modes]
        assert len(ratios) == 12
        assert all(0.15 < r < 0.70 for r in ratios)

    def test_remnant_halfwidth_rule(self):
        assert remnant_halfwidth(3, self.P) == pytest.approx(3.0 * math.pi / self.P.b_q)
        with pytest.raises(ValueError):
            remnant_halfwidth(0, self.P)
        with pytest.raises(ValueError, match="remnant geometry needs b_q > 0"):
            remnant_halfwidth(1, dataclasses.replace(self.P, b_q=0.0))

    def test_pair_clearance_rule(self):
        # Width 1/sqrt(0.25) = 2 sites: the nearest packet, 60 sites out,
        # leaves 60 - 3 * 2 = 54 sites.  One site of clearance, or no
        # packet, falls back to the remnant half-width.
        def mode(offset):
            return GaussianMode(position=self.P.center + offset, amplitude=1.0,
                                width_parameter=0.25, weight=0.1)

        def report(*offsets):
            return ModeReport(pulse=3, modes=tuple(map(mode, offsets)), remnant_weight=0.5)

        assert pair_clearance(report(-60.0, 90.0), self.P) == 54.0
        fallback = remnant_halfwidth(3, self.P)
        assert pair_clearance(report(7.0, 90.0), self.P) == fallback
        assert pair_clearance(report(), self.P) == fallback

    def test_state_size_mismatch_is_a_package_error(self):
        # The same error evolve raises, so a caller catching
        # KickedChainError sees it.
        p = parse_config("").chain
        assert p.n_sites == 1401
        with pytest.raises(DimensionMismatchError, match="state has 64 sites but params have 1401"):
            detect_accelerator_modes(site_state(64, 32), 3, p)


def fit_every_candidate(state: SpinState, pulse_index: int, p: ChainParams) -> ModeReport:
    """Reference detection: fits every top-12 candidate, skips none before
    fitting, and applies the same accept rules afterwards."""
    probs = np.abs(state.amplitudes) ** 2
    n = p.n_sites
    offsets = np.arange(n) - (p.center - 1)
    ballistic = 2.0 * math.pi / p.b_q * pulse_index
    corridor = observables.CORRIDOR_FRACTION * 2.0 * math.pi / p.b_q
    b = remnant_halfwidth(pulse_index, p)
    accepted: list[GaussianMode] = []
    for side in (-1, +1):
        region = np.array([i for i in range(1, n - 1) if offsets[i] * side > b], dtype=np.intp)
        if region.size < 3:
            continue
        rises = probs[region] >= probs[region - 1]
        local_max = region[rises & (probs[region] >= probs[region + 1])]
        for i_peak in local_max[np.argsort(probs[local_max])[::-1][:12]]:
            if probs[i_peak] <= 0.0:
                continue
            mode = observables._fit_gaussian_peak(probs, int(i_peak))
            if mode is None or mode.weight <= observables.MODE_WEIGHT_THRESHOLD:
                continue
            if abs(abs(mode.position - p.center) - ballistic) > corridor:
                continue
            margin = observables.PACKET_MARGIN_WIDTHS
            if any(abs(mode.position - m.position) <= margin * (mode.width + m.width)
                   for m in accepted):
                continue
            accepted.append(mode)
    accepted.sort(key=lambda m: m.position)
    return ModeReport(pulse=pulse_index, modes=tuple(accepted),
                      remnant_weight=1.0 - sum(m.weight for m in accepted))


# (side, edge, shift, width_param, weight): a Gaussian packet centered
# shift sites beyond the inner (edge -1) or outer (edge +1) corridor edge,
# or beyond the ballistic position itself (edge 0), on the left (side -1)
# or right (side +1) of the kick center.
_packet = st.tuples(
    st.sampled_from((-1, 1)),
    st.sampled_from((-1, 0, 1)),
    st.floats(-2.0 * observables.MAX_FIT_SHIFT - 2.0, 2.0 * observables.MAX_FIT_SHIFT + 2.0),
    st.floats(0.002, 1.0),
    st.floats(0.001, 0.3),
)


class TestCandidatePruning:
    @settings(max_examples=150, deadline=None)
    @given(
        b_q=st.sampled_from((1.0 / 15.0, 0.1, 0.2, 0.4)),
        pulse_index=st.integers(1, 6),
        packets=st.lists(_packet, min_size=1, max_size=3),
        noise=st.floats(0.0, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    # A broad packet just inside the outer corridor edge with a narrow
    # spike 3 sites farther out: the discrete maximum (the spike) lies
    # 2.7 sites outside the corridor, yet the fit centers on the broad
    # packet inside it.  A pre-check that ignores the fit's shift bound
    # skips this accepted packet.
    @example(b_q=1.0 / 15.0, pulse_index=3,
             packets=[(1, 1, -0.5, 0.005, 0.3), (1, 1, 2.5, 1.0, 0.005)],
             noise=0.0, seed=0)
    def test_matches_fitting_every_candidate(self, b_q, pulse_index, packets, noise, seed):
        p = ChainParams(n_sites=1401, center=701, beta=100.0, b_q=b_q)
        advance = 2.0 * math.pi / b_q
        corridor = observables.CORRIDOR_FRACTION * advance
        sites = np.arange(1, p.n_sites + 1, dtype=np.float64)
        weights = [w for *_, w in packets]
        rng = np.random.default_rng(seed)
        pedestal = (1.0 - sum(weights)) / p.n_sites
        probs = pedestal * (1.0 + noise * rng.uniform(-1.0, 1.0, p.n_sites))
        for side, edge, shift, width_param, weight in packets:
            position = p.center + side * (advance * pulse_index + edge * corridor + shift)
            bump = np.exp(-2.0 * width_param * (sites - position) ** 2)
            probs += weight * bump / bump.sum()
        state = normalized_state(probs)
        assert detect_accelerator_modes(state, pulse_index, p) == \
            fit_every_candidate(state, pulse_index, p)

    def test_example_peak_lies_outside_the_corridor(self):
        # The explicit example above only guards the shift bound if its
        # accepted packet's discrete peak is outside corridor + 1 site.
        p = ChainParams(n_sites=1401, center=701, beta=100.0, b_q=1.0 / 15.0)
        advance = 2.0 * math.pi / p.b_q
        corridor = observables.CORRIDOR_FRACTION * advance
        broad = p.center + 3 * advance + corridor - 0.5
        state = packet_state(1401, [(broad, 0.005, 0.3), (broad + 3.0, 1.0, 0.005)])
        report = detect_accelerator_modes(state, 3, p)
        assert len(report.modes) == 1
        assert abs(abs(report.modes[0].position - p.center) - 3 * advance) <= corridor
        i_peak = int(np.argmax(np.abs(state.amplitudes[900:]))) + 900
        assert abs(i_peak + 1 - p.center) - 3 * advance > corridor + 1.0


def test_sharp_peak_fit_raises_no_warning():
    # A peak far narrower than one site leaves the quadratic fit rank
    # deficient; the fit is refused without a numpy RankWarning.
    x = np.arange(41, dtype=np.float64)
    probs = np.exp(-60.0 * (x - 20.0) ** 2) + 1e-20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert observables._fit_gaussian_peak(probs, 20) is None


def test_fit_widens_to_a_chain_shorter_than_five_sites():
    # The FWHM window holds one site; widening stops at the 4-site array's
    # ends, and the 4 points of an exact Gaussian (B = 1) give it back.
    x = np.arange(4, dtype=np.float64)
    probs = np.exp(-2.0 * (x - 1.3) ** 2)
    mode = observables._fit_gaussian_peak(probs, 1)
    assert mode.position == pytest.approx(2.3, abs=1e-9)
    assert mode.width_parameter == pytest.approx(1.0, rel=1e-9)
    assert mode.weight == pytest.approx(probs.sum(), rel=1e-15)


class TestProminence:
    # A Gaussian peak (B = 0.05, peak at site 101) on a flat pedestal of q
    # times its height.  Over the fitted span the peak stands 134, 5.95 and
    # 3.50 times above the median for the kept q, and 2.67, 2.0 and 1.2
    # times for the refused ones, against MODE_PROMINENCE = 3.
    @pytest.mark.parametrize("q,kept", [
        (0.0, True), (0.2, True), (0.4, True), (0.6, False), (1.0, False), (5.0, False),
    ])
    def test_pedestal_decides_the_fit(self, q, kept, monkeypatch):
        x = np.arange(201, dtype=np.float64)
        probs = np.exp(-2.0 * 0.05 * (x - 100.0) ** 2) + q
        mode = observables._fit_gaussian_peak(probs, 100)
        assert (mode is not None) == kept
        if kept:
            assert mode.position == pytest.approx(101.0, abs=1e-9)
        # With the rule off every one of these peaks fits, so a refusal
        # here is the prominence rule's alone.
        monkeypatch.setattr(observables, "MODE_PROMINENCE", 0.0)
        assert observables._fit_gaussian_peak(probs, 100) is not None


def synthetic_reports(pulses, weights_per_pulse) -> list[ModeReport]:
    reports = []
    for j, w in zip(pulses, weights_per_pulse):
        mode = GaussianMode(position=100.0 * j, amplitude=1.0, width_parameter=0.1, weight=w / 2)
        reports.append(
            ModeReport(pulse=j, modes=(mode, mode), remnant_weight=1.0 - w)
        )
    return reports


class TestModeDecay:
    def test_recovers_pure_exponential(self):
        pulses = range(2, 21)
        rate = 1.0 / 24.0
        reports = synthetic_reports(pulses, [math.exp(-rate * j) for j in pulses])
        fit = mode_decay(reports)
        assert fit.rate == pytest.approx(rate, rel=1e-9)
        assert not fit.oscillatory

    def test_flags_oscillation(self):
        pulses = range(2, 13)
        weights = [
            math.exp(-j / 24.0) * (1.0 + 0.25 * math.sin(1.8 * j)) for j in pulses
        ]
        fit = mode_decay(synthetic_reports(pulses, weights))
        assert fit.oscillatory

    def test_needs_five_reports(self):
        pulses = range(2, 6)
        reports = synthetic_reports(pulses, [math.exp(-j / 24.0) for j in pulses])
        with pytest.raises(InsufficientDataError):
            mode_decay(reports)

    def test_reads_pulses_from_the_second_on(self):
        pulses = list(range(1, 21))
        weights = [0.9] + [math.exp(-j / 24.0) for j in pulses[1:]]
        fit = mode_decay(synthetic_reports(pulses, weights))
        assert fit.rate == pytest.approx(1.0 / 24.0, rel=1e-9)

    def test_skips_empty_reports(self):
        pulses = list(range(2, 21))
        reports = synthetic_reports(pulses, [math.exp(-j / 24.0) for j in pulses])
        reports.insert(0, ModeReport(pulse=1, modes=(), remnant_weight=1.0))
        fit = mode_decay(reports)
        assert fit.rate == pytest.approx(1.0 / 24.0, rel=1e-9)
