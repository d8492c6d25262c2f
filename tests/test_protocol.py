import math

import numpy as np
import pytest

from kickedchain import (
    ChainParams,
    SpinState,
    central_measurement,
    measurement_window,
    packet_centers,
    run_protocol,
    site_state,
)
from kickedchain.errors import EmptyBranchWarning, PacketsOutOfRangeError
from kickedchain.protocol import EMPTY_BRANCH_EPS, _packet

FIG1 = ChainParams(n_sites=1401, center=701, beta=100.0, b_q=1.0 / 15.0)


class TestCentralMeasurement:
    def test_both_branches_by_hand(self):
        amps = np.sqrt(np.array([0.1, 0.2, 0.3, 0.25, 0.15], dtype=complex))
        absent = central_measurement(SpinState(amps), (2, 4))
        assert absent.probability == pytest.approx(0.25)
        # the found branch, not returned, carries the rest
        assert 1.0 - absent.probability == pytest.approx(0.75)

    def test_post_states_live_on_complementary_sites(self):
        amps = np.sqrt(np.full(6, 1.0 / 6.0, dtype=complex))
        absent = central_measurement(SpinState(amps), (3, 4))
        assert np.all(absent.post_state.amplitudes[2:4] == 0.0)
        assert np.all(absent.post_state.amplitudes[[0, 1, 4, 5]] != 0.0)
        assert absent.post_state.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_empty_branch_warns_and_has_no_state(self):
        state = site_state(5, 3)
        with pytest.warns(EmptyBranchWarning):
            absent = central_measurement(state, (2, 4))
        assert absent.probability == 0.0
        assert absent.post_state is None

    def test_window_validation(self):
        state = site_state(5, 3)
        with pytest.raises(ValueError):
            central_measurement(state, (4, 2))
        with pytest.raises(ValueError):
            central_measurement(state, (0, 3))
        with pytest.raises(ValueError):
            central_measurement(state, (1, 6))

    def test_full_window_empties_outside_branch(self):
        state = site_state(4, 2)
        with pytest.warns(EmptyBranchWarning):
            absent = central_measurement(state, (1, 4))
        assert absent.post_state is None


class TestIdealPacketPair:
    """The reference pair ``run_protocol`` grades against: normalized
    Gaussians ``_packet`` at the ``packet_centers``."""

    def test_normalized_and_symmetric(self):
        s_left, s_right = packet_centers(FIG1, 3)
        g_left, g_right = _packet(FIG1, s_left), _packet(FIG1, s_right)
        assert np.linalg.norm(g_left) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(g_right) == pytest.approx(1.0, abs=1e-12)
        # mirror images up to rounding of the non-integer packet centers
        assert np.max(np.abs(g_left - g_right[::-1])) < 1e-12

    def test_peaks_at_ballistic_positions(self):
        s_left, s_right = packet_centers(FIG1, 3)
        offset = 3 * 2.0 * math.pi / FIG1.b_q
        assert (s_left, s_right) == pytest.approx((701 - offset, 701 + offset), rel=1e-15)
        left, right = 701 - round(offset), 701 + round(offset)
        assert int(np.argmax(_packet(FIG1, s_left))) + 1 == left
        assert int(np.argmax(_packet(FIG1, s_right))) + 1 == right

    def test_out_of_range_pulse(self):
        with pytest.raises(PacketsOutOfRangeError):
            packet_centers(FIG1, 8)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            packet_centers(FIG1, 0)
        off = ChainParams(n_sites=101, center=51, beta=1.0, b_q=0.0)
        with pytest.raises(ValueError):
            packet_centers(off, 1)


class TestMeasurementWindow:
    def test_fig1_pulse4_window(self):
        from kickedchain.chain import evolve, make_context

        traj = evolve(site_state(1401, 701), make_context(FIG1), 4)
        lo, hi = measurement_window(FIG1, traj.final, 4)
        # packets sit at 701 +- 377; the window must stop short of them
        assert lo < 701 < hi
        assert 701 - 377 < lo
        assert hi < 701 + 377

    def test_falls_back_to_remnant_rule_without_packets(self):
        state = site_state(1401, 701)
        lo, hi = measurement_window(FIG1, state, 2)
        half = math.pi * 2 / FIG1.b_q
        assert lo == math.ceil(701 - half)
        assert hi == math.floor(701 + half)


class TestRunProtocol:
    def test_fig1_report_frozen(self):
        report = run_protocol(FIG1, 4)
        # regression pins from the frozen reference run
        assert report.success_probability == pytest.approx(0.2637881960061797, rel=1e-9)
        assert report.fidelity == pytest.approx(7.750517578976818e-06, rel=1e-6)
        assert abs(report.left_weight - report.right_weight) < 1e-6
        assert report.left_weight + report.right_weight == pytest.approx(1.0, abs=1e-10)

    def test_post_state_properties_via_measurement(self):
        from kickedchain.chain import evolve, make_context

        traj = evolve(site_state(1401, 701), make_context(FIG1), 4)
        window = measurement_window(FIG1, traj.final, 4)
        absent = central_measurement(traj.final, window)
        lo, hi = window
        assert np.all(absent.post_state.amplitudes[lo - 1:hi] == 0.0)
        assert absent.post_state.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_pulse_count(self):
        with pytest.raises(ValueError):
            run_protocol(FIG1, 0)

    def test_excitation_that_never_leaves_the_window_reports_zero(self):
        # At beta = 0 nothing hops: the window holds the whole excitation.
        with pytest.warns(EmptyBranchWarning):
            report = run_protocol(ChainParams(201, 101, 0.0, 1.0), 1)
        assert report.success_probability <= EMPTY_BRANCH_EPS
        assert report.fidelity == 0.0
        assert report.left_weight == 0.0 and report.right_weight == 0.0

    def test_needs_room_for_packets(self):
        small = ChainParams(n_sites=201, center=101, beta=100.0, b_q=1.0 / 15.0)
        with pytest.raises(PacketsOutOfRangeError):
            run_protocol(small, 4)

    @pytest.mark.parametrize("n_pulses", [119, 238])
    def test_refuses_a_reference_packet_it_cannot_normalize(self, n_pulses):
        # b_q = 4*pi*j puts both centres half-way between sites at pulse j,
        # where every e^{-2 b_q d^2} underflows: from b_q ~ 1490 the norm is 0.
        p = ChainParams(n_sites=1401, center=701, beta=100.0, b_q=4.0 * math.pi * n_pulses)
        with pytest.raises(PacketsOutOfRangeError, match="cannot be normalized"):
            run_protocol(p, n_pulses)
