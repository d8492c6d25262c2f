import math
from dataclasses import asdict

import numpy as np
import pytest

from kickedchain import ChainParams, SpinState, derived_params, site_state
from kickedchain.params import STABLE_ALPHA_MAX, STABLE_ALPHA_MIN

FIG1 = ChainParams(n_sites=1401, center=701, beta=100.0, b_q=1.0 / 15.0)


class TestChainParams:
    def test_valid_construction(self):
        p = ChainParams(n_sites=100, center=50, beta=10.0, b_q=0.1)
        assert (p.n_sites, p.center, p.beta, p.b_q) == (100, 50, 10.0, 0.1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            FIG1.beta = 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_sites": 1},
            {"n_sites": 100.0},
            {"center": 0},
            {"center": 101},
            {"beta": -1.0},
            {"beta": math.inf},
            {"b_q": -0.5},
            {"b_q": math.nan},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = dict(n_sites=100, center=50, beta=10.0, b_q=0.1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ChainParams(**base)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"beta": 10**5000}, "beta must be finite and nonnegative, got an integer of 5001 digits"),
            ({"beta": -(10**5000)}, "got a negative integer of 5001 digits"),
            ({"b_q": 10**400}, "b_q must be finite and nonnegative, got an integer of 401 digits"),
            ({"b_q": 2**1024}, "b_q must be finite and nonnegative"),
            ({"beta": "x"}, "beta must be a number, got 'x'"),
            ({"b_q": None}, "b_q must be a number, got None"),
            ({"beta": True}, "beta must be a number, got True"),
            ({"n_sites": 10**400}, "n_sites must be an integer in [2, 2**53], got an integer of 401 digits"),
            ({"n_sites": 2**53 + 1}, "n_sites must be an integer in [2, 2**53], got 9007199254740993"),
            ({"center": 10**400}, "center must be an integer in [1, 3], got an integer of 401 digits"),
            ({"center": -(10**400)}, "got a negative integer of 401 digits"),
            # Inside the float range an int past the phase limit shows as a float.
            ({"beta": 10**300, "b_q": 0.0}, "beta=1e+300 makes the hop phase 2*beta = 2e+300"),
            ({"b_q": 10**300}, "b_q=1e+300 makes the kick phase (b_q/2)*1**2"),
        ],
    )
    def test_huge_or_non_numeric_beta_and_b_q_are_one_line(self, kwargs, message):
        base = dict(n_sites=3, center=2, beta=10.0, b_q=0.1)
        base.update(kwargs)
        with pytest.raises(ValueError) as info:
            ChainParams(**base)
        assert message in str(info.value)
        assert "\n" not in str(info.value)
        assert len(str(info.value)) <= 160

    def test_phases_above_two_to_the_53_are_refused(self):
        # 2*beta and (b_q/2)*reach**2 may reach 2**53 and no further.
        ChainParams(n_sites=3, center=2, beta=2.0**52, b_q=2.0**54)
        with pytest.raises(ValueError, match=r"2\*beta = 9\.01e\+15, not finite or above 2\*\*53"):
            ChainParams(n_sites=3, center=2, beta=math.nextafter(2.0**52, math.inf), b_q=0.0)
        with pytest.raises(ValueError, match=r"\(b_q/2\)\*1\*\*2 at the chain's far end = 9"):
            ChainParams(n_sites=3, center=2, beta=0.0, b_q=math.nextafter(2.0**54, math.inf))


class TestDerivedParams:
    def test_fig1_values(self):
        d = derived_params(FIG1)
        assert d.k_s == pytest.approx(20.0 / 3.0)
        assert d.hbar_eff == FIG1.b_q
        assert d.alpha == pytest.approx(1.0610329539459689)
        assert d.hop_distance == pytest.approx(94.2477796076938)
        assert d.localization_length == 2500.0
        assert d.break_time == 10000.0

    def test_alpha_is_k_over_two_pi(self):
        p = ChainParams(n_sites=100, center=50, beta=40.0, b_q=0.25)
        d = derived_params(p)
        assert d.alpha == pytest.approx(d.k_s / (2.0 * math.pi), rel=1e-15)

    def test_kick_off_gives_infinite_hop(self):
        p = ChainParams(n_sites=100, center=50, beta=10.0, b_q=0.0)
        d = derived_params(p)
        assert d.k_s == 0.0
        assert math.isinf(d.hop_distance)

    def test_fig1_accelerator_mode_geometry(self):
        d = derived_params(FIG1)
        assert d.k_star == pytest.approx(1.2300, abs=5e-5)
        assert d.monodromy_trace == pytest.approx(-0.228, abs=5e-4)
        assert d.rotation == pytest.approx(1.685, abs=5e-4)
        assert math.sin(d.k_star) == pytest.approx(1.0 / d.alpha, rel=1e-15)

    def test_stability_window_edges(self):
        # The trace runs from 2 at alpha = 1 to -2 at sqrt(1 + 4/pi**2).
        assert STABLE_ALPHA_MAX == pytest.approx(1.185, abs=5e-4)
        low, high = (window_of(a * 2.0 * math.pi) for a in (STABLE_ALPHA_MIN, STABLE_ALPHA_MAX))
        assert low.monodromy_trace == pytest.approx(2.0, abs=1e-12)
        assert low.rotation == pytest.approx(0.0, abs=1e-7)
        assert high.monodromy_trace == pytest.approx(-2.0, abs=1e-12)
        assert high.rotation == pytest.approx(math.pi, abs=1e-7)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, math.nextafter(1.0, 0.0)])
    def test_no_mode_below_alpha_one(self, alpha):
        d = window_of(alpha * 2.0 * math.pi)
        assert math.isnan(d.k_star) and math.isnan(d.monodromy_trace) and math.isnan(d.rotation)

    @pytest.mark.parametrize("alpha", [1.19, 2.0, 1e6])
    def test_no_rotation_past_the_stability_window(self, alpha):
        d = window_of(alpha * 2.0 * math.pi)
        assert d.monodromy_trace < -2.0 and math.isnan(d.rotation)

    def test_window_membership_is_not_a_field(self):
        # The manifest's derived block is asdict(derived_params(p)).
        assert "in_accelerator_window" not in asdict(derived_params(FIG1))


def window_of(kick_strength: float):
    # b_q = 1, so k_s is the kick strength bit for bit.
    return derived_params(ChainParams(n_sites=100, center=50, beta=kick_strength, b_q=1.0))


class TestAcceleratorWindow:
    def test_fig1_inside(self):
        d = window_of(20.0 / 3.0)
        assert d.in_accelerator_window
        assert d.alpha == pytest.approx(1.0610329539459689)

    def test_outside_values(self):
        assert not window_of(5.0).in_accelerator_window
        assert not window_of(7.5).in_accelerator_window

    def test_boundaries_inclusive(self):
        assert window_of(1.03 * 2.0 * math.pi).in_accelerator_window
        assert window_of(1.10 * 2.0 * math.pi).in_accelerator_window


class TestSpinState:
    def test_site_state(self):
        s = site_state(5, 3)
        assert s.n_sites == 5
        assert s.amplitudes[2] == 1.0
        assert s.norm_sq() == pytest.approx(1.0)

    def test_site_state_bounds(self):
        with pytest.raises(ValueError):
            site_state(5, 0)
        with pytest.raises(ValueError):
            site_state(5, 6)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            SpinState(np.array([1.0, 1.0], dtype=complex))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SpinState(np.array([np.nan + 0j, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("imaginary", [False, True])
    def test_rejects_nonfinite_part(self, bad, imaginary):
        entry = complex(0.0, bad) if imaginary else complex(bad, 0.0)
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            SpinState(np.array([1.0, entry]))

    def test_overflowing_norm_is_not_normalized(self):
        # Finite amplitudes whose sum |a|^2 overflows to inf.
        with pytest.raises(ValueError, match="not normalized"):
            SpinState(np.array([1e200, 0.0]))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            SpinState(np.eye(2, dtype=complex))

    def test_amplitudes_read_only(self):
        s = site_state(4, 1)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0
