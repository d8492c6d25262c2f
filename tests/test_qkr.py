import math

import numpy as np
import pytest
import scipy.special

from kickedchain import (
    ChainParams,
    bessel_interior_mask,
    classical_diffusion,
    frs_quadrature,
    qkr_kick_matrix,
    rechester_d,
    ring_kick_column,
    standard_map,
    uhc_matrix,
)
from kickedchain.chain import ring_taps
from kickedchain.errors import QuadratureConvergenceError, WeakChaosWarning

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402


class TestBessel:
    # scipy.special.jv is evaluated inside the kick matrices; these pin the
    # values that reach them, column 0 of the matrix holding i^d J_d(beta).
    @pytest.mark.parametrize("arg", [0.5, 5.0, 10.0, 100.0, 666.7])
    def test_against_scipy(self, arg):
        m = qkr_kick_matrix(51, arg)
        for order in range(0, 51):
            want = 1j**order * scipy.special.jv(order, arg)
            assert m[order, 0] == pytest.approx(want, abs=1e-9)

    def test_negative_order_symmetry(self):
        # i^{-d} J_{-d} = i^d J_d makes the matrix symmetric, not Hermitian.
        m = qkr_kick_matrix(8, 7.0)
        assert m[0, 3] == pytest.approx(1j**-3 * scipy.special.jv(-3, 7.0), abs=1e-15)
        assert m[0, 4] == pytest.approx(m[4, 0], abs=1e-15)
        assert m[0, 3] == pytest.approx(m[3, 0], abs=1e-15)

    def test_zero_argument(self):
        m = qkr_kick_matrix(4, 0.0)
        assert m[0, 0] == 1.0
        assert m[3, 0] == 0.0

    def test_j2_at_five_is_small(self):
        # The K_s = 5 operating point sits at a node of J_2, which enters
        # rechester_d as well as the kick matrix (entry i^2 J_2 = -J_2).
        m = qkr_kick_matrix(4, 5.0)
        assert -m[2, 0].real == pytest.approx(0.046565116277752, abs=1e-12)
        j2 = 0.046565116277752
        assert rechester_d(5.0) == pytest.approx(12.5 * (1.0 - 2.0 * j2 + 2.0 * j2 * j2), rel=1e-12)


class TestRechester:
    def test_frozen_values(self):
        assert rechester_d(5.0) == pytest.approx(11.390079844405209, rel=1e-12)
        assert rechester_d(10.0) == pytest.approx(31.020628296226228, rel=1e-12)

    def test_formula_via_scipy(self):
        for k in (3.0, 6.0, 12.5):
            j2 = scipy.special.jv(2, k)
            want = 0.5 * k * k * (1.0 - 2.0 * j2 + 2.0 * j2 * j2)
            assert rechester_d(k) == pytest.approx(want, rel=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rechester_d(0.0)


class TestKickMatrix:
    def test_zero_kick_is_identity(self):
        m = qkr_kick_matrix(16, 0.0)
        assert np.max(np.abs(m - np.eye(16))) < 1e-14

    def test_entries_are_bessel(self):
        beta = 7.0
        m = qkr_kick_matrix(32, beta)
        for r, s in ((0, 0), (3, 1), (10, 20), (31, 0)):
            want = 1j ** (r - s) * scipy.special.jv(r - s, beta)
            assert m[r, s] == pytest.approx(want, abs=1e-10)

    def test_toeplitz(self):
        m = qkr_kick_matrix(24, 10.0)
        assert np.max(np.abs(m[1:, 1:] - m[:-1, :-1])) < 1e-15

    def test_ring_matrix_unitary(self):
        # The circulant of the column is unitary exactly when its
        # eigenvalues, the column's DFT values, have modulus 1; that holds
        # up to the dropped alias orders, so beta << N.
        eigenvalues = np.fft.fft(ring_kick_column(64, 5.0))
        assert np.max(np.abs(np.abs(eigenvalues) - 1.0)) < 1e-12

    def test_ring_taps_are_bessel_exactly(self):
        # The ring hop is the circulant of ring_taps, so its first column
        # decides every entry.
        beta = 5.0
        exact = np.exp(-1j * beta) * ring_kick_column(64, beta)
        assert np.max(np.abs(ring_taps(64, beta) - exact)) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 256), beta=st.floats(0.0, 60.0))
    def test_ring_taps_are_bessel_property(self, n, beta):
        # The circulant drops alias orders |d| >= n/2; keep draws where
        # they are negligible.
        assume(abs(scipy.special.jv(n // 2, beta)) < 1e-13)
        exact = np.exp(-1j * beta) * ring_kick_column(n, beta)
        assert np.max(np.abs(ring_taps(n, beta) - exact)) < 1e-10

    def test_open_chain_interior_agreement(self):
        n, beta = 128, 10.0
        p = ChainParams(n_sites=n, center=64, beta=beta, b_q=0.1)
        u = uhc_matrix(p, 1.0) * np.exp(1j * beta)
        approx = qkr_kick_matrix(n, beta)
        mask = bessel_interior_mask(n, beta)
        assert mask.any()
        assert np.max(np.abs((u - approx)[mask])) < 1e-3
        # outside the interior the boundary images are NOT negligible
        assert np.max(np.abs((u - approx)[~mask])) > 1e-2


class TestInteriorMask:
    def test_rule(self):
        n, beta = 32, 4.0
        mask = bessel_interior_mask(n, beta)
        cut = beta + 2.0 * math.sqrt(beta)
        for r, s in ((1, 1), (5, 5), (16, 16), (1, 32), (30, 31)):
            want = min(r + s - 1, 2 * n + 1 - r - s) >= cut
            assert mask[r - 1, s - 1] == want

    def test_huge_beta_empties_mask(self):
        assert not bessel_interior_mask(16, 1e4).any()


class TestQuadrature:
    def test_identity_at_zero_kick(self):
        p = ChainParams(n_sites=32, center=16, beta=0.0, b_q=0.1)
        assert frs_quadrature(10, 10, p) == pytest.approx(1.0, abs=1e-12)
        assert abs(frs_quadrature(10, 13, p)) < 1e-12

    def test_matches_central_matrix_elements(self):
        p = ChainParams(n_sites=512, center=256, beta=10.0, b_q=0.1)
        u = uhc_matrix(p, 1.0)
        for r, s in ((250, 256), (256, 256), (260, 249)):
            assert abs(frs_quadrature(r, s, p) - u[r - 1, s - 1]) < 5e-3

    def test_scalar_in_complex_out(self):
        p = ChainParams(n_sites=64, center=32, beta=10.0, b_q=0.1)
        assert type(frs_quadrature(30, 33, p)) is complex
        assert frs_quadrature(np.array([30]), 33, p).shape == (1,)

    def test_rejects_sites_off_the_chain(self):
        p = ChainParams(n_sites=64, center=32, beta=10.0, b_q=0.1)
        with pytest.raises(ValueError):
            frs_quadrature(np.array([1, 65]), 1, p)
        with pytest.raises(ValueError):
            frs_quadrature(0, 1, p)

    @pytest.mark.parametrize("r", [1.5, np.array([2.0])])
    def test_rejects_non_integer_sites(self, r):
        p = ChainParams(n_sites=64, center=32, beta=10.0, b_q=0.1)
        with pytest.raises(ValueError) as info:
            frs_quadrature(r, 1, p)
        assert str(info.value) == "site indices must be integers"

    @pytest.mark.parametrize("r,s", [(1, 1), (50, 50), (3, 90)])
    def test_coarse_aliasing_raises(self, r, s):
        # At beta = 2e4 the kick's bandwidth exceeds both panel counts, so
        # the halved rule disagrees; the direct per-pair trapezoid raised too.
        p = ChainParams(n_sites=100, center=50, beta=2e4, b_q=0.1)
        with pytest.raises(QuadratureConvergenceError):
            frs_quadrature(r, s, p)
        with pytest.raises(QuadratureConvergenceError):
            _direct_quadrature(r, s, p)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(2, 12_000), beta=st.floats(0.0, 300.0))
    def test_matches_direct_trapezoid(self, data, n, beta):
        p = ChainParams(n_sites=n, center=(n + 1) // 2, beta=beta, b_q=0.1)
        site = st.integers(1, n)
        pairs = data.draw(st.lists(st.tuples(site, site), min_size=1, max_size=4))
        r, s = np.array(pairs).T
        _assert_matches_direct(r, s, p)

    @pytest.mark.parametrize(
        "n,r,s",
        [
            # r+s-1 above the coarse (8192) and the fine (16384) panel
            # counts, folding onto orders where the Bessel terms vanish.
            (12_000, [9000, 8300, 11_999, 4100], [100, 8300, 12_000, 4100]),
            # r+s-1 = 16383 folds onto order 1 at the coarse resolution
            # only: both routes refuse.
            (12_000, [8192], [8192]),
            # r+s-1 = 32767 folds onto order 1 at both resolutions, which
            # agree: the aliased value is O(1) and must match.
            (16_400, [16_384], [16_384]),
        ],
    )
    def test_matches_direct_trapezoid_on_folded_orders(self, n, r, s):
        p = ChainParams(n_sites=n, center=n // 2, beta=37.5, b_q=0.1)
        _assert_matches_direct(np.array(r), np.array(s), p)


def _assert_matches_direct(r: np.ndarray, s: np.ndarray, p: ChainParams) -> None:
    try:
        direct = np.array([_direct_quadrature(a, b, p) for a, b in zip(r.tolist(), s.tolist())])
    except QuadratureConvergenceError:
        # A folded order near 2 * 8192 aliases onto a large Bessel term at
        # the coarse resolution: both routes must refuse.
        with pytest.raises(QuadratureConvergenceError):
            frs_quadrature(r, s, p)
        return
    got = frs_quadrature(r, s, p)
    assert isinstance(got, np.ndarray) and got.shape == r.shape
    assert np.max(np.abs(got - direct)) < 1e-12


def _direct_quadrature(r: int, s: int, p: ChainParams) -> complex:
    # One site pair: the trapezoid rule on the integrand itself, at the
    # same two resolutions and with the same refinement rule.
    def integrate(m: int) -> complex:
        x = np.linspace(0.0, np.pi, m + 1)
        f = (np.cos((r + s - 1) * x) + np.cos((r - s) * x)) * np.exp(1j * p.beta * np.cos(x))
        return complex(np.trapezoid(f, dx=np.pi / m) / np.pi)

    fine, coarse = integrate(2**14), integrate(2**13)
    if abs(fine - coarse) > 1e-9:
        raise QuadratureConvergenceError(f"refinement shift {abs(fine - coarse):.3e}")
    return complex(np.exp(-1j * p.beta)) * fine


class TestClassicalMap:
    def test_zero_kick_free_rotation(self):
        angle, momentum = standard_map(np.array([1.0, 6.0]), np.array([0.5, 0.5]), 0.0)
        assert momentum == pytest.approx([0.5, 0.5])
        assert angle == pytest.approx([1.5, 6.5 - 2.0 * np.pi])

    def test_fixed_point(self):
        angle, momentum = standard_map(np.zeros(3), np.zeros(3), 3.0)
        assert np.all(angle == 0.0) and np.all(momentum == 0.0)

    def test_area_preserving(self, rng):
        # Jacobian determinant 1 by central differences at random points.
        k, h = 3.7, 1e-6
        a, m = rng.uniform(0, 2 * np.pi, size=10), rng.uniform(-3, 3, size=10)

        def step(angle, momentum):
            return np.array(standard_map(angle, momentum, k))

        da = (step(a + h, m) - step(a - h, m)) / (2 * h)
        dm = (step(a, m + h) - step(a, m - h)) / (2 * h)
        det = da[0] * dm[1] - da[1] * dm[0]
        assert det == pytest.approx(np.ones(10), abs=1e-6)


class TestClassicalDiffusion:
    def test_seed_determinism(self):
        assert classical_diffusion(10.0) == classical_diffusion(10.0)

    def test_pinned_value_at_k5(self):
        # Pinned to the last digit: a change in the float operation order of
        # the map or the fit moves it, which criterion 5's 10% band cannot see.
        assert classical_diffusion(5.0) == 12.664448857619409

    def test_matches_rechester_at_k10(self):
        slope = classical_diffusion(10.0)
        assert slope == pytest.approx(rechester_d(10.0), rel=0.10)

    def test_zero_kick_gives_zero(self):
        with pytest.warns(WeakChaosWarning):
            assert classical_diffusion(0.0) == 0.0

    def test_weak_chaos_warning(self):
        with pytest.warns(WeakChaosWarning):
            classical_diffusion(2.0)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="kick_strength must be nonnegative"):
            classical_diffusion(-1.0)
