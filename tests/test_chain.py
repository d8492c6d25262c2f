import numpy as np
import pytest
import scipy.linalg
from scipy.fft import next_fast_len
from scipy.special import jv

from kickedchain import (
    CapacityError,
    ChainParams,
    MemoryBudgetError,
    SpinState,
    evolve,
    hop_eigenphases,
    make_context,
    oracle_hamiltonian,
    site_state,
    step_period_inverse,
    uhc_matrix,
)
from kickedchain.chain import (
    _band_taps,
    _cosine_modes,
    _ring_hop,
    _tap_spectrum,
    kick_phases,
    ring_taps,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

P64 = ChainParams(n_sites=64, center=32, beta=10.0, b_q=0.1)


class TestEigenbasis:
    def test_phases_small_chain(self):
        # beta * (1 - cos(pi*(m-1)/N)) for N=4, m=1..4
        got = hop_eigenphases(4, 2.0)
        want = 2.0 * (1.0 - np.cos(np.pi * np.arange(4) / 4.0))
        assert np.allclose(got, want, atol=1e-15)
        assert got[0] == 0.0

    def test_modes_orthonormal(self):
        g = _cosine_modes(64)
        assert np.max(np.abs(g @ g.T - np.eye(64))) < 1e-12

    def test_modes_diagonalize_hamiltonian(self):
        # Independent route: dense bond-counting Hamiltonian.
        h = oracle_hamiltonian(P64)
        g = _cosine_modes(64)
        phases = hop_eigenphases(64, P64.beta)
        residual = np.max(np.abs(h @ g.T - g.T * phases[None, :]))
        assert residual < 1e-10

    def test_phases_match_dense_spectrum(self):
        h = oracle_hamiltonian(P64)
        eigvals = np.sort(np.linalg.eigvalsh(h))
        assert np.max(np.abs(eigvals - hop_eigenphases(64, P64.beta))) < 1e-10


class TestPropagator:
    def test_matches_matrix_exponential(self):
        # scipy expm is the independent oracle for the one-period propagator.
        u = uhc_matrix(P64, 1.0)
        e = scipy.linalg.expm(-1j * oracle_hamiltonian(P64))
        assert np.max(np.abs(u - e)) < 1e-8

    def test_unitary(self):
        u = uhc_matrix(P64, 1.0)
        assert np.max(np.abs(u @ u.conj().T - np.eye(64))) < 1e-12

    def test_periods_compose(self):
        u1 = uhc_matrix(P64, 1.0)
        u2 = uhc_matrix(P64, 2.0)
        assert np.max(np.abs(u2 - u1 @ u1)) < 1e-12

    def test_zero_periods_is_identity(self):
        assert np.max(np.abs(uhc_matrix(P64, 0.0) - np.eye(64))) < 1e-12

    def test_dense_cap(self):
        big = ChainParams(n_sites=5000, center=2500, beta=1.0, b_q=0.1)
        with pytest.raises(CapacityError):
            uhc_matrix(big, 1.0)
        with pytest.raises(CapacityError):
            oracle_hamiltonian(big)

    def test_transform_route_matches_dense(self, make_random_state):
        state = make_random_state(64)
        ctx = make_context(P64)
        length = next_fast_len(64 + 2 * ctx.pad)
        spectrum = _tap_spectrum(ctx.band_taps, length)
        buf = np.zeros(length, dtype=np.complex128)
        via_transform = _ring_hop(state.amplitudes, ctx.pad, spectrum, buf)
        via_matrix = uhc_matrix(P64, 1.0) @ state.amplitudes
        assert np.max(np.abs(via_transform - via_matrix)) < 1e-12


class TestKick:
    def test_phase_values(self):
        p = ChainParams(n_sites=5, center=3, beta=1.0, b_q=0.4)
        phases = kick_phases(p)
        # site r picks up e^{-i (b_q/2) (r - center)^2}
        want = np.exp(-0.2j * (np.arange(1, 6) - 3) ** 2)
        assert np.allclose(phases, want, atol=1e-15)

    def test_kick_preserves_probabilities(self, make_random_state):
        p = ChainParams(n_sites=32, center=16, beta=1.0, b_q=0.3)
        state = make_random_state(32)
        kicked = state.amplitudes * kick_phases(p)
        assert np.allclose(np.abs(kicked), np.abs(state.amplitudes), atol=1e-15)

    @pytest.mark.parametrize("n_sites,center", [
        (2, 1), (2, 2), (1401, 1), (1401, 1401), (1401, 701), (1400, 700), (1401, 300),
    ])
    def test_matches_direct_formula(self, n_sites, center):
        # Bit for bit: kick_phases mirrors one half-table onto both sides.
        p = ChainParams(n_sites=n_sites, center=center, beta=1.0, b_q=0.0667)
        offsets = np.arange(n_sites, dtype=np.float64) - (center - 1)
        assert np.array_equal(kick_phases(p), np.exp(-0.5j * p.b_q * offsets**2))

    def test_kick_off_is_identity(self, make_random_state):
        p = ChainParams(n_sites=32, center=16, beta=1.0, b_q=0.0)
        state = make_random_state(32)
        assert np.all(kick_phases(p) == 1.0)
        assert np.array_equal(state.amplitudes * kick_phases(p), state.amplitudes)


class TestEvolution:
    def test_period_reversible(self, make_random_state):
        ctx = make_context(P64)
        state = make_random_state(64)
        back = step_period_inverse(evolve(state, ctx, 1).final, ctx)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12

    def test_norm_conserved_long_run(self):
        ctx = make_context(P64)
        traj = evolve(site_state(64, 32), ctx, 200, record_every=200)
        assert traj.final.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_recording_schedule(self):
        ctx = make_context(P64)
        traj = evolve(site_state(64, 32), ctx, 7, record_every=3)
        assert traj.periods == (0, 3, 6, 7)
        assert len(traj.states) == 4

    def test_snapshot_budget(self):
        ctx = make_context(P64)
        with pytest.raises(MemoryBudgetError):
            evolve(site_state(64, 32), ctx, 400_000)

    def test_rejects_size_mismatch(self):
        ctx = make_context(P64)
        from kickedchain import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            evolve(site_state(32, 16), ctx, 1)

    def test_matches_brute_force_product(self):
        # Full period against explicit matrix product kick * U_hop.
        p = ChainParams(n_sites=32, center=16, beta=5.0, b_q=0.25)
        ctx = make_context(p)
        start = site_state(32, 16)
        got = evolve(start, ctx, 3).final.amplitudes
        u = np.diag(kick_phases(p)) @ uhc_matrix(p, 1.0)
        want = np.linalg.matrix_power(u, 3) @ start.amplitudes
        assert np.max(np.abs(got - want)) < 1e-12


PRIMES = (2, 3, 5, 7, 11, 13, 97, 101, 127, 211, 251, 257, 293)


class TestOnePath:
    """evolve and step_period_inverse over random chains,
    against the dense oracle product diag(kick) . U_hop."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_sites=st.one_of(st.integers(min_value=2, max_value=300), st.sampled_from(PRIMES)),
        # Up to 1e4 at N <= 64 reaches the folded band (W >= N) as well.
        beta=st.one_of(
            st.floats(min_value=0.0, max_value=60.0),
            st.floats(min_value=0.0, max_value=1e4),
        ),
        b_q=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)),
        where=st.sampled_from(("first", "middle", "last")),
        n_periods=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_evolve_matches_oracle_product(self, n_sites, beta, b_q, where, n_periods, seed):
        if beta > 60.0:
            n_sites = min(n_sites, 64)
        center = {"first": 1, "middle": (n_sites + 1) // 2, "last": n_sites}[where]
        p = ChainParams(n_sites=n_sites, center=center, beta=beta, b_q=b_q)
        ctx = make_context(p)
        start = site_state(n_sites, center)

        traj = evolve(start, ctx, n_periods)
        u = kick_phases(p)[:, None] * uhc_matrix(p, 1.0)
        want = start.amplitudes
        for period, state in traj:
            assert np.max(np.abs(state.amplitudes - want)) < 1e-10
            assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)
            want = u @ want
        assert traj.periods == tuple(range(n_periods + 1))

        rng = np.random.default_rng(seed)
        amps = rng.normal(size=n_sites) + 1j * rng.normal(size=n_sites)
        state = SpinState(amps / np.linalg.norm(amps))
        back = step_period_inverse(evolve(state, ctx, 1).final, ctx)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12

    def test_folded_band_matches_oracle(self, make_random_state):
        # W = beta + 10 beta^(1/3) + 30 >> N: the taps fold onto the 2N
        # ring, and no context array grows with beta.
        n = 33
        p = ChainParams(n_sites=n, center=17, beta=1e6, b_q=0.3)
        ctx = make_context(p)
        assert ctx.pad == n
        assert max(ctx.band_taps.size, ctx.kick_factors.size) <= 2 * n + 1
        state = make_random_state(n)
        got = evolve(state, ctx, 3).final.amplitudes
        u = kick_phases(p)[:, None] * uhc_matrix(p, 1.0)
        want = u @ (u @ (u @ state.amplitudes))
        assert np.max(np.abs(got - want)) < 1e-9


def _band(beta):
    """The band W of the chain module docstring."""
    return int(np.ceil(beta + 10.0 * beta ** (1.0 / 3.0) + 30.0))


@pytest.mark.parametrize("beta,bound", [(1.0, 1e-16), (100.0, 1e-16), (2e4, 1e-16), (1e7, 5e-15)])
def test_dropped_taps_below_stated_bound(beta, bound):
    # The module docstring's claim, from Bessel functions rather than the
    # taps evolve uses: sum over |d| > W of |J_d(beta)| (both signs of d).
    band = _band(beta)
    d = np.arange(band + 1, band + 4001)
    assert 2.0 * np.sum(np.abs(jv(d, beta))) < bound


# Fixed before any run: the l2 error may grow by (1 + beta) * eps per
# period (the phases beta*(1 - cos) carry beta*eps, the FFTs eps) times
# this constant.
ORACLE_C = 10.0


@pytest.mark.parametrize("beta", [0.0, 1.0, 20.0, 100.0, 1e3, 1e4])
def test_band_taps_depend_on_beta_alone(beta):
    # While W < N the taps come from a ring of a few times W, not of N,
    # and agree with the kicked-rotor taps exp(-i beta) i^d J_d(beta) to
    # the phase rounding bound fixed before any run (ORACLE_C).
    band = _band(beta)
    taps = _band_taps(band + 1, beta)
    for n_sites in (band + 2, 2 * band + 7, 65537):
        assert np.array_equal(_band_taps(n_sites, beta), taps)
    d = np.arange(-band, band + 1)
    bessel = np.exp(-1j * beta) * np.array([1, 1j, -1, -1j])[d % 4] * jv(d, beta)
    eps = np.finfo(np.float64).eps
    assert np.max(np.abs(taps - bessel)) <= ORACLE_C * (1.0 + beta) * eps


@pytest.mark.parametrize("n_sites,beta", [(2, 0.0), (33, 1e6), (64, 1e4), (177, 100.0)])
def test_folded_band_taps_are_the_2n_ring(n_sites, beta):
    # W >= N: the 2N ring's taps, its offset N split between d = -N and
    # d = +N, bit for bit.
    assert _band(beta) >= n_sites
    want = ring_taps(2 * n_sites, beta)[np.arange(-n_sites, n_sites + 1) % (2 * n_sites)]
    want[[0, -1]] *= 0.5
    assert np.array_equal(_band_taps(n_sites, beta), want)


def _sites_state(n_sites, sites, seed=0):
    rng = np.random.default_rng(seed)
    amps = np.zeros(n_sites, dtype=np.complex128)
    amps[sites] = rng.normal(size=len(sites)) + 1j * rng.normal(size=len(sites))
    return SpinState(amps / np.linalg.norm(amps))


def _full_chain_periods(start, ctx, n_periods):
    """Amplitudes at periods 0..n_periods from one _ring_hop over all N
    sites and the kick per period: the reference loop with no light cone."""
    length = next_fast_len(start.n_sites + 2 * ctx.pad)
    spectrum = _tap_spectrum(ctx.band_taps, length)
    buf = np.zeros(length, dtype=np.complex128)
    amps, out = start.amplitudes, [start.amplitudes]
    for _ in range(n_periods):
        amps = _ring_hop(amps, ctx.pad, spectrum, buf) * ctx.kick_factors
        out.append(amps)
    return out


N_CONE = 2001
CONE_STARTS = {
    "first site": [0],
    "last site": [N_CONE - 1],
    "centre": [1000],
    "off centre": [612],
    "several sites": [700, 703, 704, 760],
    "both ends": [0, 1000, N_CONE - 1],
    "wide support": [600, 1000, 1400],
}
P_CONE = ChainParams(n_sites=N_CONE, center=1001, beta=20.0, b_q=0.3)
# The longest segment below rung 0, ceil(N / sqrt(2)) = 1415 sites.
TOP_SUB_RUNG = int(np.ceil(N_CONE / np.sqrt(2.0)))


class TestLightCone:
    """evolve hops only the segment the excitation can have reached; it
    must agree with the full-chain loop and keep exact zeros outside."""

    @pytest.mark.parametrize("where", sorted(CONE_STARTS))
    def test_matches_full_chain_loop(self, where):
        # W = 78 at beta = 20: the cone outgrows the top sub-rung after 4
        # (wide support) to 19 (an end) periods, so snapshot 3, and 6, 9,
        # ... for narrower starts, is taken while evolve still hops a
        # segment; for "wide support" that segment is the top sub-rung.
        ctx = make_context(P_CONE)
        start = _sites_state(N_CONE, CONE_STARTS[where])
        traj = evolve(start, ctx, 14, record_every=3)
        assert traj.periods == (0, 3, 6, 9, 12, 14)
        want = _full_chain_periods(start, ctx, 14)

        support = np.flatnonzero(start.amplitudes)
        lo, hi = support[0], support[-1] + 1
        site = np.arange(N_CONE)
        exact_periods = []
        for j, state in traj:
            assert np.max(np.abs(state.amplitudes - want[j])) < 1e-13
            cone_lo, cone_hi = lo - ctx.pad * j, hi + ctx.pad * j
            if min(cone_hi, N_CONE) - max(cone_lo, 0) <= TOP_SUB_RUNG:
                outside = (site < cone_lo) | (site >= cone_hi)
                assert np.all(state.amplitudes[outside] == 0.0)
                exact_periods.append(j)
        if where != "both ends":
            assert 3 in exact_periods

        back = traj.final
        for _ in range(14):
            back = step_period_inverse(back, ctx)
        assert np.max(np.abs(back.amplitudes - start.amplitudes)) < 1e-12

    @pytest.mark.parametrize("case", ["both ends", "centre from period 9", "folded band"])
    def test_whole_chain_rung_is_the_full_chain_loop(self, case):
        # Rung 0 writes back every site, so each of these starts, whose
        # cone is wider than the top sub-rung from the first period, runs
        # the full-chain loop bit for bit.  From the period-9 state of
        # three random sites about the centre (not mirror symmetric, so
        # evolve keeps the full chain) the cone is 1563 of 2001 sites at
        # the first period: the sites outside it carry the full hop's
        # rounding, not zeros.
        if case == "folded band":
            ctx = make_context(ChainParams(n_sites=33, center=17, beta=1e6, b_q=0.3))
            start = _sites_state(33, [16])
        elif case == "both ends":
            ctx = make_context(P_CONE)
            start = _sites_state(N_CONE, CONE_STARTS["both ends"])
        else:
            ctx = make_context(P_CONE)
            start = evolve(_sites_state(N_CONE, [999, 1000, 1001]), ctx, 9).final
            assert not np.array_equal(start.amplitudes, start.amplitudes[::-1])
        want = _full_chain_periods(start, ctx, 14)
        for j, state in evolve(start, ctx, 14):
            assert np.array_equal(state.amplitudes, want[j])

    @pytest.mark.parametrize("split", [1, 3, 6, 9])
    def test_restart_is_bit_for_bit(self, split):
        # From the centre the cone passes the top sub-rung at period 10
        # and the whole chain at period 13: a restart at any period climbs
        # the same rungs and writes back the same sites.
        ctx = make_context(P_CONE)
        start = _sites_state(N_CONE, CONE_STARTS["centre"])
        whole = evolve(start, ctx, 14).final
        head = evolve(start, ctx, split).final
        assert np.array_equal(evolve(head, ctx, 14 - split).final.amplitudes, whole.amplitudes)


def _mirrored_state(n_sites, seed=0):
    """Random amplitudes on every site, equal to their reverse bit for bit."""
    rng = np.random.default_rng(seed)
    half = rng.normal(size=(n_sites + 1) // 2) + 1j * rng.normal(size=(n_sites + 1) // 2)
    amps = np.concatenate((half[n_sites % 2:][::-1], half))
    amps /= np.linalg.norm(amps)
    assert np.array_equal(amps, amps[::-1])
    return SpinState(amps)


def _one_ulp_off(state):
    amps = state.amplitudes.copy()
    amps[3] = np.nextafter(amps[3].real, np.inf) + 1j * amps[3].imag
    return SpinState(amps)


DISPATCH = {
    "asymmetric start": (P_CONE, lambda: _sites_state(N_CONE, range(N_CONE))),
    "off-centre kick": (ChainParams(n_sites=N_CONE, center=1000, beta=20.0, b_q=0.3),
                        lambda: _mirrored_state(N_CONE)),
    "even N": (ChainParams(n_sites=2000, center=1000, beta=20.0, b_q=0.3),
               lambda: _mirrored_state(2000)),
    "folded band": (ChainParams(n_sites=33, center=17, beta=1e6, b_q=0.3),
                    lambda: _mirrored_state(33)),
    "symmetric to 1 ulp": (P_CONE, lambda: _one_ulp_off(_mirrored_state(N_CONE))),
}


class TestMirrorHalf:
    """A start equal to its reverse, kicked about the middle site of an
    odd chain with the band inside the half, hops sites center..N only;
    every other start keeps the full chain."""

    @pytest.fixture
    def edges(self, monkeypatch):
        # The centre-edge flag of every _ring_hop call evolve makes.
        real, seen = _ring_hop, []

        def spy(amps, pad, spectrum, buf, centre=False):
            seen.append(centre)
            return real(amps, pad, spectrum, buf, centre)

        monkeypatch.setattr("kickedchain.chain._ring_hop", spy)
        return seen

    @pytest.mark.parametrize("case", sorted(DISPATCH))
    def test_other_starts_run_the_full_chain_loop(self, case, edges):
        p, make_start = DISPATCH[case]
        ctx = make_context(p)
        start = make_start()
        want = _full_chain_periods(start, ctx, 6)
        for j, state in evolve(start, ctx, 6):
            assert np.array_equal(state.amplitudes, want[j])
        assert edges and not any(edges)

    def test_symmetric_start_hops_the_half(self, edges):
        # The whole-chain start of "symmetric to 1 ulp", bit-exact: it
        # takes the half path, whose every snapshot is its own mirror.
        ctx = make_context(P_CONE)
        start = _mirrored_state(N_CONE)
        want = _full_chain_periods(start, ctx, 6)
        per_period = ORACLE_C * (1.0 + P_CONE.beta) * np.finfo(np.float64).eps
        for j, state in evolve(start, ctx, 6):
            assert np.array_equal(state.amplitudes, state.amplitudes[::-1])
            assert np.linalg.norm(state.amplitudes - want[j]) <= per_period * j
        assert edges and all(edges)

    def test_band_wider_than_the_half_keeps_the_full_chain(self, edges):
        # P = 78 at beta = 20 needs (N - 1)/2 >= 78 sites past the centre.
        p = ChainParams(n_sites=155, center=78, beta=20.0, b_q=0.3)
        ctx = make_context(p)
        assert ctx.pad == 78 > (p.n_sites - 1) // 2
        start = _mirrored_state(p.n_sites)
        want = _full_chain_periods(start, ctx, 3)
        for j, state in evolve(start, ctx, 3):
            assert np.array_equal(state.amplitudes, want[j])
        assert not any(edges)
        edges.clear()
        wider = ChainParams(n_sites=157, center=79, beta=20.0, b_q=0.3)
        evolve(_mirrored_state(157), make_context(wider), 3)
        assert all(edges)


def _mirror_ring_periods(start, p, n_periods):
    """Exact open-chain periods with no band: the hop is the 2N ring's,
    ifft(fft([a, a[::-1]]) * exp(-i*beta*(1 - cos(pi*k/N))))[:N] with k
    folded to min(k, 2N - k), then the kick."""
    n = p.n_sites
    k = np.arange(2 * n)
    k = np.minimum(k, 2 * n - k)
    hop = np.exp(-1j * p.beta * (1.0 - np.cos(np.pi * k / n)))
    kick = np.exp(-0.5j * p.b_q * (np.arange(n) - (p.center - 1)) ** 2.0)
    amps, out = start.amplitudes, [start.amplitudes]
    for _ in range(n_periods):
        amps = np.fft.ifft(np.fft.fft(np.concatenate([amps, amps[::-1]])) * hop)[:n] * kick
        out.append(amps)
    return out


@pytest.mark.parametrize("n_sites", [1401, 65537])
def test_evolve_matches_mirror_ring_oracle(n_sites):
    beta = 100.0
    p = ChainParams(n_sites=n_sites, center=(n_sites + 1) // 2, beta=beta,
                    b_q=2.0 * np.pi * 1.06 / beta)
    start = site_state(n_sites, p.center)
    traj = evolve(start, make_context(p), 5)
    want = _mirror_ring_periods(start, p, 5)
    eps = np.finfo(np.float64).eps
    for j, state in traj:
        assert np.linalg.norm(state.amplitudes - want[j]) <= ORACLE_C * (1.0 + beta) * eps * j


def _check_against_oracle(n_sites, beta, b_q, center, where, n_periods, seed, mirror=False):
    """evolve from a few random sites against the mirror-ring oracle, then
    back through step_period_inverse, each period within ORACLE_C.

    A ``mirror`` start is made equal to its reverse, on an odd chain kicked
    at its middle site and lengthened until the band fits in its half, so
    evolve hops the half: every snapshot must then be its own reverse."""
    if mirror:
        n_sites, center = max(n_sites, 2 * _band(beta) + 1) | 1, 0.5
    p = ChainParams(n_sites=n_sites, center=1 + round(center * (n_sites - 1)),
                    beta=beta, b_q=b_q)
    ctx = make_context(p)
    start = _sites_state(n_sites, sorted({round(w * (n_sites - 1)) for w in where}), seed)
    if mirror:
        amps = start.amplitudes + start.amplitudes[::-1]
        start = SpinState(amps / np.linalg.norm(amps))
    traj = evolve(start, ctx, n_periods)
    want = _mirror_ring_periods(start, p, n_periods)
    per_period = ORACLE_C * (1.0 + beta) * np.finfo(np.float64).eps
    for j, state in traj:
        assert np.linalg.norm(state.amplitudes - want[j]) <= per_period * j
        if mirror:
            assert np.array_equal(state.amplitudes, state.amplitudes[::-1])
    back = traj.final
    for _ in range(n_periods):
        back = step_period_inverse(back, ctx)
    assert np.linalg.norm(back.amplitudes - start.amplitudes) <= per_period * 2 * n_periods


_SWEEP = dict(
    beta=st.one_of(st.floats(min_value=0.0, max_value=300.0),
                   st.floats(min_value=0.0, max_value=1e4)),
    b_q=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)),
    center=st.floats(min_value=0.0, max_value=1.0),
    where=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=3),
    n_periods=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


# The same draws with beta up to 1e5, where the band W is about 1e5 sites:
# a short chain folds it, a long one takes it on the light-cone ladder.
_SWEEP_TO_1E5 = dict(
    _SWEEP,
    beta=st.one_of(st.floats(min_value=0.0, max_value=300.0),
                   st.floats(min_value=0.0, max_value=1e5)),
)


@settings(max_examples=25, deadline=None)
@given(n_sites=st.integers(min_value=2, max_value=4000), **_SWEEP_TO_1E5)
def test_oracle_sweep(n_sites, beta, b_q, center, where, n_periods, seed):
    # Light-cone rungs, the tap ring and the folded band (W >= N) over
    # random chains, with no dense oracle's size cap.
    _check_against_oracle(n_sites, beta, b_q, center, where, n_periods, seed)


def _five_smooth(lo, hi):
    """The integers in [lo, hi] with no prime factor above 5."""
    found = []
    for p2 in range(hi.bit_length()):
        for p3 in range(12):
            for p5 in range(9):
                n = 2**p2 * 3**p3 * 5**p5
                if lo <= n <= hi:
                    found.append(n)
    return tuple(sorted(found))


# N with 2N 5-smooth, so the oracle's 2N-point FFTs stay fast; few draws,
# as each costs up to about 0.9 s at beta = 1e5.
LARGE_N = _five_smooth(50_000, 250_000)
ODD_LARGE_N = tuple(n for n in LARGE_N if n % 2)


@settings(max_examples=3, deadline=None)
@given(n_sites=st.sampled_from(LARGE_N), **_SWEEP_TO_1E5)
def test_oracle_sweep_large_n(n_sites, beta, b_q, center, where, n_periods, seed):
    _check_against_oracle(n_sites, beta, b_q, center, where, n_periods, seed)



@settings(max_examples=25, deadline=None)
@given(n_sites=st.integers(min_value=3, max_value=4001), **_SWEEP)
def test_symmetric_oracle_sweep(n_sites, beta, b_q, center, where, n_periods, seed):
    # The half path: its light-cone rungs, its centre edge and its open end.
    _check_against_oracle(n_sites, beta, b_q, center, where, n_periods, seed, mirror=True)


@settings(max_examples=3, deadline=None)
@given(n_sites=st.sampled_from(ODD_LARGE_N), **_SWEEP_TO_1E5)
# A start at the middle site meets the centre edge from the first period.
@example(n_sites=84375, beta=300.0, b_q=0.1, center=0.5, where=[0.5], n_periods=5, seed=0)
# The band at beta = 1e5 needs N >= 200,991 to fit in the half: 234,375.
@example(n_sites=84375, beta=1e5, b_q=0.1, center=0.5, where=[0.5, 0.1], n_periods=3, seed=1)
def test_symmetric_oracle_sweep_large_n(n_sites, beta, b_q, center, where, n_periods, seed):
    # Lengthen to the next odd N of the list whose half holds the band, so
    # the run takes the half path and 2N stays 5-smooth.
    n_sites = min(n for n in ODD_LARGE_N if n >= max(n_sites, 2 * _band(beta) + 1))
    _check_against_oracle(n_sites, beta, b_q, center, where, n_periods, seed, mirror=True)
