import numpy as np
import pytest
import scipy.linalg
from scipy.fft import next_fast_len

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
from kickedchain.chain import _cosine_modes, _ring_hop, kick_phases

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
        via_transform = _ring_hop(state.amplitudes, ctx.pad, ctx.tap_spectrum, ctx.hop_buffer())
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
        assert max(ctx.tap_spectrum.size, ctx.kick_factors.size) <= next_fast_len(3 * n)
        state = make_random_state(n)
        got = evolve(state, ctx, 3).final.amplitudes
        u = kick_phases(p)[:, None] * uhc_matrix(p, 1.0)
        want = u @ (u @ (u @ state.amplitudes))
        assert np.max(np.abs(got - want)) < 1e-9
