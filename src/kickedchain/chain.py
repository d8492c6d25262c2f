"""Core evolution of the kicked chain in its single-excitation sector.

One driving period consists of free exchange hopping for the full period
followed by an instantaneous parabolic phase kick:

    step = kick o hop,
    hop  : eigenmode m picks up exp(-i * phi_m),  phi_m = beta * (1 - cos(pi*(m-1)/N)),
    kick : site r picks up exp(-i * (b_q/2) * (r - center)**2).

The open-chain hopping eigenmodes are the orthonormal cosine modes

    G[m, j] = a_m * cos(pi/(2N) * (m-1) * (2j-1)),   a_m = sqrt((2 - delta_{m,1})/N),

i.e. exactly the orthonormal type-II discrete cosine transform, so the
hop is a DCT-II, a phase multiply and a DCT-III.  That is the one
evolution path, and the chain is always open: the ring that matches the
kicked rotor exactly is ``qkr.ring_propagator``.  The dense matrices built
here (``uhc_matrix``, ``oracle_hamiltonian``) are size-capped test oracles
only.  Snapshots are always taken immediately after the kick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dct, idct

from .errors import CapacityError, DimensionMismatchError, MemoryBudgetError
from .params import ChainParams
from .state import SpinState

DENSE_CAP = 4096
MAX_SNAPSHOT_VALUES = 20_000_000


def hop_eigenphases(n_sites: int, beta: float) -> np.ndarray:
    """Per-period phases beta * (1 - cos(pi*(m-1)/N)) for m = 1..N (nondecreasing)."""
    m = np.arange(n_sites, dtype=np.float64)
    return beta * (1.0 - np.cos(np.pi * m / n_sites))


def _cosine_modes(n_sites: int) -> np.ndarray:
    """N x N orthogonal matrix whose row m is cosine mode m, built entry by
    entry (never through the DCT) so the oracles stay independent of evolve."""
    n = n_sites
    m = np.arange(n, dtype=np.float64)[:, None]
    j = np.arange(n, dtype=np.float64)[None, :]
    g = np.sqrt(2.0 / n) * np.cos(np.pi / (2.0 * n) * m * (2.0 * j + 1.0))
    g[0, :] = np.sqrt(1.0 / n)
    return g


def oracle_hamiltonian(p: ChainParams) -> np.ndarray:
    """Independent dense Hamiltonian for cross-checking the cosine modes.

    Built directly from the exchange coupling in the single-excitation
    sector, in phase units per period (2*J*T0 = beta): hopping -beta/2 on
    nearest-neighbor bonds plus a diagonal (beta/2) * (number of bonds
    touching the site).  The end sites touch one bond and the bulk two,
    which makes the cosine modes exact eigenvectors with eigenvalues
    beta * (1 - cos(pi*(m-1)/N)).
    """
    n = p.n_sites
    if n > DENSE_CAP:
        raise CapacityError(
            f"oracle_hamiltonian is dense-only: n_sites={n} exceeds cap {DENSE_CAP}"
        )
    half = 0.5 * p.beta
    h = np.zeros((n, n), dtype=np.float64)
    idx = np.arange(n - 1)
    h[idx, idx + 1] = -half
    h[idx + 1, idx] = -half
    bonds = np.full(n, 2.0)
    bonds[0] = 1.0
    bonds[-1] = 1.0
    h[np.arange(n), np.arange(n)] = half * bonds
    return h


def uhc_matrix(p: ChainParams, periods: float) -> np.ndarray:
    """Dense hopping propagator over ``periods`` driving periods (test oracle).

    Entry (r, s) = sum_m a_m^2 exp(-i*phi_m*periods) cos-mode_m(r) cos-mode_m(s).
    Sizes above DENSE_CAP raise CapacityError; ``evolve`` has no such
    limit.
    """
    if p.n_sites > DENSE_CAP:
        raise CapacityError(
            f"dense propagator for n_sites={p.n_sites} exceeds cap {DENSE_CAP}; "
            "evolve has no such limit"
        )
    g = _cosine_modes(p.n_sites)
    d = np.exp(-1j * hop_eigenphases(p.n_sites, p.beta) * periods)
    return g.T @ (d[:, None] * g)


def _hop_transform(amps: np.ndarray, phase_factors: np.ndarray) -> np.ndarray:
    """Apply the hop via the orthonormal DCT-II/III pair (O(N log N))."""
    return idct(phase_factors * dct(amps, type=2, norm="ortho"), type=2, norm="ortho")


def kick_phases(p: ChainParams) -> np.ndarray:
    """Site-diagonal kick factors exp(-i * (b_q/2) * (site - center)**2)."""
    offsets = np.arange(p.n_sites, dtype=np.float64) - (p.center - 1)
    return np.exp(-0.5j * p.b_q * offsets**2)


@dataclass(frozen=True, eq=False)
class EvolutionContext:
    """Parameters plus the read-only one-period factors they imply: hop
    factors act on cosine-mode amplitudes, kick factors on site amplitudes."""

    params: ChainParams
    hop_factors: np.ndarray
    kick_factors: np.ndarray


def make_context(p: ChainParams) -> EvolutionContext:
    """Precompute one period's factors."""
    hop = np.exp(-1j * hop_eigenphases(p.n_sites, p.beta))
    kick = kick_phases(p)
    hop.setflags(write=False)
    kick.setflags(write=False)
    return EvolutionContext(params=p, hop_factors=hop, kick_factors=kick)


def _check_sites(state: SpinState, p: ChainParams) -> None:
    if state.n_sites != p.n_sites:
        raise DimensionMismatchError(
            f"state has {state.n_sites} sites but params have {p.n_sites}"
        )


def step_period(state: SpinState, ctx: EvolutionContext) -> SpinState:
    """One full driving period: hop for one period, then kick."""
    _check_sites(state, ctx.params)
    return SpinState(_hop_transform(state.amplitudes, ctx.hop_factors) * ctx.kick_factors)


def step_period_inverse(state: SpinState, ctx: EvolutionContext) -> SpinState:
    """Exact inverse of step_period: conjugate kick, then hop backwards."""
    _check_sites(state, ctx.params)
    amps = state.amplitudes * np.conj(ctx.kick_factors)
    return SpinState(_hop_transform(amps, np.conj(ctx.hop_factors)))


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of an evolution, taken immediately after the kick."""

    periods: tuple[int, ...]
    states: tuple[SpinState, ...]

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(zip(self.periods, self.states))

    @property
    def final(self) -> SpinState:
        return self.states[-1]


def evolve(
    initial: SpinState,
    ctx: EvolutionContext,
    n_periods: int,
    record_every: int = 1,
) -> Trajectory:
    """Drive ``initial`` for ``n_periods`` periods, recording snapshots.

    Snapshots are stored at period 0, at every multiple of ``record_every``,
    and at the final period, at most MAX_SNAPSHOT_VALUES amplitudes in all
    (MemoryBudgetError otherwise).  Each period is one cosine-transform hop
    and one kick on the raw amplitude array; only recorded snapshots become
    SpinState values.
    """
    p = ctx.params
    _check_sites(initial, p)
    if n_periods < 0:
        raise ValueError("n_periods must be nonnegative")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")

    n_snapshots = 1 + n_periods // record_every + (1 if n_periods % record_every else 0)
    if n_snapshots * p.n_sites > MAX_SNAPSHOT_VALUES:
        raise MemoryBudgetError(
            f"{n_snapshots} snapshots x {p.n_sites} sites exceeds the budget of "
            f"{MAX_SNAPSHOT_VALUES} stored amplitudes; increase record_every"
        )

    hop, kick = ctx.hop_factors, ctx.kick_factors
    periods = [0]
    states = [initial]
    amps = initial.amplitudes
    for j in range(1, n_periods + 1):
        amps = _hop_transform(amps, hop) * kick
        if j % record_every == 0 or j == n_periods:
            periods.append(j)
            states.append(SpinState(amps))
    return Trajectory(periods=tuple(periods), states=tuple(states))
