"""Core evolution of the kicked chain in its single-excitation sector.

One driving period consists of free exchange hopping for the full period
followed by an instantaneous parabolic phase kick:

    step = kick o hop,
    hop  : eigenmode m picks up exp(-i * phi_m),  phi_m = beta * (1 - cos(pi*(m-1)/N)),
    kick : site r picks up exp(-i * (b_q/2) * (r - center)**2).

The open chain is the half-sample-symmetric 2N ring: mirroring the N
sites (x_1..x_N, x_N..x_1, periodically) turns the open-chain hop into the
ring's, whose propagator is a convolution with the kicked-rotor taps

    c_d = exp(-i*beta) * i**d * J_d(beta).

So the hop is a banded ring-kernel convolution: mirror-pad the state by
P sites on each side, convolve it with the taps |d| <= P by one FFT pair of
length next_fast_len(N + 2P), and keep the N central outputs.  The band is
W = ceil(beta + 10*beta**(1/3) + 30); the taps beyond it sum to below
1e-16 for beta <= 2e4 (5e-15 at beta = 1e7), under the rounding of the
phases beta*(1 - cos k) themselves.  For W < N, P = W.  For W >= N the
taps are folded onto the 2N ring (its 2N distinct offsets, exact with no
truncation) and P = N, so memory grows with N and never with beta.  The
taps come from an inverse FFT of the ring eigenphases (``ring_taps``),
never from Bessel functions: for W < N on a ring of next_fast_len(4W)
sites, whose aliases lie 3W and more out in the tail, so they cost O(W)
and depend on beta alone; for W >= N on the 2N ring itself.
``validate`` holds ``ring_taps`` to ``qkr.ring_kick_column``, the
rotor's Bessel column, so the Bessel check sees the production taps.

The banded hop moves amplitude at most P sites per period, so a state
that starts on a few sites has a strict light cone, and ``evolve`` hops
only the shortest segment on the ladder ceil(N/2**(k/2)) that holds it,
in place in one mirror-padded array.  A start mirror symmetric about the
middle site of an odd chain, kicked there, stays so (the hop and the kick
commute with r -> N + 1 - r), and ``evolve`` then hops only its sites
center..N.  Its docstring gives both rules and why they are exact.
``step_period_inverse`` runs ``evolve`` too, by time reversal.

Every FFT here (``_fft``, ``_ifft``) calls pocketfft's compiled ``c2c``
kernel with the arguments ``scipy.fft.fft`` and ``ifft`` pass it, so the
bits are the same, and skips their uarray dispatch and argument checks:
about 3.3 and 4.2 us per call at length 864, against 6.0 and 7.2 us for
the kernel (shared 2-vCPU Xeon, best of 7), 28% of a period of
``evolve`` at N = 1401, beta = 20.

The kernel's module, ``scipy.fft._pocketfft.pypocketfft``, is loaded
from its file (``_load_pocketfft``), never through ``import scipy.fft``:
that package's Python code, ``scipy.special`` included, took 0.13 s of
a 0.19 s ``import kickedchain`` (``-X importtime``, median of 7, shared
2-vCPU Xeon), longer than a default run's periods, and the hop uses
none of it.  The import now takes 0.06 s, 0.034 s of it numpy's.
``next_fast_len`` is the module's ``good_size``, which
``scipy.fft.next_fast_len`` wraps in a cache.  Where SciPy's layout
hides the file, the plain import loads the same kernel: that costs time,
never bits.

The cosine modes G[m, j] = a_m * cos(pi/(2N) * (m-1) * (2j-1)) (the
orthonormal DCT-II) diagonalize the hop; they, and the dense matrices
built from them here (``uhc_matrix``, ``oracle_hamiltonian``), are
size-capped test oracles only.  The chain is always open: the ring that
matches the kicked rotor exactly is the circulant of ``ring_taps``.
Snapshots are always taken immediately after the kick.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, MemoryBudgetError
from .params import ChainParams
from .state import SpinState, check_sites

DENSE_CAP = 4096
MAX_SNAPSHOT_VALUES = 20_000_000

_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


def _load_pocketfft():
    """SciPy's compiled pocketfft module, loaded from its file so that no
    ``scipy.fft`` package code runs (see the module docstring).  If
    SciPy's layout hides the file, the plain import loads the same
    kernel."""
    scipy_spec = importlib.util.find_spec("scipy")
    spec = scipy_spec and importlib.machinery.PathFinder.find_spec(_POCKETFFT, [
        os.path.join(d, "fft", "_pocketfft") for d in scipy_spec.submodule_search_locations
    ])
    if spec is None:
        from scipy.fft._pocketfft import pypocketfft

        return pypocketfft
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_pocketfft = _load_pocketfft()
_c2c = _pocketfft.c2c
# scipy.fft.next_fast_len(n) is good_size(n, real=False), behind a cache.
_next_fast_len = _pocketfft.good_size


def hop_eigenphases(n_sites: int, beta: float) -> np.ndarray:
    """Per-period phases beta * (1 - cos(pi*(m-1)/N)) for m = 1..N (nondecreasing)."""
    m = np.arange(n_sites, dtype=np.float64)
    return beta * (1.0 - np.cos(np.pi * m / n_sites))


def _cosine_modes(n_sites: int) -> np.ndarray:
    """N x N orthogonal matrix whose row m is cosine mode m, built entry by
    entry (never through a transform) so the oracles stay independent of
    evolve."""
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


def _fft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``scipy.fft.fft(a)`` of a 1-D complex array, into ``out`` (may be ``a``)."""
    return _c2c(a, (0,), True, 0, out, 1)


def _ifft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``scipy.fft.ifft(a)`` of a 1-D complex array, into ``out`` (may be ``a``)."""
    return _c2c(a, (0,), False, 2, out, 1)


def ring_taps(ring: int, beta: float) -> np.ndarray:
    """One-period hop taps on a ring of ``ring`` sites, entry d mod ring:
    the inverse FFT of the eigenphases beta * (1 - cos(2*pi*k/ring)).

    Modes k and ring - k get one phase, bit for bit, so the taps stay
    symmetric in d and the mirrored (open-chain) subspace keeps its norm.
    """
    k = np.arange(ring)
    k = np.minimum(k, ring - k).astype(np.float64)
    return _ifft(np.exp(-1j * beta * (1.0 - np.cos(2.0 * np.pi * k / ring))))


def _band_taps(n_sites: int, beta: float) -> np.ndarray:
    """The hop taps d = -P..P (entry d + P; see the module docstring): the
    inverse FFT of the ring eigenphases.  When the band W < N the ring has
    next_fast_len(4W) sites, so its aliases sit at offsets of 3W and more,
    far out in the tail below 1e-16, and the taps depend on beta alone;
    else it is the 2N ring, exact."""
    band = int(np.ceil(beta + 10.0 * beta ** (1.0 / 3.0) + 30.0))
    pad = min(band, n_sites)
    ring = _next_fast_len(4 * pad) if band < n_sites else 2 * n_sites
    taps = ring_taps(ring, beta)[np.arange(-pad, pad + 1) % ring]
    if pad == n_sites:
        # d = +N and -N are one offset of the 2N ring: split it evenly so
        # the taps stay symmetric and conj(spectrum) is the inverse hop.
        taps[[0, -1]] *= 0.5
    return taps


def _tap_spectrum(taps: np.ndarray, length: int) -> np.ndarray:
    """FFT of the band ``taps`` zero-padded to ``length``, tap d at d mod length."""
    pad = taps.size // 2
    h = np.zeros(length, dtype=np.complex128)
    h[np.arange(-pad, pad + 1) % length] = taps
    return _fft(h)


def _padded(amps: np.ndarray, pad: int, size: int, centre: bool):
    """``size`` entries: ``amps`` between ``pad``-site mirror pads (as
    ``np.pad(amps, pad, mode="symmetric")``), then zeros; and the two
    (pad, mirrored sites) view pairs that refill the pads.  With ``centre``,
    ``amps[0]`` is the centre site of a mirror symmetric chain, so the left
    pad is the whole-sample mirror ``amps[1:pad+1][::-1]``."""
    n, skip = amps.size, int(centre)
    state = np.zeros(size, dtype=np.complex128)
    state[pad:pad + n] = amps
    ends = ((state[:pad], state[pad + skip:2 * pad + skip][::-1]),
            (state[pad + n:2 * pad + n], state[n:pad + n][::-1]))
    for end, sites in ends:
        end[:] = sites
    return state, ends


def kick_phases(p: ChainParams) -> np.ndarray:
    """Site-diagonal kick factors exp(-i * (b_q/2) * (site - center)**2),
    evaluated once per distance from the centre and mirrored onto its two
    sides (d**2 is exact, so this is the direct formula bit for bit)."""
    n, c = p.n_sites, p.center - 1
    d = np.arange(max(c, n - 1 - c) + 1, dtype=np.float64)
    half = np.exp(-0.5j * p.b_q * d**2)
    kick = np.empty(n, dtype=np.complex128)
    kick[c:] = half[:n - c]
    kick[:c] = half[c:0:-1]
    return kick


@dataclass(frozen=True, eq=False)
class EvolutionContext:
    """Parameters plus the read-only one-period factors they imply: the
    hop's mirror padding, its band taps (O(W) to build while W < N) and
    the site kick factors.  Each segment length's tap spectrum is built
    from the band taps where it is needed, one per rung of ``evolve``'s
    ladder ceil(N / 2**(k/2))."""

    params: ChainParams
    band_taps: np.ndarray
    kick_factors: np.ndarray

    @property
    def pad(self) -> int:
        """Sites of mirror padding on each side: the band's half-width."""
        return self.band_taps.size // 2


def make_context(p: ChainParams) -> EvolutionContext:
    """Precompute one period's factors."""
    taps = _band_taps(p.n_sites, p.beta)
    kick = kick_phases(p)
    for arr in (taps, kick):
        arr.setflags(write=False)
    return EvolutionContext(params=p, band_taps=taps, kick_factors=kick)


def step_period_inverse(state: SpinState, ctx: EvolutionContext) -> SpinState:
    """Exact inverse of one period of ``evolve`` by time reversal: the hop U is
    symmetric and unitary and the kick K diagonal, so the period F = K U has
    F^-n psi = K conj(F^n(K conj(psi))), here n = 1: a mirror symmetric state's
    inverse is exactly so.  Above MAX_SNAPSHOT_VALUES sites: MemoryBudgetError."""
    check_sites(state, ctx.params.n_sites)
    forward = evolve(SpinState(ctx.kick_factors * np.conj(state.amplitudes)), ctx, 1).final
    return SpinState(ctx.kick_factors * np.conj(forward.amplitudes))


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


def _ladder(n_sites: int, k: int) -> int:
    """Rung k of the segment ladder, ceil(N / 2**(k/2)): the smallest s
    with s*s * 2**k >= N*N, in integers so a restart climbs the same rungs."""
    return math.isqrt(-(-n_sites * n_sites >> k) - 1) + 1


def _rung(n_sites: int, width: int) -> int:
    """The shortest rung that holds ``width`` sites (2 <= width <= N).
    Rung k holds it exactly while (width - 1)**2 * 2**k < N*N."""
    return _ladder(n_sites, ((n_sites * n_sites - 1) // (width - 1) ** 2).bit_length() - 1)


def evolve(
    initial: SpinState,
    ctx: EvolutionContext,
    n_periods: int,
    record_every: int = 1,
) -> Trajectory:
    """Drive ``initial`` for ``n_periods`` periods, recording snapshots.

    Snapshots are stored at period 0, at every multiple of ``record_every``,
    and at the final period.  Period 0 is ``initial`` itself, held by
    reference, so only the snapshots recorded after it count against the
    budget of MAX_SNAPSHOT_VALUES amplitudes (MemoryBudgetError otherwise).
    Each period is one banded ring-kernel hop and one kick, in place in
    one array: the sites between the chain ends' mirror pads, then zeros
    for the longest FFT.  Only recorded snapshots become SpinState values.

    The hop moves amplitude at most P sites per period, so after j periods
    the state vanishes outside its initial support grown by P*j sites on
    each side.  Each period hops the shortest segment on the ladder
    ceil(N / 2**(k/2)) that holds this light cone, clipped to the chain, so
    one call builds at most about 2*log2(N/P) + 1 tap spectra.  Rung 0
    (k = 0) is the whole chain and writes back every site; every cone wider
    than the top sub-rung ceil(N / sqrt(2)) hops there, from the first
    period for a start that spans the chain or for the folded band
    (P = N).  Below rung 0 only the cone is written back, so the sites
    outside it stay exactly zero.  The FFT window starts P sites before
    the segment: past an inner edge it holds sites the cone has not
    reached, zero as the segment's own mirror pad would be, and past a
    clipped edge the chain end's pad, so it is the full hop up to rounding.

    Parity reduction: when N is odd, center = (N+1)/2, ``initial`` equals
    its reverse bit for bit and P <= (N-1)/2, the same loop runs on sites
    center..N alone, whose cone starts at the centre site, with the
    centre edge padded by the whole-sample mirror and an FFT of
    next_fast_len((N+1)/2 + 2P); each snapshot mirrors them onto the N
    sites, exactly symmetric.  Any other start (asymmetric, an off-centre
    kick, even N, the folded band) hops the full chain.
    """
    p = ctx.params
    check_sites(initial, p.n_sites)
    if n_periods < 0:
        raise ValueError("n_periods must be nonnegative")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")

    n_snapshots = -(-n_periods // record_every)
    if n_snapshots * p.n_sites > MAX_SNAPSHOT_VALUES:
        raise MemoryBudgetError(
            f"{n_snapshots} snapshots x {p.n_sites} sites exceeds the budget of "
            f"{MAX_SNAPSHOT_VALUES} stored amplitudes; increase record_every"
        )

    n, pad, kick = p.n_sites, ctx.pad, ctx.kick_factors
    amps = initial.amplitudes
    support = np.flatnonzero(amps)
    lo, hi = int(support[0]), int(support[-1]) + 1
    # Parity reduction (see above).  On the half, lo = 0: a symmetric
    # support spans the centre, and every segment must start at the centre
    # edge, the only edge the whole-sample mirror may pad.
    half = 2 * p.center == n + 1 and pad < p.center and np.array_equal(amps, amps[::-1])
    if half:
        base = p.center - 1
        amps, kick, n, lo, hi = amps[base:], kick[base:], n - base, 0, hi - base
    # Zeros past the right pad as far as the ladder's longest FFT reaches.
    rungs = (_ladder(n, k) for k in range(2 * n.bit_length() + 1))
    size = n + max(_next_fast_len(r + 2 * pad) - r for r in rungs)
    state, ((left, left_sites), (right, right_sites)) = _padded(amps, pad, size, half)
    sites = state[pad:pad + n]
    periods = [0]
    states = [initial]
    seg = 0
    for j in range(1, n_periods + 1):
        if seg < n:
            # Take the shortest rung that holds the cone.  Rung 0 is the
            # whole chain and writes back every site, the hop's rounding
            # past the cone included; once there, the segment no longer
            # changes.
            c0, c1 = max(lo - pad * j, 0), min(hi + pad * j, n)
            if c1 - c0 > seg:
                seg = _rung(n, c1 - c0)
                length = _next_fast_len(seg + 2 * pad)
                spectrum = _tap_spectrum(ctx.band_taps, length)
                out = np.empty(length, dtype=np.complex128)
            if seg == n:
                c0, c1 = 0, n
            s0 = min(c0, n - seg)
            window, hopped = state[s0:s0 + length], out[pad + c0 - s0:pad + c1 - s0]
            cone, cone_kick = sites[c0:c1], kick[c0:c1]
        _fft(window, out)
        out *= spectrum
        _ifft(out, out)
        # Below rung 0 the zeros past the cone stay: the hop left rounding.
        np.multiply(hopped, cone_kick, out=cone)
        left[:] = left_sites
        right[:] = right_sites
        if j % record_every == 0 or j == n_periods:
            periods.append(j)
            states.append(SpinState(np.concatenate((sites[:0:-1], sites)) if half else sites))
    return Trajectory(periods=tuple(periods), states=tuple(states))
