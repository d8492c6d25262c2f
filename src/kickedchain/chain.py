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
that starts on a few sites has a strict light cone.  ``evolve`` hops the
shortest segment on the ladder ceil(N/2**(k/2)) that holds the cone, so
a segment is never much more than sqrt(2) times its cone.  Rung 0 is the
whole chain and writes back every site.  Below rung 0 the
segment's inner edges mirror-pad sites the cone has not reached, which
are exactly zero, and its clipped edges are the chain's open ends, so
the segment hop is the full hop up to FFT rounding and the sites outside
the cone stay exactly zero.

A run that starts mirror symmetric about the middle site of an odd chain,
kicked there, stays so: the hop and the kick commute with the reflection
r -> N + 1 - r.  When N is odd, center = (N+1)/2, the initial amplitudes
equal their reverse bit for bit and P <= (N-1)/2, ``evolve`` hops only
the sites center..N: their left edge is padded by the whole-sample mirror
about the centre site, their right edge is the open end as before, and
each snapshot is mirrored back onto all N sites.  The FFT length drops
to next_fast_len((N+1)/2 + 2P) and the output is exactly symmetric.
Every other start runs on the full chain.

Every FFT here (``_fft``, ``_ifft``) calls pocketfft's compiled ``c2c``
kernel with the arguments ``scipy.fft.fft`` and ``ifft`` pass it, so the
bits are the same.  The public functions first dispatch through uarray's
backend machinery and check their arguments: about 3.3 and 4.2 us per
call at length 864 (shared 2-vCPU Xeon, best of 7), against 6.0 and
7.2 us for the kernel itself.  At N = 1401, beta = 20 that dispatch was
about 28% of a period of ``evolve``, so the hop skips it.

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


def _ring_hop(amps: np.ndarray, pad: int, spectrum: np.ndarray, buf: np.ndarray,
              centre: bool = False) -> np.ndarray:
    """Hop one period: mirror-pad ``amps`` by ``pad`` sites into ``buf`` (as
    ``np.pad(amps, pad, mode="symmetric")``; the tail past it stays zero),
    convolve with the taps whose FFT is ``spectrum``, keep the N central
    outputs.  With ``centre``, ``amps[0]`` is the centre site of a mirror
    symmetric chain, so the left edge is padded by the whole-sample mirror
    ``amps[1:pad+1][::-1]`` instead; the right edge is always an open end."""
    n, skip = amps.size, int(centre)
    buf[:pad] = amps[skip:pad + skip][::-1]
    buf[pad:pad + n] = amps
    buf[pad + n:2 * pad + n] = amps[n - pad:][::-1]
    out = _fft(buf)
    out *= spectrum
    return _ifft(out, out)[pad:pad + n]


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
    """Exact inverse of one period of ``evolve``: conjugate kick, then hop
    backwards with the conjugate tap spectrum (the taps are symmetric in d)."""
    check_sites(state, ctx.params.n_sites)
    amps = state.amplitudes * np.conj(ctx.kick_factors)
    length = _next_fast_len(amps.size + 2 * ctx.pad)
    spectrum = np.conj(_tap_spectrum(ctx.band_taps, length))
    return SpinState(_ring_hop(amps, ctx.pad, spectrum, np.zeros(length, dtype=np.complex128)))


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


def _rung(n_sites: int, width: int) -> int:
    """The shortest rung ceil(N / 2**(k/2)), k = 0, 1, ..., that holds
    ``width`` sites (2 <= width <= N).

    Rung k is the smallest s with s*s * 2**k >= N*N, so it holds ``width``
    exactly while (width - 1)**2 * 2**k < N*N.  All in integers, so a
    restart climbs the same rungs."""
    nn = n_sites * n_sites
    k = ((nn - 1) // (width - 1) ** 2).bit_length() - 1
    return math.isqrt(-(-nn >> k) - 1) + 1


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
    Each period is one banded ring-kernel hop and one kick on the raw
    amplitude array; only recorded snapshots become SpinState values.

    The hop moves amplitude at most P sites per period, so after j periods
    the state vanishes outside its initial support grown by P*j sites on
    each side.  Each period hops the shortest segment on the ladder
    ceil(N / 2**(k/2)) that holds this light cone, clipped to the chain, so
    one call builds at most about 2*log2(N/P) + 1 tap spectra.  Rung 0
    (k = 0) is the whole chain and writes back every site; every cone wider
    than the top sub-rung ceil(N / sqrt(2)) hops there, from the first
    period for a start that spans the chain or for the folded band
    (P = N).  Below rung 0 only the cone is written back, so the sites
    outside it stay exactly zero.  This is the full hop up to FFT
    rounding: at a segment edge inside the chain the mirror padding copies
    P sites the cone has not reached yet, all zero, and at a clipped edge
    it is the chain's own open end.

    Parity reduction: when N is odd, center = (N+1)/2, ``initial`` equals
    its reverse bit for bit and P <= (N-1)/2, the same loop runs on sites
    center..N alone, whose cone starts at the centre site, with the
    centre edge padded by the whole-sample mirror; each snapshot mirrors
    them onto the N-site state.  Any other start (asymmetric, an
    off-centre kick, even N, the folded band) hops the full chain.
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
    work = amps.copy()
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
                buf = np.zeros(length, dtype=np.complex128)
            if seg == n:
                c0, c1 = 0, n
            s0 = min(c0, n - seg)
        hopped = _ring_hop(work[s0:s0 + seg], pad, spectrum, buf, half)
        # Below rung 0, past the cone the hop leaves only rounding: keep
        # the zeros.
        np.multiply(hopped[c0 - s0:c1 - s0], kick[c0:c1], out=work[c0:c1])
        if j % record_every == 0 or j == n_periods:
            periods.append(j)
            states.append(SpinState(np.concatenate((work[:0:-1], work)) if half else work))
    return Trajectory(periods=tuple(periods), states=tuple(states))
