"""Kicked-rotor reference: Bessel kick matrix, classical map, diffusion.

In the rotor picture the chain's roles are swapped: the site offset from
the kick center acts as the momentum quantum number (with b_q the
effective Planck constant) and the hopping step acts as a cosine kick of
strength beta.  The one-period hopping propagator therefore matches the
rotor kick operator,

    U_hop(r, s) ~ e^{-i beta} i^{r-s} J_{r-s}(beta),

exactly on a ring and up to boundary-image terms on the open chain.
The exact ring is the circulant of the chain's own hop taps
(``chain.ring_taps``); ``validate`` holds those taps to
``ring_kick_column``, the circulant's first column built here from
Bessel functions alone, so the reference never reads the code it checks.
The references take the plain numbers they use: a size (momentum states)
and the Bessel argument beta.  The classical limit is the standard map
with stochasticity K = beta * b_q, iterated on whole ensembles by
``standard_map``.  Where K places the accelerator modes,
alpha = K/2*pi and its stable window, is a derived parameter of the chain
(``params.DerivedParams.in_accelerator_window``).

Only ``validate``, the dense references and ``rechester_d`` need
``scipy.special`` and ``scipy.fft``, so each function imports what it
uses on first call and ``import kickedchain`` loads neither.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import QuadratureConvergenceError, WeakChaosWarning
from .params import ChainParams

# Trapezoid intervals of frs_quadrature, which takes one DCT-I of the
# integrand's m+1 nodes per resolution.  Its refinement check reruns at
# half the intervals, where a beta near or above this count, or an order
# r+s-1 within about beta of it, aliases and raises.
QUADRATURE_PANELS = 2**14

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _i_power_times_bessel(orders: np.ndarray, bessel_by_abs: np.ndarray) -> np.ndarray:
    # i^d * J_d(x) depends only on |d|: i^{-d} J_{-d} = i^d J_d.
    a = np.abs(orders)
    phases = np.asarray(_I_POW, dtype=np.complex128)[a % 4]
    return phases * bessel_by_abs[a]


def qkr_kick_matrix(size: int, beta: float) -> np.ndarray:
    """Rotor kick operator on ``size`` momentum states: entry (r, s) = i^{r-s} J_{r-s}(beta).

    Symmetric Toeplitz; at beta = 0 it is the identity.
    """
    from scipy.special import jv

    js = jv(np.arange(size), beta)
    idx = np.arange(size)
    d = idx[:, None] - idx[None, :]
    return _i_power_times_bessel(d, js)


def ring_kick_column(size: int, beta: float) -> np.ndarray:
    """First column of the kick operator on a ring of ``size`` momentum
    states, entry d = i^d J_d(beta); the operator is the circulant of it.

    Orders wrap to the nearest representative in [-N/2, N/2); aliased
    orders beyond that are negligible for beta well below N.
    """
    from scipy.special import jv

    n = size
    js = jv(np.arange(n // 2 + 1), beta)
    return _i_power_times_bessel((np.arange(n) + n // 2) % n - n // 2, js)


def frs_quadrature(
    r: int | np.ndarray, s: int | np.ndarray, p: ChainParams
) -> complex | np.ndarray:
    """Continuum (large-N) hopping matrix element between sites r and s.

    Evaluates (1/pi) * e^{-i beta} * int_0^pi [cos((r+s-1)x) + cos((r-s)x)]
    e^{i beta cos x} dx by the trapezoid rule, normalized so the matrix is
    the identity at beta = 0.  Broadcasts over integer arrays ``r`` and
    ``s``: scalars give a complex, arrays an ndarray.  Raises
    QuadratureConvergenceError if halving the resolution shifts any entry
    by more than 1e-9.
    """
    from scipy.fft import dct

    r, s = np.broadcast_arrays(np.asarray(r), np.asarray(s))
    if not (np.issubdtype(r.dtype, np.integer) and np.issubdtype(s.dtype, np.integer)):
        raise ValueError("site indices must be integers")
    if np.any((r < 1) | (r > p.n_sites) | (s < 1) | (s > p.n_sites)):
        raise ValueError(f"site indices must lie in [1, {p.n_sites}]")

    def integrate(m: int) -> np.ndarray:
        # DCT-I of e^{i beta cos x} on the m+1 trapezoid nodes, over 2m,
        # is the trapezoid sum of cos(n x) e^{i beta cos x} for n <= m.
        # On these nodes cos(n x) has period 2m in n and is even about
        # n = m, so every order folds exactly into that table.
        table = dct(np.exp(1j * p.beta * np.cos(np.linspace(0.0, np.pi, m + 1))), type=1) / (2 * m)

        def term(order: np.ndarray) -> np.ndarray:
            n = order % (2 * m)
            return table[np.where(n > m, 2 * m - n, n)]

        return term(r + s - 1) + term(np.abs(r - s))

    fine = integrate(QUADRATURE_PANELS)
    coarse = integrate(QUADRATURE_PANELS // 2)
    shift = float(np.max(np.abs(fine - coarse), initial=0.0))
    if shift > 1e-9:
        raise QuadratureConvergenceError(
            f"quadrature not converged at {QUADRATURE_PANELS} intervals "
            f"(refinement shift {shift:.3e})"
        )
    out = complex(np.exp(-1j * p.beta)) * fine
    return complex(out) if out.ndim == 0 else out


def bessel_interior_mask(n_sites: int, beta: float) -> np.ndarray:
    """Entries of an open-chain propagator where the Toeplitz Bessel form holds.

    The open chain adds boundary-image terms of Bessel order r+s-1 (near one
    end) and 2N+1-r-s (near the other); those are negligible once the order
    exceeds beta + 2*sqrt(beta), which defines the interior block.
    """
    cutoff = beta + 2.0 * math.sqrt(beta) if beta > 0.0 else 1.0
    idx = np.arange(n_sites)
    w = idx[:, None] + idx[None, :] + 1  # r + s - 1 for 1-based r, s
    return (w >= cutoff) & (2 * n_sites - w >= cutoff)


def standard_map(
    angle: np.ndarray, momentum: np.ndarray, kick_strength: float
) -> tuple[np.ndarray, np.ndarray]:
    """One iteration of the standard map on arrays: p' = p + K sin(x),
    x' = (x + p') mod 2*pi."""
    momentum = momentum + kick_strength * np.sin(angle)
    return (angle + momentum) % (2.0 * np.pi), momentum


def classical_diffusion(kick_strength: float) -> float:
    """Momentum-diffusion coefficient of the standard map, measured.

    Evolves 10,000 angles drawn uniformly with seed 0, all at momentum
    zero, for 50 steps and returns the least-squares slope of
    <(p - p0)^2> versus step count.  ``standard_map`` iterates any other
    ensemble.
    """
    if not math.isfinite(kick_strength) or kick_strength < 0.0:
        raise ValueError(f"kick_strength must be nonnegative, got {kick_strength!r}")
    if kick_strength < 4.0:
        warnings.warn(
            "kick strength below ~4: transport is not cleanly diffusive",
            WeakChaosWarning,
            stacklevel=2,
        )
    x = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, size=10_000)
    p = np.zeros_like(x)
    msd = np.zeros(51)
    for t in range(1, msd.size):
        x, p = standard_map(x, p, kick_strength)
        msd[t] = float(np.mean(p * p))
    return float(np.polyfit(np.arange(msd.size, dtype=np.float64), msd, 1)[0])


def rechester_d(kick_strength: float) -> float:
    """Quasilinear diffusion coefficient with the leading correlation correction:

        D(K) = (K^2 / 2) * (1 - 2*J_2(K) + 2*J_2(K)^2).
    """
    if not math.isfinite(kick_strength) or kick_strength <= 0.0:
        raise ValueError(f"kick_strength must be positive, got {kick_strength!r}")
    from scipy.special import jv

    j2 = float(jv(2, kick_strength))
    return 0.5 * kick_strength**2 * (1.0 - 2.0 * j2 + 2.0 * j2 * j2)

