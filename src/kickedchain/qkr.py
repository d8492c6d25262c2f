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
``qkr_kick_matrix`` is that column's Toeplitz block on 2*size states,
which no alias reaches.  The references take the plain numbers they use:
a size (momentum states) and the Bessel argument beta.  The classical
limit is the standard map with stochasticity K = beta * b_q, iterated on
whole ensembles by ``standard_map``.  Where K places the accelerator
modes, alpha = K/2*pi and its stable window, is a derived parameter of
the chain (``params.DerivedParams.in_accelerator_window``).

Only ``validate``, the dense references and ``rechester_d`` need
``scipy.special``, so each function imports it on first call and
``import kickedchain`` does not load it.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import WeakChaosWarning
from .params import ChainParams

_I_POW = np.array((1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j))


def qkr_kick_matrix(size: int, beta: float) -> np.ndarray:
    """Rotor kick operator on ``size`` momentum states: entry (r, s) = i^{r-s} J_{r-s}(beta).

    Symmetric Toeplitz, the ``ring_kick_column`` of 2*size states read at
    r - s, which no alias reaches; at beta = 0 it is the identity.
    """
    idx = np.arange(size)
    return ring_kick_column(2 * size, beta)[idx[:, None] - idx[None, :]]


def ring_kick_column(size: int, beta: float) -> np.ndarray:
    """First column of the kick operator on a ring of ``size`` momentum
    states, entry d = i^d J_d(beta); the operator is the circulant of it.

    Orders wrap to the nearest representative in [-N/2, N/2); aliased
    orders beyond that are negligible for beta well below N.
    """
    # i^d * J_d(beta) depends only on |d|: i^{-d} J_{-d} = i^d J_d.
    return _kick_kernel(np.abs((np.arange(size) + size // 2) % size - size // 2), beta)


def _kick_kernel(order: np.ndarray, beta: float) -> np.ndarray:
    """i^n J_n(beta) at each nonnegative integer ``order``, calling ``jv``
    once per distinct order, so its cost follows the orders asked for."""
    from scipy.special import jv

    distinct, where = np.unique(order, return_inverse=True)
    return _I_POW[order % 4] * jv(distinct, beta)[where.reshape(order.shape)]


def frs_quadrature(
    r: int | np.ndarray, s: int | np.ndarray, p: ChainParams
) -> complex | np.ndarray:
    """Continuum (large-N) hopping matrix element between sites r and s.

    The open-end integral (1/pi) * e^{-i beta} * int_0^pi [cos((r+s-1)x) +
    cos((r-s)x)] e^{i beta cos x} dx in its Jacobi-Anger closed form,
    e^{-i beta} (i^{r+s-1} J_{r+s-1}(beta) + i^{|r-s|} J_{|r-s|}(beta)): the
    near end's image plus the direct term, the identity at beta = 0.
    Broadcasts over integer arrays ``r`` and ``s``: scalars give a
    complex, arrays an ndarray.
    """
    r, s = np.broadcast_arrays(np.asarray(r), np.asarray(s))
    if not (np.issubdtype(r.dtype, np.integer) and np.issubdtype(s.dtype, np.integer)):
        raise ValueError("site indices must be integers")
    if np.any((r < 1) | (r > p.n_sites) | (s < 1) | (s > p.n_sites)):
        raise ValueError(f"site indices must lie in [1, {p.n_sites}]")
    # Signed, so r - s cannot wrap for unsigned input.
    r, s = r.astype(np.int64), s.astype(np.int64)
    direct, image = _kick_kernel(np.stack((np.abs(r - s), r + s - 1)), p.beta)
    out = complex(np.exp(-1j * p.beta)) * (image + direct)
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

