"""Self-check suite: every analytic shortcut against an independent route.

Each check pits a production code path against a slower or
independently derived alternative (dense diagonalization, matrix
exponential, Bessel closed forms and limits) and records the
measured deviation next to its tolerance.  The tolerances are frozen;
a failure here means a real regression, not noise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import chain, observables
from .params import ChainParams
from .qkr import (
    bessel_interior_mask,
    classical_diffusion,
    frs_quadrature,
    qkr_kick_matrix,
    rechester_d,
    ring_kick_column,
)
from .state import SpinState, site_state


@dataclass(frozen=True)
class CheckResult:
    """One cross-check: measured deviation against its frozen tolerance."""

    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [{**asdict(c), "passed": c.passed} for c in self.checks],
        }


def _check_eigenbasis() -> float:
    # Cosine modes and phases against dense diagonalization of the
    # bond-counting Hamiltonian.
    p = ChainParams(n_sites=64, center=32, beta=10.0, b_q=0.1)
    h = chain.oracle_hamiltonian(p)
    g = chain._cosine_modes(p.n_sites)
    phases = chain.hop_eigenphases(p.n_sites, p.beta)
    residual = float(np.max(np.abs(h @ g.T - g.T * phases[None, :])))
    eigvals = np.linalg.eigvalsh(h)
    value_dev = float(np.max(np.abs(np.sort(eigvals) - phases)))
    return max(residual, value_dev)


def _check_propagator_expm() -> float:
    # The only user of scipy.linalg: importing it here keeps it off the
    # import path of every experiment but validate.
    import scipy.linalg

    p = ChainParams(n_sites=64, center=32, beta=10.0, b_q=0.1)
    u = chain.uhc_matrix(p, 1.0)
    e = scipy.linalg.expm(-1j * chain.oracle_hamiltonian(p))
    # Both routes exponentiate the same Hamiltonian, so no global phase
    # may separate them.
    return float(np.max(np.abs(u - e)))


def _check_engine_equivalence() -> float:
    # The ring-kernel loop of evolve against the dense oracle product
    # diag(kick) . U_hop, applied once per period, at a prime length (its
    # middle site: the mirror-symmetric half path) and a power-of-two
    # length (the full chain).
    worst = 0.0
    for n in (257, 256):
        p = ChainParams(n_sites=n, center=(n + 1) // 2, beta=30.0, b_q=0.1)
        start = site_state(n, p.center)
        fast = chain.evolve(start, chain.make_context(p), 5).final.amplitudes
        u = chain.kick_phases(p)[:, None] * chain.uhc_matrix(p, 1.0)
        oracle = start.amplitudes
        for _ in range(5):
            oracle = u @ oracle
        worst = max(worst, float(np.max(np.abs(oracle - fast))))
    return worst


def _check_quadrature() -> float:
    # Production evolve's one-period hop against the continuum integral
    # at both open ends: rows 1..40 from sites s near the left end, and
    # rows N+1-r from the mirror sites N+1-s (the reflection is a symmetry
    # of the open-chain hop).  The integral holds the near end's image
    # term J_{r+s-1}; the far end's has order near 2N and vanishes at
    # beta = 10.  Each cone is short of the chain, so evolve hops a
    # segment below rung 0 clipped at the open end, on either side.
    p = ChainParams(n_sites=1024, center=512, beta=10.0, b_q=0.1)
    n, ctx = p.n_sites, chain.make_context(p)
    starts = np.array((1, 2, 3, 5, 8, 13))
    rows = np.arange(1, 41)
    want = frs_quadrature(rows[:, None], starts[None, :], p)
    worst = 0.0
    for k, s in enumerate(starts):
        for site, picks in ((s, rows - 1), (n + 1 - s, n - rows)):
            hop = chain.evolve(site_state(n, site), ctx, 1).final.amplitudes / ctx.kick_factors
            worst = max(worst, float(np.max(np.abs(hop[picks] - want[:, k]))))
    return worst


def _check_kick_matrix_interior() -> float:
    n, beta = 256, 10.0
    p = ChainParams(n_sites=n, center=n // 2, beta=beta, b_q=0.1)
    u = chain.uhc_matrix(p, 1.0) * np.exp(1j * beta)
    approx = qkr_kick_matrix(n, beta)
    mask = bessel_interior_mask(n, beta)
    return float(np.max(np.abs((u - approx)[mask])))


def _check_ring_exactness() -> float:
    n, beta = 256, 10.0
    exact = np.exp(-1j * beta) * ring_kick_column(n, beta)
    return float(np.max(np.abs(chain.ring_taps(n, beta) - exact)))


def _check_classical_diffusion() -> float:
    slope = classical_diffusion(10.0)
    return abs(slope / rechester_d(10.0) - 1.0)


def _check_q_ipr_identity() -> float:
    # One draw holds every state's real and imaginary parts, in the order
    # two normal(size=n) calls per state would give them.
    n, count = 64, 1000
    draws = np.random.default_rng(12345).normal(size=(count, 2, n))
    amps = draws[:, 0] + 1j * draws[:, 1]
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    worst = 0.0
    for row in amps:
        state = SpinState(row)
        q = observables.q_measure(state)
        via_ipr = 4.0 / n * (1.0 - 1.0 / observables.ipr(state))
        worst = max(worst, abs(q - via_ipr) / max(abs(q), 1e-300))
    return worst


def _check_concurrence_grid() -> float:
    # Production concurrence between sites center -+ d of built profiles
    # e^{-|s|/L}, L on a grid over [d, 3d]; a parabola through ln C at the
    # grid maximum locates the optimum, against the closed form.  The
    # chain reaches 30d sites either side, so the weight it cuts off is
    # e^{-30} of the total near L = 2d and e^{-20} at L = 3d.
    worst = 0.0
    for d in (5, 10, 50):
        half = 30 * d
        offsets = np.abs(np.arange(-half, half + 1))
        grid = np.linspace(d, 3.0 * d, 41)
        logs = []
        for length in grid:
            amps = np.exp(-offsets / length)
            state = SpinState(amps / np.linalg.norm(amps))
            logs.append(math.log(observables.concurrence(state, half + 1 - d, half + 1 + d)))
        k = int(np.argmax(logs))
        c2, c1, c0 = np.polyfit(grid[k - 1:k + 2], logs[k - 1:k + 2], 2)
        best = observables.concurrence_profile_max(d)
        worst = max(
            worst,
            abs(-c1 / (2.0 * c2) / best.l_star - 1.0),
            abs(math.exp(c0 - c1 * c1 / (4.0 * c2)) / best.c_star - 1.0),
        )
    return worst


_CHECKS: tuple[tuple[str, Callable[[], float], float], ...] = (
    ("eigenbasis_vs_diagonalization", _check_eigenbasis, 1e-10),
    ("propagator_vs_matrix_exponential", _check_propagator_expm, 1e-8),
    ("engine_equivalence", _check_engine_equivalence, 1e-10),
    ("quadrature_vs_propagator", _check_quadrature, 5e-3),
    ("kick_matrix_interior", _check_kick_matrix_interior, 1e-3),
    ("ring_exactness", _check_ring_exactness, 1e-10),
    ("rechester_vs_ensemble", _check_classical_diffusion, 0.10),
    ("q_ipr_identity", _check_q_ipr_identity, 1e-12),
    ("concurrence_maximum_grid", _check_concurrence_grid, 1e-3),
)


def _deviation(name: str, fn: Callable[[], float]) -> float:
    # A check that raises has failed: deviation inf, and one warning line
    # that names it.  KeyboardInterrupt is no Exception and still escapes.
    try:
        return float(fn())
    except Exception as exc:
        warnings.warn(f"check {name} raised {type(exc).__name__}: {' '.join(str(exc).split())}",
                      RuntimeWarning, stacklevel=3)
        return math.inf


def validate_suite() -> ValidationReport:
    """Run every cross-check in declared order and report deviations
    against tolerances.  A check that raises is recorded as failed, with
    deviation inf and a RuntimeWarning, and the rest still run."""
    return ValidationReport(checks=tuple(
        CheckResult(name=name, deviation=_deviation(name, fn), tolerance=tol)
        for name, fn, tol in _CHECKS
    ))
