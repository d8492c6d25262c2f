"""Workload definitions and the seed-driven operating-point draw.

A workload is a fixed list of experiment runs.  The seed picks one
operating point (beta, alpha) from the workload's grid; every run then
gets b_q = 2*pi*alpha/beta, so alpha always lies inside the
accelerator-mode window [1.03, 1.10].  The grid is finite because the
output check compares against a stored reference per operating point.
The program only ever sees the generated ``key = value`` text plus
``--set``-style overrides.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

ALPHAS = (1.04, 1.05, 1.06, 1.07)


@dataclass(frozen=True)
class Run:
    """One ``run_experiment`` call of a pass.

    ``beta_scale`` rescales the drawn beta for this run only; alpha is kept,
    so b_q follows.  ``label`` names the run's output subdirectory and its
    entry in the stored reference.
    """

    label: str
    n_sites: int
    center: int
    overrides: tuple[str, ...]
    beta_scale: float = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    betas: tuple[float, ...]
    runs: tuple[Run, ...]

    def points(self) -> list[tuple[float, float]]:
        return [(beta, alpha) for beta in self.betas for alpha in ALPHAS]


@dataclass(frozen=True)
class OperatingPoint:
    beta: float
    alpha: float

    @property
    def key(self) -> str:
        return f"beta={self.beta:g},alpha={self.alpha:g}"


FIG = dict(n_sites=1401, center=701)

WORKLOADS = {
    w.name: w
    for w in (
        # Default-config plotting experiments: rendering, hashing, writing,
        # snapshots and mode detection dominate; the hop is a small share.
        Workload(
            name="figures",
            betas=(90.0, 100.0, 110.0),
            runs=(
                Run("evolve", **FIG, overrides=("experiment=evolve", "n_periods=200", "record_every=1")),
                Run("fig1", **FIG, overrides=("experiment=fig1",)),
                Run("diffusion", **FIG, overrides=("experiment=diffusion",)),
                Run("entanglement", **FIG, overrides=("experiment=entanglement",)),
                Run("protocol", **FIG, overrides=("experiment=protocol", "n_periods=4")),
                # README accel geometry; its beta is 2/3 of the figure beta,
                # as 200/3 is of 100 in the README command.
                Run("accel", n_sites=2701, center=1351, beta_scale=2.0 / 3.0,
                    overrides=("experiment=accel", "n_periods=20")),
            ),
        ),
        # Large-N hop throughput; 2**16 + 1 = 65537 is prime, the slow case
        # of the DCT route.  Output is tiny.  30 periods keep a pass near a
        # second, short against the machine's speed swings (see run.py).
        Workload(
            name="long_chain",
            betas=(90.0, 100.0, 110.0),
            runs=(
                Run("diffusion", n_sites=2**16 + 1, center=2**15 + 1,
                    overrides=("experiment=diffusion", "n_periods=30", "record_every=10")),
            ),
        ),
        # Per-period overhead at moderate N: 2500 periods, past the break
        # time beta**2 (at most 576 here), with a single snapshot; a pass
        # near a second, as for long_chain.
        Workload(
            name="long_run",
            betas=(16.0, 20.0, 24.0),
            runs=(
                Run("localization", **FIG,
                    overrides=("experiment=localization", "n_periods=2500", "record_every=2500")),
            ),
        ),
        # The 9-check self-validation suite; its checks use fixed internal
        # parameters, so the drawn operating point does not change its work.
        Workload(
            name="validate",
            betas=(100.0,),
            runs=(Run("validate", **FIG, overrides=("experiment=validate",)),),
        ),
    )
}


def draw_point(workload: Workload, seed: int) -> OperatingPoint:
    beta, alpha = random.Random(seed).choice(workload.points())
    return OperatingPoint(beta=beta, alpha=alpha)


def config_text(run: Run, point: OperatingPoint) -> str:
    """The configuration file the program receives for ``run``."""
    beta = point.beta * run.beta_scale
    b_q = 2.0 * math.pi * point.alpha / beta
    return (
        f"n_sites = {run.n_sites}\n"
        f"center = {run.center}\n"
        f"beta = {beta!r}\n"
        f"b_q = {b_q!r}\n"
    )
