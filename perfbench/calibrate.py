"""A fixed reference kernel that tracks the speed of the machine.

The host this benchmark runs on is shared, and the speed it gives one
process swings by up to half between states that last seconds, much the
same for interpreter loops, array arithmetic and cosine transforms.
``run.py`` times this kernel before the first pass and after every pass
and every set-up probe, and scales each of them by ``REFERENCE_S / mean
of the two samples around it``, which cancels the swing and leaves the
program's own speed.

The kernel uses only Python, numpy and scipy, never ``kickedchain``, so
no change to the program moves it.  Its three parts mirror the three
kinds of work the workloads do: text rendering of float rows, the
DCT-II/III pair at N = 1401 and complex arrays of 2**16 + 1 elements.
Its work is fixed; inputs come from a fixed seed.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.fft import dct, idct

# The kernel's median time on the machine the baseline was measured on
# (see README.md), so scaled times read as seconds at that speed.
REFERENCE_S = 0.11

_rng = np.random.default_rng(12345)
_ROWS = _rng.random((60, 200)).tolist()
_SMALL = _rng.standard_normal(1401) + 1j * _rng.standard_normal(1401)
_SMALL_PHASES = np.exp(-1j * _rng.standard_normal(1401))
_LARGE = _rng.standard_normal(2**16 + 1) + 1j * _rng.standard_normal(2**16 + 1)
_LARGE_ANGLES = _rng.standard_normal(2**16 + 1)


def _text() -> int:
    size = 0
    for _ in range(4):
        lines = [",".join(f"{x:.17g}" for x in row) for row in _ROWS]
        size += len("\n".join(lines))
    return size


def _transform() -> float:
    x = _SMALL
    for _ in range(130):
        x = idct(_SMALL_PHASES * dct(x, type=2, norm="ortho"), type=2, norm="ortho") * _SMALL_PHASES
    return float(abs(x[0]))


def _arrays() -> float:
    total = 0.0
    for _ in range(18):
        y = _LARGE * np.exp(-0.5j * _LARGE_ANGLES)
        total += float(np.sum(np.abs(y) ** 2))
    return total


def sample() -> float:
    """One timed run of the kernel, in seconds."""
    start = time.perf_counter()
    _text()
    _transform()
    _arrays()
    return time.perf_counter() - start


def parts() -> dict[str, float]:
    """Each part's time, for sizing the kernel."""
    out = {}
    for name, part in (("text", _text), ("transform", _transform), ("arrays", _arrays)):
        start = time.perf_counter()
        part()
        out[name] = time.perf_counter() - start
    return out


if __name__ == "__main__":
    sample()
    for _ in range(5):
        print({k: round(v, 4) for k, v in parts().items()}, round(sample(), 4))
