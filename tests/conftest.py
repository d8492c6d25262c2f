import os
from pathlib import Path

import numpy as np
import pytest

import kickedchain
import kickedchain.chain
from kickedchain import SpinState


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


@pytest.fixture
def make_random_state(rng):
    def _make(n_sites: int) -> SpinState:
        amps = rng.normal(size=n_sites) + 1j * rng.normal(size=n_sites)
        return SpinState(amps / np.linalg.norm(amps))

    return _make


@pytest.fixture
def edges(monkeypatch):
    """The centre-edge flag of every padded layout ``evolve`` hops in: all
    True on the mirror-half path, all False on the full chain."""
    real, seen = kickedchain.chain._padded, []

    def spy(amps, pad, size, centre):
        seen.append(centre)
        return real(amps, pad, size, centre)

    monkeypatch.setattr("kickedchain.chain._padded", spy)
    return seen


def src_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH, so
    a child interpreter imports the package under test."""
    src = str(Path(kickedchain.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
