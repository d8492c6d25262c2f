import math
import subprocess
import sys

import numpy as np

from conftest import src_env
import kickedchain.chain
from kickedchain import observables
from kickedchain.state import SpinState
from kickedchain.validation import (
    CheckResult,
    ValidationReport,
    _check_q_ipr_identity,
    validate_suite,
)


def _corrupt_hops(monkeypatch, when):
    """Conjugate the tap spectrum, a sign error in the hop's phases, of
    every rung that evolve builds while ``when(centre, sites, pad, length)``
    holds for the padded layout it hops in (``sites``: the N or half-chain
    sites) and the FFT length.  Returns the (centre, sites) of each
    corrupted rung."""
    chain = kickedchain.chain
    real_padded, real_spectrum, layout, hit = chain._padded, chain._tap_spectrum, [], []

    def padded(amps, pad, size, centre):
        layout[:] = [centre, amps.size, pad]
        return real_padded(amps, pad, size, centre)

    def spectrum(taps, length):
        if not when(*layout, length):
            return real_spectrum(taps, length)
        hit.append(tuple(layout[:2]))
        return np.conj(real_spectrum(taps, length))

    monkeypatch.setattr(chain, "_padded", padded)
    monkeypatch.setattr(chain, "_tap_spectrum", spectrum)
    return hit


class TestSuite:
    def test_fresh_build_is_green(self):
        report = validate_suite()
        assert report.passed
        assert report.failures == ()
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names)) == 9

    def test_report_dict_shape(self):
        # The benchmark compares validation.json leaf by leaf: a key added,
        # dropped or reordered changes its structure.
        payload = validate_suite().as_dict()
        assert list(payload) == ["passed", "checks"]
        assert payload["passed"] is True
        for check in payload["checks"]:
            assert list(check) == ["name", "deviation", "tolerance", "passed"]
            assert isinstance(check["deviation"], float)

    def test_report_dict_keeps_a_raising_checks_inf(self):
        # validation.json spells it null; the dict holds the float.
        report = ValidationReport(checks=(CheckResult("broken", math.inf, 1e-9),))
        assert report.as_dict() == {"passed": False, "checks": [
            {"name": "broken", "deviation": math.inf, "tolerance": 1e-9, "passed": False}]}

    def test_q_ipr_draw_matches_sequential_draws(self):
        # The one batched draw is the stream of two normal(size=64) calls
        # per state, so the deviation is the same to the last bit.
        rng = np.random.default_rng(12345)
        worst = 0.0
        for _ in range(1000):
            amps = rng.normal(size=64) + 1j * rng.normal(size=64)
            state = SpinState(amps / np.linalg.norm(amps))
            q = observables.q_measure(state)
            via_ipr = 4.0 / 64 * (1.0 - 1.0 / observables.ipr(state))
            worst = max(worst, abs(q - via_ipr) / max(abs(q), 1e-300))
        assert _check_q_ipr_identity() == worst

    def test_mutation_breaks_engine_equivalence(self, monkeypatch):
        # A sign error injected into the ring-kernel hop that evolve runs:
        # the dense route is untouched, so the cross-engine check must trip
        # (and the quadrature check, which runs evolve too), never the
        # dense-only matrix-exponential check.
        hit = _corrupt_hops(monkeypatch, lambda centre, sites, pad, length: True)
        report = validate_suite()
        assert not report.passed
        assert "engine_equivalence" in report.failures
        by_name = {c.name: c for c in report.checks}
        assert by_name["propagator_vs_matrix_exponential"].passed
        # Both of the check's chains ran the corrupted hop: N=257 (center
        # 129) on the mirror-symmetric half path, N=256 on the full chain.
        assert {(True, 129), (False, 256)} <= set(hit)
        assert {centre for centre, _ in hit} == {True, False}

    def test_quadrature_check_runs_evolve_below_rung_0(self, monkeypatch):
        # A sign error only in full-chain hops of a segment shorter than
        # the chain: the quadrature check's one-period runs from both open
        # ends hop such segments, the cross-engine check's never do (N=256
        # is on rung 0 from its first period, N=257 takes the half path).
        def below_rung_0(centre, sites, pad, length):
            return not centre and length < kickedchain.chain._next_fast_len(sites + 2 * pad)

        hit = _corrupt_hops(monkeypatch, below_rung_0)
        assert validate_suite().failures == ("quadrature_vs_propagator",)
        # Six starts at each end of N=1024, one period (one rung) each.
        assert hit == [(False, 1024)] * 12

    def test_concurrence_check_runs_the_production_formula(self, monkeypatch):
        # The check reads production concurrence, so doubling the pair
        # formula must trip it, and only it.
        real = observables._pair_concurrence
        monkeypatch.setattr(observables, "_pair_concurrence",
                            lambda m_i, m_j: 2.0 * real(m_i, m_j))
        assert validate_suite().failures == ("concurrence_maximum_grid",)


LAZY_SCIPY = ("scipy.fft", "scipy.special", "scipy.linalg")


def test_scipy_linalg_stays_off_the_import_path(tmp_path):
    # The hop loads pocketfft's compiled module alone, and only validate's
    # oracles, the dense references and rechester_d need scipy.special
    # and scipy.linalg.  Importing the package, and running
    # fig1 through ``python -m kickedchain``, must load neither of them
    # nor scipy.fft; the suite must still pass.
    env = src_env()
    code = (
        "import sys, kickedchain\n"
        f"loaded = [m for m in {LAZY_SCIPY!r} if m in sys.modules]\n"
        "assert not loaded, f'{loaded} imported'\n"
        "assert kickedchain.validate_suite().passed\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr

    # -X importtime names every module the process imports on stderr.
    out = tmp_path / "fig1"
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "kickedchain", "fig1",
                           "--out", str(out)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (out / "manifest.json").is_file()
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert "kickedchain.cli" in imported
    assert not imported & set(LAZY_SCIPY)


def test_validate_suite_never_imports_scipy_fft():
    # The hop loads pocketfft's compiled module alone and frs_quadrature is
    # a closed form, so the whole suite runs without scipy.fft's package.
    code = (
        "import sys, kickedchain\n"
        "assert kickedchain.validate_suite().passed\n"
        "assert 'scipy.fft' not in sys.modules\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr


class TestReportTypes:
    def test_check_result_pass_rule(self):
        assert CheckResult("x", deviation=1e-12, tolerance=1e-10).passed
        assert not CheckResult("x", deviation=2e-10, tolerance=1e-10).passed

    def test_failures_listed(self):
        report = ValidationReport(
            checks=(
                CheckResult("good", 0.0, 1.0),
                CheckResult("bad", 2.0, 1.0),
            )
        )
        assert not report.passed
        assert report.failures == ("bad",)
