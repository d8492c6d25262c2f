import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import kickedchain.chain
from kickedchain.validation import ValidationReport, CheckResult, validate_suite


class TestSuite:
    def test_fresh_build_is_green(self):
        report = validate_suite()
        assert report.passed
        assert report.failures == ()
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names)) == 9

    def test_report_dict_shape(self):
        payload = validate_suite().as_dict()
        assert payload["passed"] is True
        for check in payload["checks"]:
            assert set(check) == {"name", "deviation", "tolerance", "passed"}
            assert isinstance(check["deviation"], float)

    def test_mutation_breaks_engine_equivalence(self, monkeypatch):
        # A sign error injected into the ring-kernel hop that evolve calls:
        # the dense route is untouched, so exactly the cross-engine check
        # must trip.
        real = kickedchain.chain._ring_hop

        def corrupted(amps, pad, spectrum, buf):
            return real(amps, pad, np.conj(spectrum), buf)

        monkeypatch.setattr(kickedchain.chain, "_ring_hop", corrupted)
        report = validate_suite()
        assert not report.passed
        assert "engine_equivalence" in report.failures
        by_name = {c.name: c for c in report.checks}
        assert by_name["propagator_vs_matrix_exponential"].passed


def test_scipy_linalg_stays_off_the_import_path():
    # Only validate's matrix-exponential check needs scipy.linalg; importing
    # the package must not pay for it, and the suite must still pass.
    code = (
        "import sys, kickedchain\n"
        "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg imported'\n"
        "assert kickedchain.validate_suite().passed\n"
    )
    src = str(Path(kickedchain.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
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
