"""Golden-output corpus: every recipe in tests/golden/corpus.json must
reproduce its recorded data files byte for byte, and stay within
``record.RTOL`` of its numeric fingerprint in tests/golden/fingerprints.json.

The corpus decides whether a refactor kept behaviour.  Regenerate the
digests with ``tests/golden/record.py`` only when a change is meant to
move output bytes, and say why in CHANGES.md.  The fingerprints are
never re-recorded: they hold every later tree to the numbers of the tree
that first recorded them.
"""

import importlib.util
import json
import pathlib

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"
CORPUS = json.loads((GOLDEN / "corpus.json").read_text(encoding="utf-8"))["recipes"]
FINGERPRINTS = json.loads((GOLDEN / "fingerprints.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location("golden_record", GOLDEN / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_recipe_reproduces_corpus(label, tmp_path):
    want = CORPUS[label]
    got = record.run_recipe(want["overrides"], str(tmp_path / label))
    if "checks" in want:
        assert got["checks"] == want["checks"]
    else:
        assert got["files"] == want["files"]


def _deviation(overrides, out_dir, ref):
    got = record.run_recipe(overrides, out_dir)
    return record.compare(record.fingerprint(out_dir, got["files"]), ref)


def test_every_data_recipe_has_a_fingerprint():
    assert sorted(FINGERPRINTS) == sorted(k for k, v in CORPUS.items() if "files" in v)


@pytest.mark.parametrize("label", sorted(FINGERPRINTS))
def test_recipe_within_fingerprint(label, tmp_path):
    dev = _deviation(CORPUS[label]["overrides"], str(tmp_path / label), FINGERPRINTS[label])
    assert dev <= record.RTOL


def test_fingerprint_catches_a_relative_1e8_parameter_change(tmp_path):
    # Negative control: b_q moved by one part in 1e8 must fail the check.
    base = CORPUS["diffusion"]["overrides"]
    overrides = [o.replace("b_q=0.05", "b_q=0.0500000005") for o in base]
    assert overrides != base
    dev = _deviation(overrides, str(tmp_path / "diffusion"), FINGERPRINTS["diffusion"])
    assert record.RTOL < dev < 1e-3
