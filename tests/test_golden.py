"""Golden-output corpus: every recipe in tests/golden/corpus.json must
reproduce its recorded data files byte for byte.

The corpus decides whether a refactor kept behaviour.  Regenerate it with
``tests/golden/record.py`` only when a change is meant to move output
bytes, and say why in CHANGES.md.
"""

import importlib.util
import json
import pathlib

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"
CORPUS = json.loads((GOLDEN / "corpus.json").read_text(encoding="utf-8"))["recipes"]

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
