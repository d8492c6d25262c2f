"""Record the golden-output corpus: rerun every recipe, store its digests.

    PYTHONPATH=src python tests/golden/record.py

Reads the recipes in ``corpus.json`` next to this file, runs each one
through ``parse_config`` / ``apply_overrides`` / ``run_experiment`` in a
temporary directory, and writes back the SHA-256 of every data file
(``manifest.json`` is left out: its wall clock varies).  ``validation.json``
holds round-off deviations, so for ``validate`` only the check names,
their order, tolerances and pass flags are stored.  Record only from a
tree whose outputs are known good; ``tests/test_golden.py`` then holds
every later tree to these bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

from kickedchain import apply_overrides, parse_config, run_experiment

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus.json")


def run_recipe(overrides: list[str], out_dir: str) -> dict:
    """Run one recipe into ``out_dir``; return its golden record."""
    cfg = apply_overrides(parse_config(""), [*overrides, f"output_dir={out_dir}"])
    manifest = run_experiment(cfg)
    if cfg.experiment == "validate":
        with open(os.path.join(out_dir, "validation.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        return {
            "checks": [
                {"name": c["name"], "tolerance": c["tolerance"], "passed": c["passed"]}
                for c in report["checks"]
            ]
        }
    files = {}
    for name in sorted(manifest.files):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = hashlib.sha256(fh.read()).hexdigest()
    return {"files": files}


def main() -> int:
    with open(CORPUS, encoding="utf-8") as fh:
        corpus = json.load(fh)
    with tempfile.TemporaryDirectory() as tmp:
        for label, entry in corpus["recipes"].items():
            record = run_recipe(entry["overrides"], os.path.join(tmp, label))
            corpus["recipes"][label] = {"overrides": entry["overrides"], **record}
            print(f"{label}: {len(record.get('files', record.get('checks')))} entries")
    with open(CORPUS, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(corpus, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
