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

Every other recipe also gets a numeric fingerprint in
``fingerprints.json``, written only for recipes that have none yet: a
re-recording refreshes the digests but never moves the fingerprints, so
they stay anchored to the tree that first recorded them.  A fingerprint
splits each data file into named columns (a table's columns, or a JSON
file's leaves grouped by path with list indices dropped).  A numeric
column keeps ``SAMPLE_ROWS`` evenly spaced values, its sum and its sum
of squares; any other column keeps every value.  ``compare`` measures
the largest relative deviation of the numbers, each against
``max(|reference|, FLOOR_SHARE * column maximum)``; ``RTOL`` bounds it
and is never widened.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

from kickedchain import apply_overrides, parse_config, run_experiment

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus.json")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

RTOL = 1e-8
FLOOR_SHARE = 1e-9
SAMPLE_ROWS = 64
# Far-tail log probabilities are round-off; compare them as probabilities.
EXP_COLUMNS = ("log_probability",)


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


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _leaves(node, path):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for item in node:
            yield from _leaves(item, f"{path}[]")
    else:
        yield path, node


def _columns(path: str) -> dict[str, list]:
    """Named value columns of one data file."""
    if path.endswith(".csv"):
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return {name: data[:, j].tolist() for j, name in enumerate(header)}
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if set(payload) == {"columns", "rows"}:
        return {name: [row[j] for row in payload["rows"]]
                for j, name in enumerate(payload["columns"])}
    columns: dict[str, list] = {}
    for key, value in _leaves(payload, ""):
        columns.setdefault(key, []).append(value)
    return columns


def fingerprint(out_dir: str, names) -> dict:
    """Fingerprint of the data files ``names`` in ``out_dir``."""
    result = {}
    for name in sorted(names):
        cols = {}
        for key, values in _columns(os.path.join(out_dir, name)).items():
            if not all(_is_number(v) for v in values):
                cols[key] = {"values": values}
                continue
            col = np.asarray(values, dtype=np.float64)
            if key in EXP_COLUMNS:
                col, key = np.exp(col), f"exp({key})"
            idx = np.linspace(0, col.size - 1, min(col.size, SAMPLE_ROWS)).round()
            idx = np.unique(idx.astype(int))
            cols[key] = {"rows": col.size, "sample": col[idx].tolist(),
                         "sum": float(col.sum()), "sumsq": float(col @ col)}
        result[name] = cols
    return result


def _max_rel_dev(got, ref, floor: float) -> float:
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    scale = np.maximum(np.abs(ref), floor)
    scale[scale == 0.0] = 1.0
    return float(np.max(np.abs(got - ref) / scale, initial=0.0))


def compare(got: dict, ref: dict) -> float:
    """Largest relative deviation of fingerprint ``got`` from ``ref``
    (infinite where files, columns, row counts or non-numeric values differ)."""
    if got.keys() != ref.keys():
        return math.inf
    worst = 0.0
    for name, ref_cols in ref.items():
        got_cols = got[name]
        if got_cols.keys() != ref_cols.keys():
            return math.inf
        for key, rc in ref_cols.items():
            gc = got_cols[key]
            if "values" in rc or "values" in gc:
                if gc != rc:
                    return math.inf
                continue
            if gc["rows"] != rc["rows"]:
                return math.inf
            floor = FLOOR_SHARE * max(abs(v) for v in rc["sample"])
            worst = max(worst, _max_rel_dev(gc["sample"], rc["sample"], floor))
            for stat in ("sum", "sumsq"):
                worst = max(worst, _max_rel_dev([gc[stat]], [rc[stat]], 0.0))
    return worst


def main() -> int:
    with open(CORPUS, encoding="utf-8") as fh:
        corpus = json.load(fh)
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        fingerprints = json.load(fh)
    with tempfile.TemporaryDirectory() as tmp:
        for label, entry in corpus["recipes"].items():
            out_dir = os.path.join(tmp, label)
            record = run_recipe(entry["overrides"], out_dir)
            corpus["recipes"][label] = {"overrides": entry["overrides"], **record}
            if "files" in record and label not in fingerprints:
                fingerprints[label] = fingerprint(out_dir, record["files"])
                print(f"{label}: fingerprint recorded")
            print(f"{label}: {len(record.get('files', record.get('checks')))} entries")
    with open(CORPUS, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(corpus, indent=2) + "\n")
    # One line per recipe keeps the anchored fingerprints readable in a diff.
    lines = [f"  {json.dumps(label)}: {json.dumps(fingerprints[label])}"
             for label in sorted(fingerprints)]
    with open(FINGERPRINTS, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
