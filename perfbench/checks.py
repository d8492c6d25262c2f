"""Output checks: invariants, byte reproducibility and a tolerance comparator.

The stored reference keeps, for every data file of every run, a numeric
fingerprint rather than the bytes: for a table, its header, row count,
the values of up to ``SAMPLE_ROWS`` evenly spaced rows, and each column's
sum and sum of squares; for a JSON file, every leaf.  Numbers are compared
by maximum relative deviation, each against ``max(|reference|, floor)``,
where the floor is ``FLOOR_SHARE`` of the largest magnitude in the same
column (or JSON key), so a kernel that legitimately moves last digits
still passes while a wrong answer does not.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

import numpy as np

SAMPLE_ROWS = 64
RTOL = 1e-6
FLOOR_SHARE = 1e-9
ROW_SUM_TOL = 1e-9
NORM_TOL = 1e-10
# log_probability is compared as a probability: far-tail logs are round-off.
EXP_COLUMNS = ("log_probability",)
# Validation deviations are round-off-sized measures; they are checked
# through each check's ``passed`` flag instead of by value.
UNCOMPARED_KEYS = ("deviation",)


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read_table(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _table_fingerprint(path: str) -> dict:
    header, data = _read_table(path)
    rows = data.shape[0]
    idx = np.unique(np.linspace(0, rows - 1, min(rows, SAMPLE_ROWS)).round().astype(int))
    columns = {}
    names = []
    for j, name in enumerate(header):
        col = data[:, j]
        if name in EXP_COLUMNS:
            col, name = np.exp(col), f"exp({name})"
        names.append(name)
        columns[name] = {
            "sample": col[idx].tolist(),
            "sum": float(col.sum()),
            "sumsq": float(np.dot(col, col)),
        }
    return {"kind": "table", "header": names, "rows": rows, "sample_rows": idx.tolist(),
            "columns": columns}


def _leaves(node, path=""):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, node


def _json_fingerprint(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return {"kind": "json", "leaves": [[p, v] for p, v in _leaves(payload)]}


def fingerprint(path: str) -> dict:
    return _table_fingerprint(path) if path.endswith(".csv") else _json_fingerprint(path)


def _max_rel_dev(got, ref, floor: float) -> float:
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if got.shape != ref.shape:
        return math.inf
    if got.size == 0:
        return 0.0
    scale = np.maximum(np.abs(ref), floor)
    scale[scale == 0.0] = 1.0
    return float(np.max(np.abs(got - ref) / scale))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(got: dict, ref: dict) -> tuple[float, list[str]]:
    """Maximum relative deviation of ``got`` from ``ref``, and any mismatches
    that are not numeric (shape, row count, non-numeric leaves)."""
    problems: list[str] = []
    if got["kind"] != ref["kind"]:
        return math.inf, [f"kind {got['kind']} != {ref['kind']}"]
    worst = 0.0
    if got["kind"] == "table":
        if got["rows"] != ref["rows"] or got["header"] != ref["header"]:
            return math.inf, [f"table shape {got['rows']} rows {got['header']} != "
                              f"{ref['rows']} rows {ref['header']}"]
        for name, rc in ref["columns"].items():
            gc = got["columns"][name]
            floor = FLOOR_SHARE * max(abs(v) for v in rc["sample"])
            worst = max(worst, _max_rel_dev(gc["sample"], rc["sample"], floor))
            for stat in ("sum", "sumsq"):
                worst = max(worst, _max_rel_dev([gc[stat]], [rc[stat]], FLOOR_SHARE * abs(rc[stat])))
        return worst, problems

    got_leaves, ref_leaves = got["leaves"], ref["leaves"]
    if [p for p, _ in got_leaves] != [p for p, _ in ref_leaves]:
        return math.inf, ["JSON structure differs"]
    groups: dict[str, list[tuple[float, float]]] = {}
    for (path, gv), (_, rv) in zip(got_leaves, ref_leaves):
        key = re.sub(r"\[\d+\]", "[]", path)
        if key.rsplit(".", 1)[-1] in UNCOMPARED_KEYS:
            continue
        if _is_number(rv) and _is_number(gv):
            groups.setdefault(key, []).append((gv, rv))
        elif gv != rv:
            problems.append(f"{path}: {gv!r} != {rv!r}")
    for pairs in groups.values():
        g, r = zip(*pairs)
        floor = FLOOR_SHARE * max(abs(v) for v in r)
        worst = max(worst, _max_rel_dev(g, r, floor))
    return worst, problems


def invariant_problems(path: str) -> list[str]:
    """Invariants of one data file that hold for any operating point."""
    name = os.path.basename(path)
    problems: list[str] = []
    if name == "distribution.csv":
        _, data = _read_table(path)
        periods, where = np.unique(data[:, 0], return_inverse=True)
        sums = np.bincount(where, weights=data[:, 2])
        dev = float(np.max(np.abs(sums - 1.0)))
        if dev > ROW_SUM_TOL:
            problems.append(f"{path}: a period's probabilities miss 1 by {dev:.2e}")
    elif name == "profile.csv":
        _, data = _read_table(path)
        dev = abs(float(np.exp(data[:, 1]).sum()) - 1.0)
        if dev > 100 * ROW_SUM_TOL:
            problems.append(f"{path}: final profile misses 1 by {dev:.2e}")
    elif name == "validation.json":
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        if not report["passed"]:
            failed = [c["name"] for c in report["checks"] if not c["passed"]]
            problems.append(f"{path}: validate report fails {failed}")
    return problems


def norm_problems(final_norms: list[float]) -> list[str]:
    bad = [n for n in final_norms if abs(n - 1.0) > NORM_TOL]
    return [f"final-state norm drifted: {bad[:3]}"] if bad else []
