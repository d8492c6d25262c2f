"""Experiment orchestration: run one configured experiment, write artifacts.

This module only renders and writes.  Evolution comes from ``chain``,
every measurement and all packet geometry from ``observables``, the
heralded pair from ``protocol``.  Every experiment produces flat files in
the configured output directory plus a ``manifest.json`` echoing the
configuration, the derived parameters, and a SHA-256 digest of each data
file.  Data bytes are a pure function of (config, package version).  A
table has one layout per format: the text before its rows, a row of
locale-independent printf codes, one per column, the text between rows
and the text after them; a JSON table's text is the one ``json`` writes.
Other JSON payloads are built from the dataclasses that own their fields
and written with sorted keys, every non-finite float as null.  The write
encodes, hashes and writes each file's text chunk by chunk, atomically
(temp file then rename).  The distribution table, a (period, site) grid,
is streamed to it one snapshot per chunk from a site template built once,
so it is never held whole; a snapshot that equals its reverse bit for
bit formats each value once.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import time
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__, observables
from .chain import evolve, make_context
from .config import ExperimentConfig, config_values
from .errors import ConfigError, NotLocalizedError, PacketsOutOfRangeError
from .observables import (
    ModeReport,
    detect_accelerator_modes,
    fit_localization_length,
    ipr,
    max_concurrence,
    mode_decay,
    q_measure,
    spread_variance,
    trackable_pulses,
)
from .params import ACCEL_ALPHA_MAX, ACCEL_ALPHA_MIN, derived_params
from .protocol import run_protocol
from .qkr import rechester_d
from .state import site_state
from .validation import validate_suite

# Probabilities below this floor are clamped before taking the log so the
# profile column stays finite for gnuplot-style tooling.
LOG_FLOOR = 1e-320
# Characters of a chunk encoded, hashed and written at a time: small enough
# to stay in cache, so no chunk ever needs a whole encoded copy of itself.
WRITE_SLICE = 1 << 18


@dataclass(frozen=True)
class RunManifest:
    """What was run, from what inputs, producing which bytes."""

    experiment: str
    version: str
    config: dict
    derived: dict
    wall_clock_seconds: float
    output_dir: str
    files: dict


# The code of a float column; %r spells every finite float as json does.
_FLOAT_CODE = {"csv": "%.12g", "json": "%r"}


def _layout(header: tuple[str, ...], codes, fmt: str) -> tuple[str, str, str, str]:
    """The text before the rows, the row of column ``codes``, the text
    between rows and the text after the rows of a ``fmt`` table: CSV, or
    ``_json_text`` of ``{"columns": header, "rows": rows}``."""
    if fmt == "csv":
        return ",".join(header) + "\n", ",".join(codes), "\n", "\n"
    head, tail = _json_text({"columns": list(header), "rows": []}).split("[]")
    row = "    [\n      " + ",\n      ".join(codes) + "\n    ]"
    return head + "[\n", row, ",\n", "\n  ]" + tail


def _spelled(rows: str, fmt: str) -> str:
    # json's NaN, Infinity and -Infinity for %r's nan, inf and -inf; rows hold no other letters.
    return rows if fmt == "csv" else rows.replace("nan", "NaN").replace("inf", "Infinity")


def _table(header: tuple[str, ...], rows: list[tuple], fmt: str) -> str:
    """Render ``rows`` as a ``fmt`` table, one code per column chosen from the first row."""
    codes = ["%d" if isinstance(v, int) else _FLOAT_CODE[fmt] for v in rows[0]]
    before, row, between, after = _layout(header, codes, fmt)
    return before + _spelled(between.join([row % r for r in rows]), fmt) + after


def _grid(
    header: tuple[str, ...], n_sites: int, snapshots: Iterable[tuple[int, np.ndarray]], fmt: str
) -> Iterator[str]:
    """Yield ``_table``'s text of the (period, site, value) rows of
    ``(period, values)`` snapshots, one snapshot per chunk.

    Each snapshot puts its period in place of ``@`` in a site template
    built once and formats its values with one ``%``.  A mirror snapshot,
    one of an odd chain whose values equal their reverse bit for bit
    (compared as uint64, so 0.0 never pairs with -0.0 and NaN payloads
    never merge), formats only sites center..N and fills both halves
    from those strings; equal bits give equal strings.
    """
    code = _FLOAT_CODE[fmt]
    before, row, between, after = _layout(header, ("@", "%d", "%" + code), fmt)
    yield before
    template = between.join([row % site for site in range(1, n_sites + 1)])
    mid = n_sites // 2
    mirror_template = template.replace(code, "%s")
    half_format = ",".join([code] * (n_sites - mid))
    for i, (period, values) in enumerate(snapshots):
        bits = values.view(np.uint64)
        if n_sites % 2 and (bits == bits[::-1]).all():
            half = (half_format % tuple(values[mid:].tolist())).split(",")
            text = mirror_template.replace("@", str(period)) % tuple(half[:0:-1] + half)
        else:
            text = template.replace("@", str(period)) % tuple(values.tolist())
        yield (between if i else "") + _spelled(text, fmt)
    yield after


def _json_text(payload) -> str:
    """``payload`` as sorted JSON text, each non-finite float at any depth
    of dicts, lists and tuples as null: strict JSON has no NaN or Infinity."""
    return json.dumps(_finite_or_null(payload), sort_keys=True, indent=2) + "\n"


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _trajectory(cfg: ExperimentConfig):
    ctx = make_context(cfg.chain)
    start = site_state(cfg.chain.n_sites, cfg.chain.center)
    return evolve(start, ctx, cfg.n_periods, record_every=cfg.record_every)


def _distribution(cfg: ExperimentConfig, traj) -> dict:
    # |a|² is read one snapshot at a time, as the table is written.
    header = ("period", "site", "probability")
    snapshots = ((period, np.abs(state.amplitudes) ** 2) for period, state in traj)
    return {f"distribution.{cfg.format}": _grid(header, cfg.chain.n_sites, snapshots, cfg.format)}


def _run_evolve(cfg: ExperimentConfig) -> dict:
    return _distribution(cfg, _trajectory(cfg))


def _mode_reports(cfg: ExperimentConfig, traj) -> list[ModeReport]:
    last = trackable_pulses(cfg.chain)
    return [
        detect_accelerator_modes(state, period, cfg.chain)
        for period, state in traj
        if 1 <= period <= last
    ]


def _run_fig1(cfg: ExperimentConfig) -> dict:
    traj = _trajectory(cfg)
    reports = _mode_reports(cfg, traj)
    return {
        **_distribution(cfg, traj),
        "modes.json": _json_text({"reports": [asdict(r) for r in reports]}),
    }


def _run_diffusion(cfg: ExperimentConfig) -> dict:
    traj = _trajectory(cfg)
    p = cfg.chain
    k_s = derived_params(p).k_s
    d_classical = rechester_d(k_s) if k_s > 0.0 else 0.0
    rows = [
        (period, spread_variance(state, p.center, p.b_q), d_classical * period)
        for period, state in traj
    ]
    header = ("period", "variance", "classical_prediction")
    return {f"variance.{cfg.format}": _table(header, rows, cfg.format)}


def _run_localization(cfg: ExperimentConfig) -> dict:
    # Only the final state is read, so no other period is recorded.
    final = _trajectory(replace(cfg, record_every=max(cfg.n_periods, 1))).final
    p = cfg.chain
    probs = np.abs(final.amplitudes) ** 2
    rows = list(zip(range(1, probs.size + 1), np.log(np.maximum(probs, LOG_FLOOR)).tolist()))
    try:
        fit = fit_localization_length(final, p.center)
        predicted = derived_params(p).localization_length
        fit_payload = {"localized": True, **asdict(fit), "predicted_length": predicted}
    except NotLocalizedError as exc:
        fit_payload = {"localized": False, "detail": str(exc)}
    return {
        f"profile.{cfg.format}": _table(("site", "log_probability"), rows, cfg.format),
        "fit.json": _json_text(fit_payload),
    }


def _run_entanglement(cfg: ExperimentConfig) -> dict:
    traj = _trajectory(cfg)
    rows = [
        (period, q_measure(state), ipr(state), max_concurrence(state))
        for period, state in traj
    ]
    header = ("period", "q_measure", "ipr", "max_concurrence")
    return {f"measures.{cfg.format}": _table(header, rows, cfg.format)}


def _run_accel(cfg: ExperimentConfig) -> dict:
    last = trackable_pulses(cfg.chain)
    n, every = cfg.n_periods, cfg.record_every
    first, need = observables.MODE_DECAY_FIRST_PULSE, observables.MODE_DECAY_MIN_PULSES
    # Pulses past the last trackable recorded one are never read: stop there.
    stop = n if n <= last else last - last % every
    # Evolving to stop records the multiples of record_every below it, then
    # stop itself; a lazy range counts those from first on, so n may be huge.
    n_fit = len(range(-(-first // every) * every, stop, every)) + (first <= stop)
    if n_fit < need:
        raise ConfigError(
            f"accel needs at least {need} recorded pulses in [{first}, "
            f"{last}] (chain geometry cap); got {n_fit} "
            "from keys 'n_periods'/'record_every'/'n_sites'"
        )
    derived = derived_params(cfg.chain)
    if not derived.in_accelerator_window:
        raise ConfigError(
            f"accel needs alpha = beta*b_q/(2*pi) in the accelerator-mode window "
            f"[{ACCEL_ALPHA_MIN:.2f}, {ACCEL_ALPHA_MAX:.2f}]; got alpha = {derived.alpha:.4g}"
        )
    reports = _mode_reports(cfg, _trajectory(replace(cfg, n_periods=stop)))
    return {
        "modes.json": _json_text({"reports": [asdict(r) for r in reports]}),
        "decay.json": _json_text(asdict(mode_decay(reports))),
    }


def _run_protocol(cfg: ExperimentConfig) -> dict:
    # run_protocol checks the packet geometry 'n_periods' implies before
    # evolving, as accel does.
    try:
        report = run_protocol(cfg.chain, cfg.n_periods)
    except (ValueError, PacketsOutOfRangeError) as exc:
        raise ConfigError(
            f"protocol at n_periods={cfg.n_periods}, b_q={cfg.chain.b_q!r}: {exc}"
        ) from exc
    payload = {"n_pulses": cfg.n_periods, **asdict(report)}
    return {"report.json": _json_text(payload)}


def _run_validate(cfg: ExperimentConfig) -> dict:
    return {"validation.json": _json_text(validate_suite().as_dict())}


_RUNNERS = {
    "evolve": _run_evolve,
    "fig1": _run_fig1,
    "diffusion": _run_diffusion,
    "localization": _run_localization,
    "entanglement": _run_entanglement,
    "accel": _run_accel,
    "protocol": _run_protocol,
    "validate": _run_validate,
}


def _atomic_write(path: str, chunks: str | Iterable[str]) -> str:
    """Write ``chunks``, one text or an iterable of text chunks, as UTF-8
    through a temp file and a rename; return the SHA-256 of the bytes
    written.

    Each chunk is encoded a slice at a time as it arrives, and each slice
    is both hashed and written, so neither a whole table's text nor an
    encoded copy of it is ever held.
    """
    if isinstance(chunks, str):
        chunks = (chunks,)
    tmp = path + ".tmp"
    sha = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                for start in range(0, len(chunk), WRITE_SLICE):
                    data = chunk[start:start + WRITE_SLICE].encode("utf-8")
                    sha.update(data)
                    fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        # A failed render, write or rename, or a Ctrl-C, leaves no temp
        # file behind and the target as it was.
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return sha.hexdigest()


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Run ``cfg.experiment``, write its artifacts, and return the manifest.

    The manifest is also written to ``manifest.json``.  Its wall-clock
    entry varies run to run; every other output byte is reproducible.
    """
    started = time.monotonic()
    outputs = _RUNNERS[cfg.experiment](cfg)

    os.makedirs(cfg.output_dir, exist_ok=True)
    # Written last, a manifest is left only if every digest in it holds.
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(cfg.output_dir, "manifest.json"))
    digests = {
        filename: _atomic_write(os.path.join(cfg.output_dir, filename), outputs[filename])
        for filename in sorted(outputs)
    }

    manifest = RunManifest(
        experiment=cfg.experiment,
        version=__version__,
        config=config_values(cfg),
        derived=asdict(derived_params(cfg.chain)),
        wall_clock_seconds=time.monotonic() - started,
        output_dir=cfg.output_dir,
        files=digests,
    )
    _atomic_write(os.path.join(cfg.output_dir, "manifest.json"), _json_text(asdict(manifest)))
    return manifest
