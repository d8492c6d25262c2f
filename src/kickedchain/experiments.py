"""Experiment orchestration: run one configured experiment, write artifacts.

This module only renders and writes.  Evolution comes from ``chain``,
every measurement and all packet geometry from ``observables``, the
heralded pair from ``protocol``.  Every experiment produces flat files in
the configured output directory plus a ``manifest.json`` echoing the
configuration, the derived parameters, and a SHA-256 digest of each data
file.  Data bytes are a pure function of (config, package version):
tables are rendered with one locale-independent printf code per column,
JSON payloads are built from the dataclasses that own their fields and
written with sorted keys, and files are written atomically (temp file
then rename).  A distribution table, a (period, site) product
grid, is rendered one snapshot at a time from a text template of every
site, built once per table; it yields the same bytes as rendering it
row by row.  A snapshot of an odd chain that equals its reverse bit for
bit (every snapshot of a mirror-symmetric run) formats only its sites
center..N and fills both halves from those strings: equal bits give
equal text, so each distinct value is formatted once.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .chain import evolve, make_context
from .config import ExperimentConfig, config_values
from .errors import ConfigError, NotLocalizedError, PacketsOutOfRangeError
from .observables import (
    MODE_DECAY_FIRST_PULSE,
    MODE_DECAY_MIN_PULSES,
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
from .params import ACCEL_ALPHA_MAX, ACCEL_ALPHA_MIN, ChainParams, derived_params
from .protocol import run_protocol
from .qkr import rechester_d
from .state import site_state
from .validation import validate_suite

# Probabilities below this floor are clamped before taking the log so the
# profile column stays finite for gnuplot-style tooling.
LOG_FLOOR = 1e-320
# Characters encoded, hashed and written at a time: small enough to stay in
# cache, and no output ever needs a whole encoded copy of itself.
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


class _SiteGrid:
    """The (period, site, value) rows of a snapshots x sites float64 array.

    ``len()`` is the number of rows and iterating yields them in period-major
    order, so a grid stands wherever ``_table`` takes a list of row tuples.
    """

    def __init__(self, periods: tuple[int, ...], values: np.ndarray):
        self.periods = periods
        self.values = values

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self):
        sites = range(1, self.values.shape[1] + 1)
        for period, row in zip(self.periods, self.values):
            for site, value in zip(sites, row.tolist()):
                yield period, site, value

    def csv_text(self, header: str) -> str:
        """The ``header`` line, then the rows as ``%d,%d,%.12g`` lines.

        The site template is built once; each snapshot puts its period in
        place of ``@`` and formats its values with one ``%``.  A mirror
        row, one of an odd chain whose values equal their reverse bit for
        bit (compared as uint64, so 0.0 never pairs with -0.0 and NaN
        payloads never merge), formats only sites center..N with
        ``%.12g`` and fills both halves from those strings through a
        ``%s`` template; equal bits give equal strings, so the bytes are
        those of the row-by-row rendering.
        """
        n_sites = self.values.shape[1]
        template = "".join([f"@,{site},%.12g\n" for site in range(1, n_sites + 1)])
        mirrored = [False] * len(self.periods)
        if n_sites % 2:
            mid = n_sites // 2
            bits = self.values.view(np.uint64)
            mirrored = (bits == bits[:, ::-1]).all(axis=1).tolist()
            mirror_template = template.replace("%.12g", "%s")
            half_format = ",".join(["%.12g"] * (n_sites - mid))
        rows = []
        for period, row, mirror in zip(self.periods, self.values, mirrored):
            if mirror:
                half = (half_format % tuple(row[mid:].tolist())).split(",")
                text = mirror_template.replace("@", str(period)) % tuple(half[:0:-1] + half)
            else:
                text = template.replace("@", str(period)) % tuple(row.tolist())
            rows.append(text)
        return "".join([header + "\n", *rows])


def _table(header: tuple[str, ...], rows: list[tuple] | _SiteGrid, fmt: str) -> str:
    """Render a column table as CSV text or as a JSON columns/rows object.

    CSV writes each column with one code, %d for integers and %.12g for
    floats, chosen from the first row.  A ``_SiteGrid`` is rendered one
    snapshot at a time from its site template, with the same bytes.
    """
    if fmt == "csv":
        if isinstance(rows, _SiteGrid):
            return rows.csv_text(",".join(header))
        line = ",".join("%d" if isinstance(v, int) else "%.12g" for v in rows[0])
        return "\n".join([",".join(header), *(line % row for row in rows)]) + "\n"
    return _json_text({"columns": list(header), "rows": [list(row) for row in rows]})


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _trajectory(cfg: ExperimentConfig):
    ctx = make_context(cfg.chain)
    start = site_state(cfg.chain.n_sites, cfg.chain.center)
    return evolve(start, ctx, cfg.n_periods, record_every=cfg.record_every)


def _distribution(cfg: ExperimentConfig, traj) -> dict:
    probs = np.abs(np.stack([state.amplitudes for state in traj.states])) ** 2
    grid = _SiteGrid(traj.periods, probs)
    header = ("period", "site", "probability")
    return {f"distribution.{cfg.format}": _table(header, grid, cfg.format)}


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
    # Recorded pulses in [first, last]: the multiples of record_every (a lazy
    # range, so n_periods may be huge) and the final period.
    n, every, first = cfg.n_periods, cfg.record_every, MODE_DECAY_FIRST_PULSE
    multiples = range(max(every, first), min(n, last) + 1, every)
    final = [n] if first <= n <= last and n % every else []
    n_fit = len(multiples) + len(final)
    if n_fit < MODE_DECAY_MIN_PULSES:
        raise ConfigError(
            f"accel needs at least {MODE_DECAY_MIN_PULSES} recorded pulses in [{first}, "
            f"{last}] (chain geometry cap); got {n_fit} "
            "from keys 'n_periods'/'record_every'/'n_sites'"
        )
    derived = derived_params(cfg.chain)
    if not derived.in_accelerator_window:
        raise ConfigError(
            f"accel needs alpha = beta*b_q/(2*pi) in the accelerator-mode window "
            f"[{ACCEL_ALPHA_MIN:.2f}, {ACCEL_ALPHA_MAX:.2f}]; got alpha = {derived.alpha:.4g}"
        )
    # Pulses past the last trackable recorded one are never read: stop there.
    stop = n if n <= last else last - last % every
    reports = _mode_reports(cfg, _trajectory(replace(cfg, n_periods=stop)))
    pulse_range = [multiples[0], (final or multiples)[-1]]
    decay = {**asdict(mode_decay(reports)), "pulse_range": pulse_range}
    return {
        "modes.json": _json_text({"reports": [asdict(r) for r in reports]}),
        "decay.json": _json_text(decay),
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


def _atomic_write(path: str, text: str) -> str:
    """Write ``text`` as UTF-8 through a temp file and a rename; return the
    SHA-256 of the bytes written.

    The text is encoded a slice at a time, and each slice is both hashed
    and written, so no encoded copy of a whole table is ever held.
    """
    tmp = path + ".tmp"
    sha = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for start in range(0, len(text), WRITE_SLICE):
                data = text[start:start + WRITE_SLICE].encode("utf-8")
                sha.update(data)
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        # A failed write or rename, or a Ctrl-C, leaves no temp file behind.
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return sha.hexdigest()


def _derived_dict(p: ChainParams) -> dict:
    # Non-finite values (hop distance at b_q = 0) have no strict-JSON
    # representation and are stored as null.
    return {
        key: (value if math.isfinite(value) else None)
        for key, value in asdict(derived_params(p)).items()
    }


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Run ``cfg.experiment``, write its artifacts, and return the manifest.

    The manifest is also written to ``manifest.json``.  Its wall-clock
    entry varies run to run; every other output byte is reproducible.
    """
    started = time.monotonic()
    outputs = _RUNNERS[cfg.experiment](cfg)

    os.makedirs(cfg.output_dir, exist_ok=True)
    digests = {
        filename: _atomic_write(os.path.join(cfg.output_dir, filename), outputs[filename])
        for filename in sorted(outputs)
    }

    manifest = RunManifest(
        experiment=cfg.experiment,
        version=__version__,
        config=config_values(cfg),
        derived=_derived_dict(cfg.chain),
        wall_clock_seconds=time.monotonic() - started,
        output_dir=cfg.output_dir,
        files=digests,
    )
    _atomic_write(os.path.join(cfg.output_dir, "manifest.json"), _json_text(asdict(manifest)))
    return manifest
