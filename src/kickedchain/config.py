"""Strict key=value experiment configuration.

One ``key = value`` per line, ``#`` starts a comment, unknown keys are
rejected by name.  The defaults reproduce the headline accelerator-mode
run: a 1401-site chain kicked at b_q = 1/15 with hopping phase 100.
Every run evolves the open chain by the banded ring-kernel hop; the
dense matrices in ``chain`` are test oracles and no key selects them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import MAX_SNAPSHOT_VALUES
from .errors import ConfigError
from .params import ChainParams

EXPERIMENTS = (
    "evolve", "fig1", "diffusion", "localization",
    "entanglement", "accel", "protocol", "validate",
)
FORMATS = ("csv", "json")

DEFAULTS = {
    "experiment": "fig1",
    "n_sites": 1401,
    "center": 701,
    "beta": 100.0,
    "b_q": 1.0 / 15.0,
    "n_periods": 6,
    "record_every": 1,
    "output_dir": "out",
    "format": "csv",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated run description; ``chain`` carries the physical geometry."""

    experiment: str
    chain: ChainParams
    n_periods: int
    record_every: int
    output_dir: str
    format: str


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': expected a number, got {raw!r}") from None
    return val


def _parse_choice(key: str, raw: str, allowed: tuple[str, ...]) -> str:
    if raw not in allowed:
        raise ConfigError(f"key '{key}': must be one of {', '.join(allowed)}, got {raw!r}")
    return raw


def _validated(values: dict) -> ExperimentConfig:
    if values["n_periods"] < 0:
        raise ConfigError(f"key 'n_periods': must be nonnegative, got {values['n_periods']}")
    if values["record_every"] < 1:
        raise ConfigError(f"key 'record_every': must be >= 1, got {values['record_every']}")
    if values["n_sites"] > MAX_SNAPSHOT_VALUES:
        # The period-0 snapshot alone would exceed the evolution's budget.
        raise ConfigError(
            f"chain geometry: n_sites={values['n_sites']} exceeds the budget of "
            f"{MAX_SNAPSHOT_VALUES} stored amplitudes"
        )
    try:
        chain = ChainParams(
            n_sites=values["n_sites"],
            center=values["center"],
            beta=values["beta"],
            b_q=values["b_q"],
        )
    except ValueError as exc:
        raise ConfigError(f"chain geometry: {exc}") from exc
    return ExperimentConfig(
        experiment=values["experiment"],
        chain=chain,
        n_periods=values["n_periods"],
        record_every=values["record_every"],
        output_dir=values["output_dir"],
        format=values["format"],
    )


def _apply(values: dict, key: str, raw: str) -> None:
    if key == "experiment":
        values[key] = _parse_choice(key, raw, EXPERIMENTS)
    elif key in ("n_sites", "center", "n_periods", "record_every"):
        values[key] = _parse_int(key, raw)
    elif key in ("beta", "b_q"):
        values[key] = _parse_float(key, raw)
    elif key == "format":
        values[key] = _parse_choice(key, raw, FORMATS)
    elif key == "output_dir":
        if not raw:
            raise ConfigError("key 'output_dir': must not be empty")
        if "\0" in raw:
            raise ConfigError("key 'output_dir': must not contain a NUL byte")
        values[key] = raw
    else:
        raise ConfigError(f"unknown configuration key '{key}'")


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text, applying defaults for absent keys."""
    values = dict(DEFAULTS)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        _apply(values, key.strip(), raw.strip())
    return _validated(values)


def apply_overrides(cfg: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    """Apply ``key=value`` strings (CLI --set) on top of an existing config."""
    values = config_values(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected 'key=value'")
        key, _, raw = item.partition("=")
        _apply(values, key.strip(), raw.strip())
    return _validated(values)


def config_values(cfg: ExperimentConfig) -> dict:
    """Flat key-value view of a config, in the documented key order."""
    return {
        "experiment": cfg.experiment,
        "n_sites": cfg.chain.n_sites,
        "center": cfg.chain.center,
        "beta": cfg.chain.beta,
        "b_q": cfg.chain.b_q,
        "n_periods": cfg.n_periods,
        "record_every": cfg.record_every,
        "output_dir": cfg.output_dir,
        "format": cfg.format,
    }

