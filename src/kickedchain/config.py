"""Strict key=value experiment configuration.

One ``key = value`` per line, ``#`` starts a comment, unknown keys are
rejected by name.  ``ExperimentConfig`` declares the nine keys once: one
field per key, in the documented order, each with its default.  The
parser of a key follows its default's type, ``DEFAULTS`` and
``config_values`` are read from the fields, and the type validates itself
on construction, storing each value as its default's type.  So
``parse_config``, ``apply_overrides``, a direct ``ExperimentConfig(...)``
and ``dataclasses.replace`` all refuse a bad value with the same one-line
``ConfigError``.  The defaults reproduce the headline accelerator-mode
run: a 1401-site chain kicked at b_q = 1/15 with hopping phase 100.  Every
run evolves the open chain by the banded ring-kernel hop; the dense
matrices in ``chain`` are test oracles and no key selects them.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, fields

from .chain import MAX_SNAPSHOT_VALUES
from .errors import ConfigError, shown
from .params import ChainParams

EXPERIMENTS = (
    "evolve", "fig1", "diffusion", "localization",
    "entanglement", "accel", "protocol", "validate",
)
FORMATS = ("csv", "json")

# Per default type: the types a field accepts (bool never), their name in
# messages, and the parser of a key's raw text.
_KINDS = {
    int: (int, "an integer", lambda raw: int(raw, 10)),
    float: ((int, float), "a number", float),
    str: (str, "a string", str),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated run description, one field per configuration key.

    ``chain`` is the physical geometry built from n_sites, center, beta and
    b_q; it is derived, so it takes no argument and no part in equality.
    """

    experiment: str = "fig1"
    n_sites: int = 1401
    center: int = 701
    beta: float = 100.0
    b_q: float = 1.0 / 15.0
    n_periods: int = 6
    record_every: int = 1
    output_dir: str = "out"
    format: str = "csv"
    chain: ChainParams = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for key, default in DEFAULTS.items():
            value = getattr(self, key)
            accepted, noun, _ = _KINDS[type(default)]
            try:
                if isinstance(value, bool) or not isinstance(value, accepted):
                    raise TypeError
                # Stored as its default's type, so beta=100 echoes as 100.0.
                object.__setattr__(self, key, type(default)(value))
            except (TypeError, OverflowError):
                raise ConfigError(f"key '{key}': expected {noun}, got {shown(value)}") from None
        for key, allowed in (("experiment", EXPERIMENTS), ("format", FORMATS)):
            value = getattr(self, key)
            if value not in allowed:
                raise ConfigError(
                    f"key '{key}': must be one of {', '.join(allowed)}, got {shown(value)}"
                )
        if not self.output_dir:
            raise ConfigError("key 'output_dir': must not be empty")
        if "\0" in self.output_dir:
            raise ConfigError("key 'output_dir': must not contain a NUL byte")
        if self.n_periods < 0:
            raise ConfigError(f"key 'n_periods': must be nonnegative, got {shown(self.n_periods)}")
        if self.n_periods > 2**53:
            # Rounding of 2**-53 per period may add up to the whole norm.
            raise ConfigError(f"key 'n_periods': must be <= 2**53, got {shown(self.n_periods)}")
        if self.record_every < 1:
            raise ConfigError(f"key 'record_every': must be >= 1, got {shown(self.record_every)}")
        if self.n_sites > MAX_SNAPSHOT_VALUES:
            # The period-0 snapshot alone would exceed the evolution's budget.
            raise ConfigError(
                f"chain geometry: n_sites={shown(self.n_sites)} exceeds the budget of "
                f"{MAX_SNAPSHOT_VALUES} stored amplitudes"
            )
        try:
            chain = ChainParams(self.n_sites, self.center, self.beta, self.b_q)
        except ValueError as exc:
            raise ConfigError(f"chain geometry: {exc}") from exc
        object.__setattr__(self, "chain", chain)


DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig) if f.init}


def _apply(values: dict, key: str, raw: str) -> None:
    if key not in DEFAULTS:
        raise ConfigError(f"unknown configuration key '{key}'")
    _, noun, parse = _KINDS[type(DEFAULTS[key])]
    try:
        values[key] = parse(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': expected {noun}, got {raw!r}") from None


def _build(values: dict, overrides: Iterable[str]) -> ExperimentConfig:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected 'key=value'")
        key, _, raw = item.partition("=")
        _apply(values, key.strip(), raw.strip())
    return ExperimentConfig(**values)


def parse_config(text: str, overrides: Iterable[str] = ()) -> ExperimentConfig:
    """Parse configuration text, then ``key=value`` overrides (CLI --set).

    Only the result is validated, so an override may complete the text.
    """
    values = dict(DEFAULTS)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        _apply(values, key.strip(), raw.strip())
    return _build(values, overrides)


def apply_overrides(cfg: ExperimentConfig, overrides: Iterable[str]) -> ExperimentConfig:
    """Apply ``key=value`` strings (CLI --set) on top of an existing config."""
    return _build(config_values(cfg), overrides)


def config_values(cfg: ExperimentConfig) -> dict:
    """Flat key-value view of a config, in the documented key order."""
    return {key: getattr(cfg, key) for key in DEFAULTS}
