import json
from dataclasses import replace
from pathlib import Path

import pytest

from kickedchain import (
    DEFAULTS,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    config_values,
    parse_config,
)
from kickedchain.experiments import _RUNNERS


class TestDefaults:
    def test_empty_text_gives_reference_run(self):
        cfg = parse_config("")
        assert cfg.experiment == "fig1"
        assert cfg.chain.n_sites == 1401
        assert cfg.chain.center == 701
        assert cfg.chain.beta == 100.0
        assert cfg.chain.b_q == pytest.approx(1.0 / 15.0)
        assert cfg.n_periods == 6
        assert cfg.record_every == 1
        assert cfg.format == "csv"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nbeta = 50  # trailing\n")
        assert cfg.chain.beta == 50.0

    def test_last_assignment_wins(self):
        cfg = parse_config("beta = 50\nbeta = 60\n")
        assert cfg.chain.beta == 60.0


class TestErrors:
    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="nope"):
            parse_config("nope = 3\n")

    def test_type_mismatch_named(self):
        with pytest.raises(ConfigError, match="n_sites"):
            parse_config("n_sites = many\n")

    def test_range_violation_named(self):
        with pytest.raises(ConfigError, match="b_q"):
            parse_config("b_q = -1\n")

    def test_center_outside_chain(self):
        with pytest.raises(ConfigError, match="center"):
            parse_config("n_sites = 100\ncenter = 500\n")

    def test_chain_past_the_snapshot_budget(self):
        # The period-0 snapshot alone would exceed the 2e7-amplitude budget.
        assert parse_config("n_sites = 20000000\ncenter = 1\n").chain.n_sites == 20_000_000
        with pytest.raises(ConfigError, match="chain geometry: n_sites=20000001 exceeds"):
            parse_config("n_sites = 20000001\ncenter = 1\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("beta = 50\nwhat is this\n")

    def test_bad_choice_named(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config("format = xml\n")

    @pytest.mark.parametrize("key,value", [("engine", "dense"), ("seed", "3"), ("boundary", "ring")])
    def test_removed_keys_are_unknown(self, key, value):
        # No key selects the evolution path, seeds a run or picks a ring.
        with pytest.raises(ConfigError, match=f"unknown configuration key '{key}'"):
            parse_config(f"{key} = {value}\n")


class TestOverrides:
    def test_applied_on_top(self):
        cfg = apply_overrides(parse_config("beta = 10\n"), ["beta=20", "n_periods=5"])
        assert cfg.chain.beta == 20.0
        assert cfg.n_periods == 5

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(parse_config(""), ["beta"])


class TestRoundTrip:
    def test_config_values_covers_every_key(self):
        cfg = parse_config("")
        values = config_values(cfg)
        assert set(values) == {
            "experiment", "n_sites", "center", "beta", "b_q",
            "n_periods", "record_every", "output_dir", "format",
        }


def test_readme_keys_block_is_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Keys and defaults:\n\n```\n", 1)[1].split("```", 1)[0]
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if line.strip()]
    assert keys == list(DEFAULTS)
    assert config_values(parse_config(block)) == DEFAULTS


@pytest.mark.parametrize("key,value", [
    ("format", "xml"),
    ("experiment", "bogus"),
    ("n_periods", -1),
    ("record_every", 0),
    ("output_dir", ""),
    ("output_dir", "out\0dir"),
    ("n_sites", 20_000_001),
    ("n_sites", 201),  # the default centre 701 lies past the chain's end
])
def test_every_construction_path_refuses_alike(key, value):
    # The type validates itself: a direct construction and a
    # dataclasses.replace give the one-line error the parser gives.
    with pytest.raises(ConfigError) as parsed:
        parse_config(f"{key} = {value}\n")
    message = str(parsed.value)
    for build in (lambda: ExperimentConfig(**{key: value}),
                  lambda: replace(parse_config(""), **{key: value})):
        with pytest.raises(ConfigError) as built:
            build()
        assert str(built.value) == message


@pytest.mark.parametrize("key,value,message", [
    ("record_every", 2.5, "key 'record_every': expected an integer, got 2.5"),
    ("n_periods", "3", "key 'n_periods': expected an integer, got '3'"),
    ("beta", "1", "key 'beta': expected a number, got '1'"),
    ("output_dir", 5, "key 'output_dir': expected a string, got 5"),
    ("n_sites", True, "key 'n_sites': expected an integer, got True"),
])
def test_construction_checks_each_value_type(key, value, message):
    # Values of the wrong type never reach the range checks, which would
    # accept 2.5 or end in a TypeError.
    for build in (lambda: ExperimentConfig(**{key: value}),
                  lambda: replace(parse_config(""), **{key: value})):
        with pytest.raises(ConfigError) as built:
            build()
        assert str(built.value) == message
    assert ExperimentConfig(beta=50).chain == ExperimentConfig(beta=50.0).chain


def test_float_keys_store_floats():
    # An int for a float key is stored as a float, so equal configs write
    # equal manifest bytes; an int past the float range is refused in one line.
    as_json = [json.dumps(config_values(cfg))
               for cfg in (ExperimentConfig(beta=100), parse_config(""))]
    assert as_json[0] == as_json[1]
    assert type(ExperimentConfig(b_q=1).b_q) is float
    for key in ("beta", "b_q"):
        with pytest.raises(ConfigError) as built:
            ExperimentConfig(**{key: 10**400})
        assert str(built.value) == f"key '{key}': expected a number, got an integer of 401 digits"


@pytest.mark.parametrize("key,sign,digits,message", [
    ("beta", 1, 5001, "key 'beta': expected a number, got an integer of 5001 digits"),
    ("b_q", -1, 5001, "key 'b_q': expected a number, got a negative integer of 5001 digits"),
    ("n_periods", 1, 5001, "key 'n_periods': must be <= 2**53, got an integer of 5001 digits"),
    ("n_periods", -1, 4301,
     "key 'n_periods': must be nonnegative, got a negative integer of 4301 digits"),
    ("record_every", -1, 5001,
     "key 'record_every': must be >= 1, got a negative integer of 5001 digits"),
    ("experiment", 1, 5001, "key 'experiment': expected a string, got an integer of 5001 digits"),
    ("n_sites", 1, 5001, "chain geometry: n_sites=an integer of 5001 digits exceeds the budget "
     "of 20000000 stored amplitudes"),
    ("center", 1, 5001,
     "chain geometry: center must be an integer in [1, 1401], got an integer of 5001 digits"),
])
def test_ints_too_long_to_print_are_named_by_digit_count(key, sign, digits, message):
    # Python refuses str() of an int past 4300 digits: the message names
    # its size instead and stays one line.
    with pytest.raises(ConfigError) as built:
        ExperimentConfig(**{key: sign * 10 ** (digits - 1)})
    assert str(built.value) == message


def test_period_cap_holds_for_every_experiment():
    # Past 2**53 periods rounding may add up to the whole norm, whatever runs.
    with pytest.raises(ConfigError, match=r"key 'n_periods': must be <= 2\*\*53"):
        ExperimentConfig(experiment="evolve", n_periods=2**53 + 1, record_every=2**53 + 1)
    assert ExperimentConfig(n_periods=2**53).n_periods == 2**53


def test_config_is_its_own_defaults():
    assert ExperimentConfig() == parse_config("")
    assert config_values(ExperimentConfig()) == DEFAULTS
    assert ExperimentConfig(beta=50.0).chain == parse_config("beta = 50\n").chain


def test_every_experiment_has_a_runner():
    assert list(_RUNNERS) == list(EXPERIMENTS)
