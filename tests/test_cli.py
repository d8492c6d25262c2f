"""Exit-code contract of ``kickedchain``: invalid input ends in exit 1 and
one line on stderr, never a traceback."""

import pytest

from kickedchain.cli import main

TINY = ["--set", "n_sites=21", "--set", "center=11", "--set", "n_periods=1"]


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1
    return err


@pytest.mark.parametrize(
    "override,needle",
    [
        ("b_q=0", "b_q > 0"),
        ("n_periods=0", "pulse_index must be >= 1"),
        ("n_periods=9", "clearance"),
    ],
)
def test_protocol_preconditions_are_config_errors(override, needle, tmp_path, capsys):
    code = main(["protocol", "--set", override, "--out", str(tmp_path / "run")])
    assert code == 1
    err = _one_line_error(capsys)
    assert err.startswith("config error: protocol at n_periods=")
    assert needle in err
    assert not (tmp_path / "run").exists()


def test_out_under_a_regular_file(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    code = main(["evolve", *TINY, "--out", str(blocker / "run")])
    assert code == 1
    assert _one_line_error(capsys).startswith("output error: ")


@pytest.mark.parametrize("item", ["engine=dense", "seed=3", "boundary=ring"])
def test_removed_keys_exit_one(item, tmp_path, capsys):
    code = main(["fig1", "--set", item, "--out", str(tmp_path / "run")])
    assert code == 1
    key = item.split("=")[0]
    assert _one_line_error(capsys) == f"config error: unknown configuration key '{key}'\n"
