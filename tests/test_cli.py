"""Exit-code contract of ``kickedchain``: invalid input ends in exit 1, a
run past the snapshot memory budget in exit 2, each with one line on
stderr, never a traceback."""

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


@pytest.mark.parametrize(
    "override,needle", [("beta=1e308", "2*beta"), ("b_q=1e308", "(b_q/2)*10**2")]
)
def test_non_finite_phase_is_a_config_error(override, needle, tmp_path, capsys):
    # Both inputs are finite, but 2*beta or (b_q/2)*10**2 overflows.
    code = main(["evolve", *TINY, "--set", override, "--out", str(tmp_path / "run")])
    assert code == 1
    err = _one_line_error(capsys)
    assert err.startswith("config error: chain geometry: ")
    assert needle in err and "not finite" in err
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


def test_snapshot_budget_exits_two(tmp_path, capsys):
    # 400001 snapshots x 1401 sites passes the 2e7-amplitude budget:
    # refused before evolving.
    code = main(["evolve", "--set", "n_periods=400000", "--out", str(tmp_path / "run")])
    assert code == 2
    err = _one_line_error(capsys)
    assert err.startswith("capacity error: ")
    assert err.endswith("increase record_every\n")
    assert not (tmp_path / "run").exists()


def test_accel_outside_the_window_is_a_config_error(tmp_path, capsys):
    # alpha = 100 * 0.05 / (2*pi) = 0.80: refused before evolving.
    code = main([
        "accel", "--set", "n_sites=2701", "--set", "center=1351", "--set", "beta=100",
        "--set", "b_q=0.05", "--set", "n_periods=12", "--out", str(tmp_path / "run"),
    ])
    assert code == 1
    err = _one_line_error(capsys)
    assert err.startswith("config error: accel needs alpha")
    assert "[1.03, 1.10]" in err and "0.7958" in err
    assert not (tmp_path / "run").exists()


def test_package_error_during_a_run_is_one_line(tmp_path, capsys):
    # alpha = 1.061 lies in the window, but only 4 pulses detect modes,
    # which no config-time check can know: the decay fit refuses.
    code = main([
        "accel", "--set", "beta=10", "--set", "b_q=0.6666666666666666",
        "--set", "n_periods=20", "--out", str(tmp_path / "run"),
    ])
    assert code == 1
    err = _one_line_error(capsys)
    assert err.startswith("run error: InsufficientDataError: ")
