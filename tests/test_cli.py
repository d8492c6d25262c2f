"""Exit-code contract of ``kickedchain``: invalid input ends in exit 1, a
run past the snapshot memory budget in exit 2, an interrupt in exit 130,
each with one line on stderr, never a traceback."""

import contextlib
import errno
import io
import json
import os
import re
import tempfile

import pytest

from kickedchain import cli, validation
from kickedchain.cli import main

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

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


def test_protocol_packet_below_the_float_range_is_a_config_error(tmp_path, capsys):
    # b_q = 4*pi*238: at pulse 238 both packet centres fall half-way between
    # sites, and the reference Gaussians underflow on every site.
    code = main(["protocol", "--set", "b_q=2990.796206217483", "--set", "n_periods=238",
                 "--out", str(tmp_path / "run")])
    assert code == 1
    assert _one_line_error(capsys) == (
        "config error: protocol at n_periods=238, b_q=2990.796206217483: the reference "
        "packet e^(-b_q (s - 700.50)^2) cannot be normalized: its squares are below the "
        "float range on every site\n"
    )
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


def test_localization_records_only_the_final_state(tmp_path, capsys):
    # Recording all 5001 snapshots x 4001 sites would pass the 2e7-amplitude
    # budget; localization reads only the final state, so it runs.
    code = main([
        "localization", "--set", "n_sites=4001", "--set", "center=2001", "--set", "beta=20",
        "--set", "n_periods=5000", "--out", str(tmp_path / "run"),
    ])
    assert code == 0, capsys.readouterr().err
    fit = json.loads((tmp_path / "run" / "fit.json").read_text())
    assert fit["localized"] and fit["predicted_length"] == 100.0
    assert len((tmp_path / "run" / "profile.csv").read_text().splitlines()) == 4002


def test_localization_past_two_to_the_53_periods_is_a_config_error(tmp_path, capsys):
    code = main(["localization", "--set", f"n_periods={2**53 + 1}",
                 "--out", str(tmp_path / "run")])
    assert code == 1
    assert _one_line_error(capsys) == (
        f"config error: key 'n_periods': must be <= 2**53, got {2**53 + 1}\n"
    )
    assert not (tmp_path / "run").exists()


def test_warning_is_one_stderr_line(tmp_path, capsys):
    # The measurement window holds the whole excitation, so the heralded
    # branch is empty: the run succeeds and says so in one line, with no
    # source location.
    code = main(["protocol", "--set", "n_sites=201", "--set", "center=101", "--set", "beta=0",
                 "--set", "b_q=1", "--set", "n_periods=1", "--out", str(tmp_path / "run")])
    assert code == 0
    out, err = capsys.readouterr()
    assert err == ("warning: EmptyBranchWarning: the excitation-absent branch carries "
                   "no probability\n")
    assert out.splitlines()[-1] == f"wrote {tmp_path / 'run' / 'manifest.json'}"
    assert json.loads((tmp_path / "run" / "report.json").read_text())["fidelity"] == 0.0


def test_set_completes_a_config_file(tmp_path, capsys):
    # The file alone puts the default centre 701 past a 101-site chain; only
    # the configuration with the override applied is validated.
    config = tmp_path / "short.cfg"
    config.write_text("n_sites = 101\n", encoding="utf-8")
    code = main(["diffusion", "--config", str(config), "--set", "center=51",
                 "--out", str(tmp_path / "run")])
    assert code == 0, capsys.readouterr().err
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert (manifest["config"]["n_sites"], manifest["config"]["center"]) == (101, 51)


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


def test_interrupt_is_one_line_and_exit_130(monkeypatch, tmp_path, capsys):
    def interrupted(cfg):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_experiment", interrupted)
    code = main(["evolve", *TINY, "--out", str(tmp_path / "run")])
    assert code == 130
    assert _one_line_error(capsys) == "interrupted\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("error,code,line", [
    (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), 1, "output error: "),
    (KeyboardInterrupt(), 130, "interrupted"),
])
def test_failed_write_leaves_no_temp_file(error, code, line, monkeypatch, tmp_path, capsys):
    def failing_replace(src, dst):
        raise error

    monkeypatch.setattr(os, "replace", failing_replace)
    out = tmp_path / "run"
    assert main(["diffusion", *TINY, "--out", str(out)]) == code
    assert _one_line_error(capsys).startswith(line)
    assert out.is_dir() and not list(out.glob("*.tmp"))


def test_bad_positional_experiment_is_a_config_error(tmp_path, capsys):
    code = main(["nonsense", "--out", str(tmp_path / "run")])
    assert code == 1
    err = _one_line_error(capsys)
    assert err.startswith("config error: key 'experiment': must be one of evolve, ")
    assert err.endswith("got 'nonsense'\n")


@pytest.mark.parametrize("argv", [[], ["fig1", "--bogus"]], ids=["no experiment", "unknown option"])
def test_usage_error_exits_one(argv, monkeypatch, tmp_path, capsys):
    # argparse's own exit is 2, which is the capacity code here.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("kickedchain: error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not list(tmp_path.iterdir())


def test_empty_out_is_a_config_error(capsys):
    code = main(["evolve", *TINY, "--out", ""])
    assert code == 1
    assert _one_line_error(capsys) == "config error: key 'output_dir': must not be empty\n"


@pytest.mark.parametrize(
    "name,needle",
    [("bad.cfg", "utf-8"), ("nul\0.cfg", "null byte")],
    ids=["not utf-8", "nul in path"],
)
def test_unreadable_config_file_is_a_config_error(name, needle, tmp_path, capsys):
    config = str(tmp_path / name)
    (tmp_path / "bad.cfg").write_bytes(b"\xff\xfen_sites = 21\n")
    code = main(["evolve", "--config", config, "--out", str(tmp_path / "run")])
    assert code == 1
    err = _one_line_error(capsys)
    assert err.startswith(f"config error: cannot read config file {config!r}: ")
    assert needle in err
    assert not (tmp_path / "run").exists()


def test_nul_in_config_output_dir_is_a_config_error(tmp_path, capsys):
    # --out would override the key, so the NUL comes from the file alone.
    config = tmp_path / "nul.cfg"
    config.write_text(f"output_dir = {tmp_path / 'run'}\0x\n", encoding="utf-8")
    code = main(["evolve", *TINY, "--config", str(config)])
    assert code == 1
    assert _one_line_error(capsys) == (
        "config error: key 'output_dir': must not contain a NUL byte\n"
    )
    assert not (tmp_path / "run").exists()


def test_positional_and_out_follow_the_set_rules(tmp_path):
    # Both are overrides like --set ones, so surrounding whitespace goes.
    code = main([" evolve ", *TINY, "--out", f" {tmp_path / 'run'} "])
    assert code == 0
    assert (tmp_path / "run" / "distribution.csv").exists()


@pytest.mark.parametrize(
    "argv,needle",
    [
        # Past the snapshot budget before the first period.
        (["fig1", "--set", "n_sites=100000000000000000000000"], "exceeds the budget of 20000000"),
        # Finite phases above 2**53 keep no digit mod 2*pi.
        (["evolve", "--set", "beta=1e155"], "2*beta = 2e+155"),
        (["diffusion", "--set", "n_sites=65", "--set", "center=33", "--set", "b_q=1e300"],
         "(b_q/2)*32**2"),
        # An int past the float range is named by its digit count.
        (["evolve", "--set", f"n_sites={10**400}"],
         "n_sites=an integer of 401 digits exceeds the budget of 20000000 stored amplitudes\n"),
    ],
)
def test_unusable_geometry_is_a_config_error(argv, needle, tmp_path, capsys):
    code = main([*argv, "--out", str(tmp_path / "run")])
    assert code == 1
    err = _one_line_error(capsys)
    assert err.startswith("config error: chain geometry: ")
    assert needle in err
    assert not (tmp_path / "run").exists()


def test_vanishing_b_q_tracks_no_pulses(tmp_path, capsys):
    # 2*pi/b_q overflows at b_q = 5e-324: no packet travels.
    code = main(["fig1", *TINY, "--set", "b_q=5e-324", "--out", str(tmp_path / "run")])
    assert code == 0
    assert '"reports": []' in (tmp_path / "run" / "modes.json").read_text()
    code = main(["accel", "--set", "b_q=5e-324", "--out", str(tmp_path / "accel")])
    assert code == 1
    assert "recorded pulses in [2, 0] (chain geometry cap); got 0" in _one_line_error(capsys)


def test_validate_prints_each_check_with_its_margin(tmp_path, capsys):
    # One line per check, in report order: status, name, deviation,
    # tolerance and the margin deviation / tolerance.  validation.json
    # itself carries no margin.
    code = main(["validate", "--out", str(tmp_path / "run")])
    assert code == 0
    report = json.loads((tmp_path / "run" / "validation.json").read_text())
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("  ")]
    assert len(lines) == len(report["checks"]) == 9
    for line, check in zip(lines, report["checks"]):
        assert "margin" not in check
        match = re.fullmatch(
            r"  (pass|FAIL)  (\w+): deviation (\S+) \(tolerance (\S+)\)  margin (\S+)", line
        )
        assert match, line
        status, name, deviation, tolerance, margin = match.groups()
        assert (status == "pass") == check["passed"] and name == check["name"]
        assert float(deviation) == pytest.approx(check["deviation"], rel=1e-3, abs=1e-300)
        assert float(tolerance) == check["tolerance"]
        assert float(margin) == pytest.approx(check["deviation"] / check["tolerance"], rel=1e-2)


@pytest.mark.parametrize("raises", [False, True], ids=["over_tolerance", "raises"])
def test_failed_check_exits_3(raises, monkeypatch, tmp_path, capsys):
    # One check past its tolerance, or one that raises: either is one FAIL
    # line among eight passes and exit 3.  The exception is one warning
    # line on stderr, never a traceback.
    checks = list(validation._CHECKS)
    name, _, tolerance = checks[3]

    def broken():
        if raises:
            raise ValueError("state is not\nnormalized")
        return 2.0 * tolerance

    checks[3] = (name, broken, tolerance)
    monkeypatch.setattr(validation, "_CHECKS", tuple(checks))
    code = main(["validate", "--out", str(tmp_path / "run")])
    out, err = capsys.readouterr()
    assert code == 3
    statuses = [ln.split()[:2] for ln in out.splitlines() if ln.startswith("  ")]
    assert [s for s in statuses if s[0] != "pass"] == [["FAIL", f"{name}:"]]
    assert len(statuses) == 9
    assert "Traceback" not in out + err
    if raises:
        assert err == (f"warning: RuntimeWarning: check {name} raised ValueError: "
                       "state is not normalized\n")
    else:
        assert err == ""


def test_accel_pulse_check_stops_at_trackable_pulses(tmp_path, capsys):
    # 10**15 periods with one snapshot: refused from the 7 trackable pulses
    # at once, never by walking every period.
    big = 10**15
    code = main(["accel", "--set", f"n_periods={big}", "--set", f"record_every={big}",
                 "--out", str(tmp_path / "run")])
    assert code == 1
    err = _one_line_error(capsys)
    assert err.startswith("config error: accel needs at least 5 recorded pulses in [2, 7]")
    assert "got 0 from keys" in err


# Edge values for every key, plus one valid value where the edges alone
# would refuse everything.  No n_sites between 1e5 and the refusal bound
# (the arrays would take gigabytes) and no huge record_every (evolve would
# walk a huge n_periods).
EDGES = ("0", "1", "-1", "5e-324", "nan", "inf", "-inf", "text", "")
# 10**30 still fits a float, 10**400 does not.
HUGE_INTS = ("1" + "0" * 30, "1" + "0" * 400)
VALUES = {
    "experiment": (*EDGES, "validate"),
    "n_sites": (*EDGES, *HUGE_INTS, "21", "65"),
    "center": (*EDGES, *HUGE_INTS, "11"),
    "beta": (*EDGES, "1e300", "1e155", "10"),
    "b_q": (*EDGES, "1e300", "0.1"),
    "n_periods": (*EDGES, *HUGE_INTS, "1e300", "3"),
    "record_every": (*EDGES, "2"),
    "output_dir": (*EDGES, *HUGE_INTS),
    "format": (*EDGES, "json"),
    "no_such_key": EDGES,
}
OVERRIDE = st.sampled_from(tuple(VALUES)).flatmap(
    lambda key: st.sampled_from(VALUES[key]).map(lambda value: f"{key}={value}")
)


# validate ignores every chain key and takes about a second, so it is left out.
@settings(max_examples=100, deadline=None)
@given(
    experiment=st.sampled_from(
        ("evolve", "fig1", "diffusion", "localization", "entanglement", "accel", "protocol")
    ),
    overrides=st.lists(OVERRIDE, max_size=4),
)
@example("fig1", ["n_sites=100000000000000000000000"])
@example("evolve", ["beta=1e155"])
@example("diffusion", ["n_sites=65", "center=33", "b_q=1e300"])
@example("fig1", ["b_q=5e-324"])
@example("accel", ["b_q=5e-324"])
@example("protocol", ["n_periods=1" + "0" * 400])
def test_exit_code_contract(experiment, overrides):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [experiment, "--out", f"{tmp}/run"]
        for item in overrides:
            argv += ["--set", item]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
