import hashlib
import json
import math
import os

import numpy as np
import pytest

from kickedchain import (
    ChainParams,
    ConfigError,
    apply_overrides,
    derived_params,
    parse_config,
    rechester_d,
    run_experiment,
    trackable_pulses,
)
from kickedchain.experiments import _SiteGrid, _table

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

SMALL = [
    "n_sites = 201",
    "center = 101",
    "beta = 20",
    "b_q = 0.25",
    "n_periods = 4",
]


def cfg_for(tmp_path, experiment, *overrides):
    base = parse_config("")
    items = [f"experiment={experiment}", f"output_dir={tmp_path / experiment}"]
    return apply_overrides(base, items + list(overrides))


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = np.array(
            [[float(x) for x in line.split(",")] for line in fh if line.strip()]
        )
    return header, rows


class TestEvolve:
    def test_distribution_schema(self, tmp_path):
        cfg = cfg_for(tmp_path, "evolve", *SMALL)
        manifest = run_experiment(cfg)
        header, rows = read_csv(tmp_path / "evolve" / "distribution.csv")
        assert header == ["period", "site", "probability"]
        assert rows.shape == (5 * 201, 3)
        for period in range(5):
            block = rows[rows[:, 0] == period]
            assert block[:, 2].sum() == pytest.approx(1.0, abs=1e-9)
        assert set(manifest.files) == {"distribution.csv"}

    def test_json_format(self, tmp_path):
        cfg = cfg_for(tmp_path, "evolve", *SMALL, "format=json")
        run_experiment(cfg)
        payload = json.loads((tmp_path / "evolve" / "distribution.json").read_text())
        assert payload["columns"] == ["period", "site", "probability"]
        assert len(payload["rows"]) == 5 * 201


class TestManifest:
    def test_digests_match_file_bytes(self, tmp_path):
        cfg = cfg_for(tmp_path, "evolve", *SMALL)
        manifest = run_experiment(cfg)
        for name, digest in manifest.files.items():
            data = (tmp_path / "evolve" / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_derived_matches_recomputation(self, tmp_path):
        cfg = cfg_for(tmp_path, "evolve", *SMALL)
        run_experiment(cfg)
        manifest = json.loads((tmp_path / "evolve" / "manifest.json").read_text())
        echo = manifest["config"]
        chain = ChainParams(
            n_sites=echo["n_sites"],
            center=echo["center"],
            beta=echo["beta"],
            b_q=echo["b_q"],
        )
        d = derived_params(chain)
        assert manifest["derived"]["k_s"] == d.k_s
        assert manifest["derived"]["alpha"] == d.alpha
        assert manifest["derived"]["hop_distance"] == d.hop_distance

    def test_no_temp_files_left(self, tmp_path):
        cfg = cfg_for(tmp_path, "evolve", *SMALL)
        run_experiment(cfg)
        assert not [f for f in os.listdir(tmp_path / "evolve") if f.endswith(".tmp")]

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_a = cfg_for(tmp_path, "evolve", *SMALL, f"output_dir={tmp_path / 'a'}")
        cfg_b = cfg_for(tmp_path, "evolve", *SMALL, f"output_dir={tmp_path / 'b'}")
        m_a, m_b = run_experiment(cfg_a), run_experiment(cfg_b)
        assert m_a.files == m_b.files
        assert (tmp_path / "a" / "distribution.csv").read_bytes() == (
            tmp_path / "b" / "distribution.csv"
        ).read_bytes()

    def test_outputs_depend_on_parameters(self, tmp_path):
        cfg_a = cfg_for(tmp_path, "evolve", *SMALL, f"output_dir={tmp_path / 'a'}")
        cfg_b = cfg_for(
            tmp_path, "evolve", *SMALL, "beta=21", f"output_dir={tmp_path / 'b'}"
        )
        assert run_experiment(cfg_a).files != run_experiment(cfg_b).files


# Values where %.12g changes form: zero, the smallest subnormal, a deep
# subnormal, the switch to exponent notation below 1e-4, and round values.
SPECIAL_VALUES = (0.0, 5e-324, 1e-320, 1e-5, 0.1, 1.0)


def _grid_values(n_snapshots, n_sites, seed, specials):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(n_snapshots, n_sites)) + 1j * rng.normal(size=(n_snapshots, n_sites))
    values = np.abs(amps / np.linalg.norm(amps, axis=1, keepdims=True)) ** 2
    flat = values.reshape(-1)
    for index, value in specials:
        flat[index % flat.size] = value
    return values


@settings(max_examples=40, deadline=None)
@given(
    n_sites=st.sampled_from((2, 9, 10, 99, 100, 1401)),
    record_every=st.integers(2, 10**7),
    n_multiples=st.integers(0, 3),
    tail=st.integers(1, 10**7),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(SPECIAL_VALUES)), max_size=12
    ),
)
@example(99, 7, 2, 3, 0, list(enumerate(SPECIAL_VALUES)))
@example(1401, 9, 3, 8, 1, [(1400 + 1401 * i, v) for i, v in enumerate(SPECIAL_VALUES[:4])])
def test_site_grid_renders_the_row_bytes(n_sites, record_every, n_multiples, tail, seed, specials):
    # Periods as evolve records them with record_every > 1: period 0, the
    # multiples of record_every, then a final period off the multiples.
    periods = tuple(range(0, (n_multiples + 1) * record_every, record_every))
    periods += (periods[-1] + (tail % record_every or 1),)
    values = _grid_values(len(periods), n_sites, seed, specials)
    rows = [
        (period, site, float(values[i, site - 1]))
        for i, period in enumerate(periods)
        for site in range(1, n_sites + 1)
    ]
    header = ("period", "site", "probability")
    grid = _SiteGrid(periods, values)

    assert len(grid) == len(rows)
    expected = "\n".join([",".join(header), *("%d,%d,%.12g" % row for row in rows)]) + "\n"
    assert _table(header, grid, "csv") == expected
    assert [list(row) for row in grid] == [list(row) for row in rows]
    assert _table(header, grid, "json") == _table(header, rows, "json")


class TestDiffusion:
    def test_variance_columns(self, tmp_path):
        cfg = cfg_for(tmp_path, "diffusion", *SMALL, "n_periods=10")
        run_experiment(cfg)
        header, rows = read_csv(tmp_path / "diffusion" / "variance.csv")
        assert header == ["period", "variance", "classical_prediction"]
        assert rows.shape[0] == 11
        k_s = 20.0 * 0.25
        assert rows[-1, 2] == pytest.approx(rechester_d(k_s) * 10, rel=1e-9)
        assert rows[0, 1] == 0.0


class TestLocalization:
    def test_profile_and_fit(self, tmp_path):
        cfg = cfg_for(
            tmp_path,
            "localization",
            "n_sites=601",
            "center=301",
            "beta=12",
            "b_q=0.8333333333333333",
            "n_periods=600",
            "record_every=600",
        )
        run_experiment(cfg)
        header, rows = read_csv(tmp_path / "localization" / "profile.csv")
        assert header == ["site", "log_probability"]
        assert rows.shape == (601, 2)
        fit = json.loads((tmp_path / "localization" / "fit.json").read_text())
        assert fit["localized"] is True
        # beta^2/4 = 36 up to the usual factor-2 fit scatter
        assert 18 < fit["length"] < 90

    def test_unlocalized_profile_reported(self, tmp_path):
        cfg = cfg_for(tmp_path, "localization", *SMALL, "n_periods=1")
        run_experiment(cfg)
        fit = json.loads((tmp_path / "localization" / "fit.json").read_text())
        assert fit["localized"] is False
        assert "detail" in fit


class TestEntanglement:
    def test_measures_schema(self, tmp_path):
        cfg = cfg_for(tmp_path, "entanglement", *SMALL)
        run_experiment(cfg)
        header, rows = read_csv(tmp_path / "entanglement" / "measures.csv")
        assert header == ["period", "q_measure", "ipr", "max_concurrence"]
        assert rows.shape == (5, 4)
        assert rows[0, 1] == 0.0
        assert rows[0, 2] == 1.0
        assert np.all(rows[1:, 2] > 1.0)


class TestAccelAndFig1:
    def test_fig1_outputs(self, tmp_path):
        cfg = cfg_for(tmp_path, "fig1", "n_periods=3")
        run_experiment(cfg)
        reports = json.loads((tmp_path / "fig1" / "modes.json").read_text())["reports"]
        assert [r["pulse"] for r in reports] == [1, 2, 3]
        pulse3 = reports[-1]
        assert len(pulse3["modes"]) == 2
        total = sum(m["weight"] for m in pulse3["modes"])
        assert total + pulse3["remnant_weight"] == pytest.approx(1.0, abs=1e-9)

    def test_accel_decay_report(self, tmp_path):
        cfg = cfg_for(
            tmp_path,
            "accel",
            "n_sites=2701",
            "center=1351",
            "beta=66.66666666666667",
            "b_q=0.1",
            "n_periods=12",
        )
        run_experiment(cfg)
        decay = json.loads((tmp_path / "accel" / "decay.json").read_text())
        assert decay["pulse_range"][0] == 2
        assert decay["rate"] > 0.0

    def test_accel_needs_enough_pulses(self, tmp_path):
        cfg = cfg_for(tmp_path, "accel", *SMALL)
        with pytest.raises(ConfigError, match="n_periods"):
            run_experiment(cfg)


class TestProtocolExperiment:
    def test_report_payload(self, tmp_path):
        cfg = cfg_for(tmp_path, "protocol", "n_periods=4")
        run_experiment(cfg)
        report = json.loads((tmp_path / "protocol" / "report.json").read_text())
        assert report["n_pulses"] == 4
        assert 0.0 < report["success_probability"] < 1.0
        assert report["left_weight"] == pytest.approx(report["right_weight"], abs=1e-6)


class TestTrackablePulses:
    def test_fig1_geometry(self):
        p = ChainParams(n_sites=1401, center=701, beta=100.0, b_q=1.0 / 15.0)
        advance = 2.0 * math.pi / p.b_q
        margin = 0.25 * advance + 3.0 / math.sqrt(p.b_q)
        want = int((700 - margin) / advance)
        assert trackable_pulses(p) == want

    def test_kick_off_has_no_pulses(self):
        # At b_q = 5e-324 the advance 2*pi/b_q overflows: as good as off.
        for b_q in (0.0, 5e-324):
            p = ChainParams(n_sites=101, center=51, beta=10.0, b_q=b_q)
            assert trackable_pulses(p) == 0
