import hashlib
import json
import math
import os
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from kickedchain import (
    ChainParams,
    ConfigError,
    apply_overrides,
    derived_params,
    evolve,
    make_context,
    parse_config,
    rechester_d,
    run_experiment,
    site_state,
    trackable_pulses,
)
from kickedchain import experiments, observables
from kickedchain.experiments import WRITE_SLICE, _atomic_write, _grid, _json_text, _table

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


# Two write slices and a character: non-ASCII characters of two, three and
# four UTF-8 bytes on both sides of the slice boundaries.
SLICED_TEXT = "".join(
    ["a" * (WRITE_SLICE - 1), "\u00e9\u20ac", "b" * (WRITE_SLICE - 2), "\U0001f600", "c"]
)


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_distribution_is_streamed_from_the_snapshots(self, tmp_path, fmt):
        # The default chain, 200 periods, every one recorded: the trajectory
        # holds 201 snapshots of 1401 complex128 amplitudes, 4.5 MB, and its
        # CSV table is 7 MB of text, its JSON table 18 MB.  Streamed, the
        # peak above the snapshots is one snapshot's working set, the hop's
        # buffers and the manifest: its |a|² (11 KB), the site templates
        # (about 17 KB each in CSV, 59 KB in JSON), the snapshot's text
        # (about 36 KB in CSV, 88 KB in JSON) and one copy of it joined to
        # the text between rows, its tuple of floats (45 KB), and at most
        # one encoded slice (at most 256 KB).  That sums to well under 1 MB,
        # while a whole table's text or encoding alone is 7 MB.
        cfg = cfg_for(tmp_path, "evolve", "n_periods=200", "record_every=1", f"format={fmt}")
        trajectory_bytes = (cfg.n_periods + 1) * cfg.chain.n_sites * 16
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - trajectory_bytes <= 1 << 20, peak

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
        returned = run_experiment(cfg)
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
        # alpha = 0.80 here: no period-1 mode, so its geometry is null.
        assert d.alpha < 1.0
        for key in ("k_star", "monodromy_trace", "rotation"):
            assert manifest["derived"][key] is None
            # Only the file spells it null; the returned manifest holds NaN.
            assert math.isnan(returned.derived[key])

    def test_derived_reports_the_accelerator_mode(self, tmp_path):
        cfg = cfg_for(tmp_path, "evolve", "n_periods=0")
        run_experiment(cfg)
        derived = json.loads((tmp_path / "evolve" / "manifest.json").read_text())["derived"]
        d = derived_params(cfg.chain)
        assert (derived["k_star"], derived["monodromy_trace"], derived["rotation"]) == (
            d.k_star, d.monodromy_trace, d.rotation
        )

    def test_sliced_write_returns_the_digest_of_the_file(self, tmp_path):
        # Non-ASCII characters on both sides of each slice boundary.
        path = tmp_path / "out.txt"
        digest = _atomic_write(str(path), SLICED_TEXT)
        assert path.read_bytes() == SLICED_TEXT.encode("utf-8")
        assert digest == hashlib.sha256(SLICED_TEXT.encode("utf-8")).hexdigest()
        # The same text in chunks: cut on each side of the non-ASCII
        # characters, and one character in, so the second chunk's slice
        # boundary falls just past them.
        size = len(SLICED_TEXT)
        for cuts in ([WRITE_SLICE - 1], [WRITE_SLICE], [1], [2 * WRITE_SLICE - 1, 2 * WRITE_SLICE],
                     [0, 0, 1, WRITE_SLICE + 1, size, size]):
            bounds = [0, *cuts, size]
            chunks = (SLICED_TEXT[a:b] for a, b in zip(bounds, bounds[1:]))
            assert _atomic_write(str(path), chunks) == digest, cuts
            assert path.read_bytes() == SLICED_TEXT.encode("utf-8")
        assert _atomic_write(str(path), "") == hashlib.sha256(b"").hexdigest()
        assert path.read_bytes() == b""
        assert _atomic_write(str(path), iter(())) == hashlib.sha256(b"").hexdigest()

    @settings(max_examples=30, deadline=None)
    @given(cuts=st.lists(st.integers(0, len(SLICED_TEXT)), max_size=8))
    @example([WRITE_SLICE - 1, WRITE_SLICE, WRITE_SLICE + 1])
    @example([2 * WRITE_SLICE - 1, 2 * WRITE_SLICE])
    def test_chunked_write_is_the_whole_text(self, tmp_path_factory, cuts):
        # Wherever the text is cut into chunks, the file and its digest
        # are those of writing it whole.
        path = tmp_path_factory.mktemp("chunks") / "out.txt"
        bounds = [0, *sorted(cuts), len(SLICED_TEXT)]
        chunks = (SLICED_TEXT[a:b] for a, b in zip(bounds, bounds[1:]))
        digest = _atomic_write(str(path), chunks)
        assert path.read_bytes() == SLICED_TEXT.encode("utf-8")
        assert digest == hashlib.sha256(SLICED_TEXT.encode("utf-8")).hexdigest()

    def test_a_render_that_raises_leaves_no_temp_file_and_the_old_target(self, tmp_path):
        # Rendering runs inside the write, so a chunk iterator that raises
        # after part of the file is written must leave nothing behind.
        def chunks():
            yield SLICED_TEXT
            yield "partial row"
            raise RuntimeError("render failed")

        path = tmp_path / "out.txt"
        for old in (None, b"old bytes\n"):
            if old is not None:
                path.write_bytes(old)
            with pytest.raises(RuntimeError, match="render failed"):
                _atomic_write(str(path), chunks())
            assert os.listdir(tmp_path) == ([] if old is None else ["out.txt"])
            if old is not None:
                assert path.read_bytes() == old

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

    def test_an_interrupted_rerun_leaves_no_stale_manifest(self, tmp_path):
        # The rerun writes a new distribution.csv, then is interrupted while
        # writing modes.json: any manifest left must describe the files.
        run_experiment(cfg_for(tmp_path, "fig1", "n_periods=6"))
        write = experiments._atomic_write

        def interrupted(path, chunks):
            if path.endswith("modes.json"):
                raise KeyboardInterrupt
            return write(path, chunks)

        with mock.patch.object(experiments, "_atomic_write", interrupted), \
                pytest.raises(KeyboardInterrupt):
            run_experiment(cfg_for(tmp_path, "fig1", "n_periods=3"))
        run = tmp_path / "fig1"
        # The rerun's first write landed: the table ends at period 3.
        assert (run / "distribution.csv").read_text().splitlines()[-1].startswith("3,")
        if (run / "manifest.json").exists():
            files = json.loads((run / "manifest.json").read_text())["files"]
            for name, digest in files.items():
                assert hashlib.sha256((run / name).read_bytes()).hexdigest() == digest, name

    def test_outputs_depend_on_parameters(self, tmp_path):
        cfg_a = cfg_for(tmp_path, "evolve", *SMALL, f"output_dir={tmp_path / 'a'}")
        cfg_b = cfg_for(
            tmp_path, "evolve", *SMALL, "beta=21", f"output_dir={tmp_path / 'b'}"
        )
        assert run_experiment(cfg_a).files != run_experiment(cfg_b).files


# Values where %.12g changes form: zero, the smallest subnormal, a deep
# subnormal, the switch to exponent notation below 1e-4, and round values.
SPECIAL_VALUES = (0.0, 5e-324, 1e-320, 1e-5, 0.1, 1.0)


# How a row is shaped before rendering: as drawn, equal to its reverse bit
# for bit, mirrored but one site 1 ulp off, mirrored with one pair of
# sites 0.0 and -0.0, or mirrored with one pair of sites NaNs of two
# payloads.
ROW_KINDS = ("drawn", "mirror", "ulp", "signed_zero", "nan_payload")
NAN_PAYLOADS = np.array([0x7FF8000000000001, 0x7FF8000000000002], dtype=np.uint64).view(np.float64)


def _grid_values(n_snapshots, n_sites, seed, specials, kinds=("drawn",)):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(n_snapshots, n_sites)) + 1j * rng.normal(size=(n_snapshots, n_sites))
    values = np.abs(amps / np.linalg.norm(amps, axis=1, keepdims=True)) ** 2
    flat = values.reshape(-1)
    for index, value in specials:
        flat[index % flat.size] = value
    for i, row in enumerate(values):
        kind = kinds[i % len(kinds)]
        if kind == "drawn":
            continue
        # Mirror after placing the specials, so they are mirrored too.
        row[: n_sites // 2] = row[::-1][: n_sites // 2]
        site = int(rng.integers(n_sites // 2)) if n_sites > 1 else 0
        if kind == "ulp":
            row[site] = np.nextafter(row[site], np.inf)
        elif kind == "signed_zero":
            row[site], row[-1 - site] = 0.0, -0.0
        elif kind == "nan_payload":
            row[site], row[-1 - site] = NAN_PAYLOADS
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
    kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=5),
)
@example(99, 7, 2, 3, 0, list(enumerate(SPECIAL_VALUES)), ["drawn"])
@example(1401, 9, 3, 8, 1, [(1400 + 1401 * i, v) for i, v in enumerate(SPECIAL_VALUES[:4])], ["drawn"])
@example(9, 5, 1, 2, 2, list(enumerate(SPECIAL_VALUES)), ["mirror"])
@example(99, 3, 3, 1, 3, [(98 - i, v) for i, v in enumerate(SPECIAL_VALUES)], ["mirror", "ulp"])
@example(1401, 9, 3, 8, 4, [(700 + 1401 * i, v) for i, v in enumerate(SPECIAL_VALUES[:4])], ["mirror"])
@example(1401, 2, 1, 1, 5, [], ["signed_zero", "ulp"])
@example(100, 4, 2, 1, 6, list(enumerate(SPECIAL_VALUES)), ["mirror", "signed_zero"])
@example(10, 2, 0, 1, 7, [], ["mirror", "ulp"])
@example(1401, 3, 2, 1, 8, [], ["nan_payload", "mirror"])
def test_site_grid_renders_the_row_bytes(
    n_sites, record_every, n_multiples, tail, seed, specials, kinds
):
    # Periods as evolve records them with record_every > 1: period 0, the
    # multiples of record_every, then a final period off the multiples.
    periods = tuple(range(0, (n_multiples + 1) * record_every, record_every))
    periods += (periods[-1] + (tail % record_every or 1),)
    values = _grid_values(len(periods), n_sites, seed, specials, kinds)
    rows = [
        (period, site, float(values[i, site - 1]))
        for i, period in enumerate(periods)
        for site in range(1, n_sites + 1)
    ]
    header = ("period", "site", "probability")

    csv_chunks = list(_grid(header, n_sites, zip(periods, values), "csv"))
    # The header, one chunk per snapshot, then the text after the rows.
    assert len(csv_chunks) == len(periods) + 2
    expected = "\n".join([",".join(header), *("%d,%d,%.12g" % row for row in rows)]) + "\n"
    text = "".join(csv_chunks)
    assert text == expected
    if "signed_zero" in kinds[: len(periods)] and n_sites > 1:
        # The mirrored -0.0 keeps its sign, as row-by-row rendering does.
        assert ",-0\n" in text
    json_text = json.dumps({"columns": list(header), "rows": rows}, sort_keys=True, indent=2) + "\n"
    assert "".join(_grid(header, n_sites, zip(periods, values), "json")) == json_text
    assert _table(header, rows, "json") == json_text


# Floats where repr or %.12g changes form: signed zeros, the smallest
# subnormal, either side of repr's switches to exponent form at 1e-4 and
# 1e16, and the non-finite values json spells NaN, Infinity and -Infinity.
TABLE_VALUES = (
    0.0, -0.0, 5e-324, 1e-5, 1e-4, 0.1, 1e16, 9999999999999998.0, -1e300,
    math.nan, math.inf, -math.inf,
)
# The headers of the tables _table renders: diffusion's variance,
# entanglement's measures and localization's profile.
TABLE_HEADERS = (
    ("period", "variance", "classical_prediction"),
    ("period", "q_measure", "ipr", "max_concurrence"),
    ("site", "log_probability"),
)


@settings(max_examples=60, deadline=None)
@given(
    header=st.sampled_from(TABLE_HEADERS),
    values=st.lists(st.floats() | st.sampled_from(TABLE_VALUES), min_size=1, max_size=30),
)
@example(TABLE_HEADERS[0], list(TABLE_VALUES))
@example(TABLE_HEADERS[1], list(TABLE_VALUES))
@example(TABLE_HEADERS[2], list(TABLE_VALUES))
def test_table_renders_each_format_row_by_row(header, values):
    # One int column, then float columns; every value lands in every float
    # column once.
    n = len(header) - 1
    rows = [(i, *(values * n)[i * n:(i + 1) * n]) for i in range(len(values))]
    line = ",".join(["%d", *["%.12g"] * n])
    expected = "\n".join([",".join(header), *(line % row for row in rows)]) + "\n"
    assert _table(header, rows, "csv") == expected
    assert _table(header, rows, "json") == json.dumps(
        {"columns": list(header), "rows": rows}, sort_keys=True, indent=2) + "\n"


# Floats at the edges of repr's forms: signed zeros, the subnormal range's
# ends, the largest float and the ulp neighbours of 1, 1e-4 and 1e16.
EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, math.nextafter(2.2250738585072014e-308, 0.0),
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), math.nextafter(1e-4, 0.0),
    1e-4, math.nextafter(1e16, 0.0), 1e16, math.nextafter(1e16, 1e17),
)
JSON_PAYLOADS = st.recursive(
    st.floats() | st.sampled_from((math.nan, -math.nan, math.inf, -math.inf, *EDGE_FLOATS)),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=3), children, max_size=4)
    ),
    max_leaves=24,
)


def _refuse_constant(name):
    raise AssertionError(f"{name} in strict JSON")


def _nulled_like(got, payload):
    # Walk the parsed text next to the payload: each finite float comes back
    # bit for bit, each non-finite one as None.
    if isinstance(payload, float):
        if math.isfinite(payload):
            assert isinstance(got, float) and got.hex() == payload.hex()
        else:
            assert got is None
    elif isinstance(payload, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(payload)
        for key, item in payload.items():
            _nulled_like(got[key], item)
    else:
        assert isinstance(got, list) and len(got) == len(payload)
        for got_item, item in zip(got, payload):
            _nulled_like(got_item, item)


def _finite(payload):
    if isinstance(payload, float):
        return payload if math.isfinite(payload) else 0.5
    if isinstance(payload, dict):
        return {key: _finite(item) for key, item in payload.items()}
    return type(payload)(_finite(item) for item in payload)


@settings(max_examples=200, deadline=None)
@given(payload=JSON_PAYLOADS)
@example({"b": [math.nan, (math.inf, {"a": -math.inf})], "a": -0.0})
@example((5e-324, [[[-math.nan]]], {}))
def test_json_text_writes_every_non_finite_float_as_null(payload):
    text = _json_text(payload)
    _nulled_like(json.loads(text, parse_constant=_refuse_constant), payload)
    # With every value finite, the text is json.dumps's, byte for byte.
    finite = _finite(payload)
    assert _json_text(finite) == json.dumps(finite, sort_keys=True, indent=2) + "\n"


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

    def test_accel_stops_at_its_last_trackable_pulse(self, tmp_path):
        # Pulses past trackable_pulses (7 here) are never read, so 100000
        # periods evolve no further and need no snapshot budget for the rest.
        last = trackable_pulses(parse_config("").chain)
        outputs = []
        for n in (last, 100000):
            cfg = cfg_for(tmp_path / str(n), "accel", f"n_periods={n}")
            run_experiment(cfg)
            out = Path(cfg.output_dir)
            outputs.append([(out / name).read_bytes() for name in ("modes.json", "decay.json")])
        assert outputs[0] == outputs[1]

    def test_accel_needs_enough_pulses(self, tmp_path):
        cfg = cfg_for(tmp_path, "accel", *SMALL)
        with pytest.raises(ConfigError, match="n_periods"):
            run_experiment(cfg)


# The README's accel geometry: 21 trackable pulses.
README_ACCEL = ["n_sites=2701", "center=1351", "beta=66.66666666666667", "b_q=0.1"]
TINY_CTX = make_context(ChainParams(n_sites=3, center=2, beta=1.0, b_q=0.1))


@pytest.mark.parametrize("first", [1, 2, 3, 5])
@settings(max_examples=15, deadline=None)
@given(n_periods=st.integers(0, 45), every=st.integers(1, 12))
@example(n_periods=20, every=2)
@example(n_periods=40, every=4)
@example(n_periods=19, every=4)
def test_accel_reads_the_recorded_pulses_it_can_track(first, n_periods, every):
    # Whatever the decay fit's first pulse, accel's pre-check counts and
    # decay.json's pulse_range spans the periods evolve records in
    # [first, trackable_pulses]; the list is read off a 3-site evolve.
    cfg = apply_overrides(parse_config(""), [
        "experiment=accel", *README_ACCEL, f"n_periods={n_periods}", f"record_every={every}",
    ])
    last = trackable_pulses(cfg.chain)
    recorded = evolve(site_state(3, 2), TINY_CTX, n_periods, record_every=every).periods
    read = [j for j in recorded if first <= j <= last]
    with mock.patch.object(observables, "MODE_DECAY_FIRST_PULSE", first):
        if len(read) < observables.MODE_DECAY_MIN_PULSES:
            with pytest.raises(ConfigError, match=rf"in \[{first}, {last}\] .*; got {len(read)} "):
                experiments._run_accel(cfg)
            return
        decay = json.loads(experiments._run_accel(cfg)["decay.json"])
    assert decay["pulse_range"] == [read[0], read[-1]]


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


def test_readme_library_block_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 1)[0] for line in lines[:6]] == ["1", "2", "3", "4", "5", "6"]
    assert len(lines) == 7 and lines[-1].startswith("ProtocolReport(")
