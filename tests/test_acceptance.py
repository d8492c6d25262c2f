"""Acceptance suite: ten numbered criteria, one verdict line each.

Each test prints a single summary line with the measured quantities and
enforces the frozen bounds.  Criterion 5's classical clause is known to
sit outside its stated tolerance (the converged standard-map slope at
K = 5 exceeds the corrected quasilinear value by ~11%, matching K^2/2
instead); it is asserted as written and fails honestly.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest
import scipy.linalg

from kickedchain import (
    ChainParams,
    SpinState,
    apply_overrides,
    bessel_interior_mask,
    central_measurement,
    classical_diffusion,
    derived_params,
    detect_accelerator_modes,
    evolve,
    fit_localization_length,
    hop_eigenphases,
    ipr,
    make_context,
    measurement_window,
    mode_decay,
    oracle_hamiltonian,
    parse_config,
    q_measure,
    qkr_kick_matrix,
    rechester_d,
    ring_kick_matrix,
    ring_propagator,
    run_experiment,
    run_protocol,
    site_state,
    spread_variance,
    uhc_matrix,
    validate_suite,
)
from kickedchain.chain import _cosine_modes

FIG1 = ChainParams(n_sites=1401, center=701, beta=100.0, b_q=1.0 / 15.0)


def report(index: int, detail: str) -> None:
    print(f"[criterion {index:2d}] {detail}")


def test_criterion_01_eigenbasis_matches_diagonalization():
    t0 = time.perf_counter()
    p = ChainParams(n_sites=64, center=32, beta=10.0, b_q=0.1)
    h = oracle_hamiltonian(p)
    g = _cosine_modes(p.n_sites)
    phases = hop_eigenphases(p.n_sites, p.beta)
    residual = float(np.max(np.abs(h @ g.T - g.T * phases[None, :])))
    eigvals = np.sort(np.linalg.eigvalsh(h))
    diff = eigvals - phases
    shifted = float(np.max(np.abs(diff - diff.mean())))
    dev = max(residual, shifted)
    elapsed = time.perf_counter() - t0
    report(1, f"PASS eigenbasis: max deviation {dev:.2e} < 1e-10 ({elapsed:.2f}s)")
    assert dev < 1e-10
    assert elapsed < 1.0


def test_criterion_02_propagator_matches_matrix_exponential():
    t0 = time.perf_counter()
    p = ChainParams(n_sites=64, center=32, beta=10.0, b_q=0.1)
    u = uhc_matrix(p, 1.0)
    e = scipy.linalg.expm(-1j * oracle_hamiltonian(p))
    k = int(np.argmax(np.abs(e)))
    phase = u.flat[k] / e.flat[k]
    phase /= abs(phase)
    dev = float(np.max(np.abs(u - phase * e)))
    elapsed = time.perf_counter() - t0
    report(2, f"PASS propagator: entrywise deviation {dev:.2e} < 1e-8 ({elapsed:.2f}s)")
    assert dev < 1e-8
    assert elapsed < 5.0


def test_criterion_03_kicked_rotor_correspondence():
    t0 = time.perf_counter()
    n, beta = 256, 20.0
    u_ring = ring_propagator(n, beta)
    exact = np.exp(-1j * beta) * ring_kick_matrix(n, beta)
    ring_dev = float(np.max(np.abs(u_ring - exact)))

    open_p = ChainParams(n_sites=n, center=n // 2, beta=beta, b_q=0.1)
    u_open = uhc_matrix(open_p, 1.0) * np.exp(1j * beta)
    approx = qkr_kick_matrix(n, beta)
    mask = bessel_interior_mask(n, beta)
    interior_dev = float(np.max(np.abs((u_open - approx)[mask])))
    elapsed = time.perf_counter() - t0
    report(
        3,
        f"PASS rotor map: ring {ring_dev:.2e} < 1e-10, "
        f"interior {interior_dev:.2e} < 1e-3 ({elapsed:.2f}s)",
    )
    assert ring_dev < 1e-10
    assert interior_dev < 1e-3
    assert elapsed < 10.0


def test_criterion_04_ballistic_packet_reproduction():
    t0 = time.perf_counter()
    traj = evolve(site_state(1401, 701), make_context(FIG1), 6)
    reports = {
        period: detect_accelerator_modes(state, period, FIG1)
        for period, state in traj
        if period >= 3
    }
    pulse3 = reports[3]
    weight3 = sum(m.weight for m in pulse3.modes)
    offsets3 = sorted(abs(m.position - 701) for m in pulse3.modes)

    mean_offsets = {
        period: float(np.mean([abs(m.position - 701) for m in rep.modes]))
        for period, rep in reports.items()
    }
    pulses = sorted(mean_offsets)
    advance = float(np.polyfit(pulses, [mean_offsets[j] for j in pulses], 1)[0])
    elapsed = time.perf_counter() - t0
    report(
        4,
        f"PASS packets: pulse-3 weight {weight3:.3f} > 0.25 at +-{offsets3[-1]:.1f}, "
        f"advance {advance:.2f} sites/period in [92, 96] ({elapsed:.2f}s)",
    )
    assert len(pulse3.modes) == 2
    assert weight3 > 0.25
    for offset in offsets3:
        assert 277.0 <= offset <= 287.0
    assert 92.0 <= advance <= 96.0
    assert elapsed < 30.0


def test_criterion_05_short_time_diffusion():
    t0 = time.perf_counter()
    p = ChainParams(n_sites=1401, center=701, beta=100.0, b_q=0.05)
    d_ref = rechester_d(5.0)

    traj = evolve(site_state(1401, 701), make_context(p), 10)
    t = np.array(traj.periods, dtype=np.float64)
    v = np.array([spread_variance(state, 701, p.b_q) for state in traj.states])
    quantum_slope = float(np.polyfit(t, v, 1)[0])

    classical_slope = classical_diffusion(5.0, ensemble=10_000, steps=50, seed=0)
    elapsed = time.perf_counter() - t0
    q_off = quantum_slope / d_ref - 1.0
    c_off = classical_slope / d_ref - 1.0
    report(
        5,
        f"quantum slope {quantum_slope:.3f} ({q_off:+.1%} of {d_ref:.3f}, bound 15%); "
        f"classical slope {classical_slope:.3f} ({c_off:+.1%}, bound 10%) ({elapsed:.2f}s)",
    )
    assert abs(q_off) < 0.15
    assert elapsed < 60.0
    # Known red: the converged ensemble slope at K=5 sits ~11% above the
    # corrected quasilinear value (it matches K^2/2 within ~1%), so the 10%
    # clause below fails for every seed and window tried.
    assert abs(c_off) < 0.10, (
        f"classical slope {classical_slope:.4f} is {c_off:+.2%} from "
        f"rechester_d(5) = {d_ref:.4f}; K^2/2 = 12.5 is off by "
        f"{classical_slope / 12.5 - 1.0:+.2%}"
    )


def test_criterion_06_dynamical_localization():
    t0 = time.perf_counter()
    p = ChainParams(n_sites=1401, center=701, beta=20.0, b_q=0.5)
    traj = evolve(site_state(1401, 701), make_context(p), 1200, record_every=1200)
    fit = fit_localization_length(traj.final, 701)
    elapsed = time.perf_counter() - t0
    report(
        6,
        f"PASS localization: fitted length {fit.length:.1f} in [50, 200], "
        f"prediction beta^2/4 = 100 ({elapsed:.2f}s)",
    )
    assert 50.0 <= fit.length <= 200.0
    assert elapsed < 60.0


def test_criterion_07_mode_decay_rate_and_oscillation():
    t0 = time.perf_counter()
    p10 = ChainParams(n_sites=2701, center=1351, beta=200.0 / 3.0, b_q=0.1)
    assert derived_params(p10).in_accelerator_window
    traj = evolve(site_state(2701, 1351), make_context(p10), 20)
    reports = [
        detect_accelerator_modes(state, period, p10)
        for period, state in traj
        if 2 <= period <= 20
    ]
    fit10 = mode_decay(reports)

    p15 = ChainParams(n_sites=2701, center=1351, beta=100.0, b_q=1.0 / 15.0)
    traj15 = evolve(site_state(2701, 1351), make_context(p15), 12)
    reports15 = [
        detect_accelerator_modes(state, period, p15)
        for period, state in traj15
        if 2 <= period <= 12
    ]
    fit15 = mode_decay(reports15)
    elapsed = time.perf_counter() - t0
    report(
        7,
        f"PASS decay: rate {fit10.rate:.4f} in [1/36, 1/16] at b_q=1/10; "
        f"oscillatory={fit15.oscillatory} at b_q=1/15 ({elapsed:.2f}s)",
    )
    assert 1.0 / 36.0 <= fit10.rate <= 1.0 / 16.0
    assert not fit10.oscillatory
    assert fit15.oscillatory
    assert elapsed < 120.0


def test_criterion_08_entanglement_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        amps = rng.normal(size=64) + 1j * rng.normal(size=64)
        state = SpinState(amps / np.linalg.norm(amps))
        q = q_measure(state)
        via = 4.0 / 64 * (1.0 - 1.0 / ipr(state))
        worst = max(worst, abs(q - via) / abs(q))

    checks = {c.name: c for c in validate_suite().checks}
    grid_dev = checks["concurrence_maximum_grid"].deviation
    elapsed = time.perf_counter() - t0
    report(
        8,
        f"PASS entanglement: Q-IPR identity {worst:.2e} < 1e-12 rel; "
        f"concurrence optimum grid deviation {grid_dev:.2e} < 1e-3 ({elapsed:.2f}s)",
    )
    assert worst < 1e-12
    assert 0.0 < grid_dev < 1e-3
    assert elapsed < 5.0


def test_criterion_09_heralded_packet_pair():
    t0 = time.perf_counter()
    result = run_protocol(FIG1, 4)

    traj = evolve(site_state(1401, 701), make_context(FIG1), 4)
    window = measurement_window(FIG1, traj.final, 4)
    absent = central_measurement(traj.final, window)
    lo, hi = window
    window_amp = float(np.max(np.abs(absent.post_state.amplitudes[lo - 1:hi])))
    lr_gap = abs(result.left_weight - result.right_weight)
    elapsed = time.perf_counter() - t0
    report(
        9,
        f"PASS protocol: success {result.success_probability:.3f} in [0.25, 0.35], "
        f"window amplitude {window_amp:.1e}, |L-R| {lr_gap:.1e} < 1e-6 ({elapsed:.2f}s)",
    )
    assert 0.25 <= result.success_probability <= 0.35
    assert window_amp == 0.0
    assert lr_gap < 1e-6
    # measured-and-pinned fidelity of the raw post-state to the ideal pair
    assert result.fidelity == pytest.approx(7.750517578976818e-06, abs=0.02)
    assert elapsed < 30.0


def test_criterion_10_byte_identical_reruns(tmp_path):
    t0 = time.perf_counter()
    recipes = {
        "evolve": ["n_sites=201", "center=101", "beta=20", "b_q=0.25", "n_periods=4"],
        "diffusion": ["n_sites=401", "center=201", "beta=100", "b_q=0.05", "n_periods=8"],
        "fig1": ["n_periods=3"],
        "protocol": ["n_periods=4"],
    }
    checked = 0
    for experiment, overrides in recipes.items():
        manifests = []
        for run in ("a", "b"):
            out = tmp_path / experiment / run
            cfg = apply_overrides(
                parse_config(""),
                [f"experiment={experiment}", f"output_dir={out}"] + overrides,
            )
            manifests.append(run_experiment(cfg))
        assert manifests[0].files == manifests[1].files
        for name in manifests[0].files:
            a = (tmp_path / experiment / "a" / name).read_bytes()
            b = (tmp_path / experiment / "b" / name).read_bytes()
            assert hashlib.sha256(a).hexdigest() == manifests[0].files[name]
            assert a == b
            checked += 1
    elapsed = time.perf_counter() - t0
    report(
        10,
        f"PASS determinism: {checked} files byte-identical across re-runs "
        f"of {len(recipes)} experiments ({elapsed:.2f}s)",
    )
    assert checked >= 5
