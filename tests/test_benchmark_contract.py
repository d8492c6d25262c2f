"""The names the benchmark's tracer (``perfbench/tracing.py``) patches and
reads must keep existing: a tiny traced pass must count work in every
layer the workloads report, its row count must equal the data lines of
the tables it wrote, and ``uninstall`` must restore every name."""

import importlib.util
import sys
from pathlib import Path

import kickedchain
from kickedchain.state import SpinState

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces() -> dict:
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "kickedchain" or name.startswith("kickedchain.")
    }


def test_traced_pass_counts_every_layer_and_uninstall_restores(tmp_path):
    before = _namespaces()
    post_init = SpinState.__dict__["__post_init__"]
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert kickedchain.chain.evolve is not before["kickedchain.chain"]["evolve"]
        tracer.begin_pass(0)
        for experiment in ("fig1", "protocol", "localization"):
            cfg = kickedchain.apply_overrides(
                kickedchain.parse_config(""),
                [f"experiment={experiment}", "n_periods=2", f"output_dir={tmp_path / experiment}"],
            )
            kickedchain.run_experiment(cfg)
        tracer.end_pass()
    finally:
        tracer.uninstall()

    metrics = tracer.pass_metrics()[0]
    for key in ("chain.periods", "state.snapshots", "experiments.rows",
                "observables.detect_calls", "observables.mode_fits"):
        assert metrics[key] > 0, key
    # Every table row is rendered by _table and counted once: fig1's
    # distribution plus localization's profile (protocol writes only JSON).
    tables = (tmp_path / "fig1" / "distribution.csv", tmp_path / "localization" / "profile.csv")
    data_lines = sum(len(path.read_text().splitlines()) - 1 for path in tables)
    assert metrics["experiments.rows"] == data_lines

    after = _namespaces()
    for name, namespace in before.items():
        for attr, obj in namespace.items():
            assert after[name][attr] is obj, f"{name}.{attr} not restored"
    assert SpinState.__dict__["__post_init__"] is post_init
