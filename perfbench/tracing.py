"""Span tracing around the calls into each kickedchain layer.

The tracer replaces, for the duration of a traced run, every public
function of each layer module (and every name another module imported
from it, e.g. ``kickedchain.experiments.evolve``) with a wrapper that
records a span ``(name, start, end, parent, pass_id)`` in memory.  A few
private helpers that carry a per-layer metric are wrapped too: row and
JSON rendering, the atomic write and sha256 in ``experiments``, the
``validation`` checks, and ``SpinState`` construction.  Nothing under
``src/`` is changed; ``uninstall`` restores every patched attribute.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import statistics
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("config", "chain", "state", "observables", "protocol", "qkr", "validation", "experiments")

# Array bytes one transform-engine period reads plus writes, per site, at
# complex128: DCT-II (16 in, 16 out), phase multiply (32 in, 16 out),
# DCT-III (16 in, 16 out) and the kick multiply (32 in, 16 out).
HOP_BYTES_PER_SITE = 160
AMPLITUDE_BYTES = 16

ROOT = "pass"

# metric name -> (span names, "self" or "total")
TIMED = {
    "config.parse_s": (("config.parse_config", "config.apply_overrides"), "total"),
    "chain.evolve_s": (("chain.evolve",), "self"),
    "chain.make_context_s": (("chain.make_context",), "total"),
    "state.spinstate_s": (("state.SpinState",), "total"),
    "observables.site_distribution_s": (("observables.site_distribution",), "total"),
    "observables.detect_modes_s": (("observables.detect_accelerator_modes",), "total"),
    "observables.measures_s": (
        ("observables.q_measure", "observables.ipr", "observables.max_concurrence",
         "observables.concurrence", "observables.spread_variance"),
        "total",
    ),
    "observables.fit_localization_s": (("observables.fit_localization_length",), "total"),
    "protocol.run_protocol_s": (("protocol.run_protocol",), "self"),
    "protocol.measurement_window_s": (("protocol.measurement_window",), "self"),
    "qkr.frs_quadrature_s": (("qkr.frs_quadrature",), "total"),
    "qkr.classical_diffusion_s": (("qkr.classical_diffusion",), "total"),
    "experiments.render_s": (("experiments._table", "experiments._json_text"), "total"),
    "experiments.write_s": (("experiments._atomic_write", "experiments.sha256"), "total"),
}

VALIDATION_CHECKS = (
    "eigenbasis_vs_diagonalization",
    "propagator_vs_matrix_exponential",
    "engine_equivalence",
    "quadrature_vs_propagator",
    "kick_matrix_interior",
    "ring_exactness",
    "rechester_vs_ensemble",
    "q_ipr_identity",
    "concurrence_maximum_grid",
)
for _check in VALIDATION_CHECKS:
    TIMED[f"validation.{_check}_s"] = ((f"validation.{_check}",), "total")

COUNTED = (
    "chain.periods",
    "state.snapshots",
    "experiments.rows",
    "experiments.render_bytes",
    "observables.detect_calls",
    "observables.mode_fits",
    "validation.checks_failed",
)

# Private helpers wrapped with a span (they carry a layer metric).
PRIVATE_SPANS = {
    "experiments": ("_table", "_json_text", "_atomic_write"),
}
# Private helpers whose calls are only counted, so their time stays in the
# caller's span.
PRIVATE_COUNTS = {
    "observables": {"_fit_gaussian_peak": "observables.mode_fits"},
}


def _evolve_args(args, kwargs):
    ctx = args[1] if len(args) > 1 else kwargs["ctx"]
    n_periods = args[2] if len(args) > 2 else kwargs["n_periods"]
    return ctx.params.n_sites, n_periods


class Tracer:
    """Records spans and counts for calls into the kickedchain layers.

    ``only`` restricts wrapping to the named spans; the benchmark uses
    ``only={"chain.evolve"}`` as a cheap probe that counts site-periods and
    collects final-state norms during the untimed first pass.
    """

    def __init__(self, only: set[str] | None = None):
        self.only = only
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.final_norms: list[float] = []
        self.pass_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _span(self, name: str, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.pass_id)
            if on_return is not None:
                on_return(self.counts[self.pass_id], args, kwargs, result)
            return result

        return traced

    def _counter(self, key: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[self.pass_id][key] += 1
            return fn(*args, **kwargs)

        return counted

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counts[pass_id]
        self.spans.append(None)
        self._stack.append(len(self.spans) - 1)
        self._pass_start = time.perf_counter()

    def end_pass(self) -> None:
        idx = self._stack.pop()
        self.spans[idx] = (ROOT, self._pass_start, time.perf_counter(), -1, self.pass_id)

    # -- per-function count hooks ---------------------------------------

    def _on_evolve(self, counts, args, kwargs, traj):
        n_sites, n_periods = _evolve_args(args, kwargs)
        counts["chain.periods"] += n_periods
        counts["site_periods"] += n_sites * n_periods
        counts["hop_bytes"] += HOP_BYTES_PER_SITE * n_sites * n_periods
        counts["state.snapshots"] += len(traj)
        counts["snapshot_bytes"] += AMPLITUDE_BYTES * n_sites * len(traj)
        self.final_norms.append(traj.final.norm_sq())

    @staticmethod
    def _on_table(counts, args, kwargs, text):
        counts["experiments.rows"] += len(args[1])
        counts["experiments.render_bytes"] += len(text)

    @staticmethod
    def _on_json_text(counts, args, kwargs, text):
        counts["experiments.render_bytes"] += len(text)

    @staticmethod
    def _on_detect(counts, args, kwargs, report):
        counts["observables.detect_calls"] += 1
        counts["modes_accepted"] += len(report.modes)

    @staticmethod
    def _on_validate(counts, args, kwargs, report):
        counts["validation.checks_failed"] += len(report.failures)

    # -- installing -------------------------------------------------------

    def _wanted(self, name: str) -> bool:
        return self.only is None or name in self.only

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        hooks = {
            "chain.evolve": self._on_evolve,
            "experiments._table": self._on_table,
            "experiments._json_text": self._on_json_text,
            "observables.detect_accelerator_modes": self._on_detect,
            "validation.validate_suite": self._on_validate,
        }
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"kickedchain.{layer}")
            private = PRIVATE_SPANS.get(layer, ())
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if (attr.startswith("_") and attr not in private) or not self._wanted(name):
                    continue
                replacements[id(obj)] = self._span(name, obj, hooks.get(name))
            for attr, key in PRIVATE_COUNTS.get(layer, {}).items():
                if self.only is None:
                    replacements[id(getattr(module, attr))] = self._counter(key, getattr(module, attr))

        # Rebind every module-level name that refers to a wrapped function,
        # so calls through imported names are traced too.
        for modname, module in list(sys.modules.items()):
            if modname != "kickedchain" and not modname.startswith("kickedchain."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements and inspect.isfunction(obj):
                    self._set(module, attr, replacements[id(obj)])

        if self.only is not None:
            return
        validation = sys.modules["kickedchain.validation"]
        self._set(validation, "_CHECKS", tuple(
            (name, self._span(f"validation.{name}", fn), tol)
            for name, fn, tol in validation._CHECKS
        ))
        experiments = sys.modules["kickedchain.experiments"]
        proxy = types.SimpleNamespace(sha256=self._span("experiments.sha256", hashlib.sha256))
        self._set(experiments, "hashlib", proxy)
        spin_state = sys.modules["kickedchain.state"].SpinState
        self._set(spin_state, "__post_init__", self._span("state.SpinState", spin_state.__post_init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def pass_metrics(self) -> dict[int, dict[str, float]]:
        """Per-layer metrics of every traced pass, keyed by pass id."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_pass: dict[int, dict] = defaultdict(lambda: {"self": Counter(), "total": Counter(),
                                                          "layer": Counter(), "wall": 0.0})
        for idx, (name, start, end, parent, pass_id) in enumerate(self.spans):
            acc = per_pass[pass_id]
            if name == ROOT:
                acc["wall"] = end - start
                continue
            own = end - start - child[idx]
            acc["self"][name] += own
            acc["total"][name] += end - start
            acc["layer"][name.split(".", 1)[0]] += own

        result = {}
        for pass_id, acc in per_pass.items():
            counts = self.counts[pass_id]
            wall = acc["wall"]
            m: dict[str, float] = {}
            for layer in LAYERS:
                m[f"{layer}.self_s"] = acc["layer"][layer]
                m[f"{layer}.share"] = acc["layer"][layer] / wall if wall > 0 else 0.0
            for metric, (names, kind) in TIMED.items():
                m[metric] = sum(acc[kind][n] for n in names)
            for key in COUNTED:
                m[key] = counts[key]
            periods = counts["chain.periods"]
            m["chain.period_us"] = 1e6 * m["chain.evolve_s"] / periods if periods else 0.0
            m["chain.hop_bytes_computed"] = counts["hop_bytes"] / periods if periods else 0.0
            m["state.snapshot_mb"] = counts["snapshot_bytes"] / 1e6
            fits = counts["observables.mode_fits"]
            m["observables.mode_accept_ratio"] = counts["modes_accepted"] / fits if fits else 0.0
            m["wall"] = wall
            result[pass_id] = m
        return result


def median_metrics(per_pass: dict[int, dict[str, float]]) -> dict[str, float]:
    keys = next(iter(per_pass.values())).keys()
    return {k: statistics.median(m[k] for m in per_pass.values()) for k in keys}
