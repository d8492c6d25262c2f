"""kickedchain benchmark: one workload, one seed, one measurement window.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` of the checkout
this file sits in.  A pass runs every experiment of the workload through
the public API (``parse_config`` -> ``apply_overrides`` ->
``run_experiment``) in this one process, each pass into a fresh temporary
directory that is removed afterwards.  BLAS is pinned to one thread and
``KICKEDCHAIN_THREADS`` is unset, so everything runs on one worker thread.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median wall time of fresh interpreters that import
  kickedchain, parse the workload's first config and call make_context.
- ``wall_s``: median of the warm passes; ``wall_s_tail``: the highest
  percentile with at least ten warm passes beyond it (the maximum when
  fewer than eleven passes fit in the window).
- ``site_periods_per_s``: sum of n_sites * n_periods evolved in a pass,
  divided by ``wall_s``.
- ``peak_rss_mb``: peak resident memory of this process, read before the
  output checks run.

Each set-up and pass time is scaled to the reference machine speed by the
calibration kernel timed around it (``calibrate.py``); the unscaled times
go to the result record.

``--trace 1`` makes a separate run that reports per-layer metrics from
spans recorded around the calls into each module (see ``tracing.py``),
plus the tracing overhead (median traced minus median untraced pass).
No end-to-end number comes from a traced run.

Every pass is checked outside the timed region: data files on disk match
the manifest digests, every pass reproduces the first pass byte for byte,
and the first pass meets the invariants and agrees with the stored
reference (``checks.py``).  A pass that raises or fails a check counts
in ``failed``; the error rate is failed / attempted.

The last line of stdout is the JSON result; the lines before it print each
metric with its unit, and the environment.  Spans and a result record
with the environment go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference"

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
MIN_WARM_PASSES = 3
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_s_tail": "s",
    "site_periods_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def pin_environment() -> None:
    """Fix thread counts before numpy loads; children inherit the settings."""
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in BLAS_VARS:
        os.environ[var] = threads
    os.environ.pop("KICKEDCHAIN_THREADS", None)
    os.environ["PYTHONPATH"] = str(SRC)


def import_program():
    if not (SRC / "kickedchain" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kickedchain sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kickedchain

    if not os.path.realpath(kickedchain.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"perfbench: imported kickedchain from {kickedchain.__file__}, not {SRC}")
    return kickedchain


def per_layer_unit(name: str) -> str:
    if name.endswith(".share") or name == "trace.overhead_share":
        return "fraction"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "chain.hop_bytes_computed":
        return "B/period"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# -- environment ---------------------------------------------------------------


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(f"{base}/{index}/level").strip()
        kind = _read(f"{base}/{index}/type").strip()
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = _read(f"{base}/{index}/size").strip()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas_name = "unknown"
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache": caches,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "KICKEDCHAIN_THREADS": os.environ.get("KICKEDCHAIN_THREADS", "unset"),
    }


# -- passes --------------------------------------------------------------------


class Passes:
    """Runs and checks passes of one workload at one operating point."""

    def __init__(self, kc, workload, point, tmp_root: str):
        import checks
        import workloads

        self.kc, self.workload, self.point = kc, workload, point
        self.checks = checks
        self.configs = [(run, workloads.config_text(run, point)) for run in workload.runs]
        self.tmp_root = tmp_root
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests: dict | None = None
        self.first_dir: str | None = None

    def _execute(self, out_dir: str) -> dict:
        kc = self.kc
        manifests = {}
        for run, text in self.configs:
            cfg = kc.parse_config(text)
            cfg = kc.apply_overrides(cfg, [*run.overrides, f"output_dir={os.path.join(out_dir, run.label)}"])
            manifests[run.label] = kc.run_experiment(cfg)
        return manifests

    def _digests(self, manifests: dict, out_dir: str) -> dict:
        digests = {}
        for label, manifest in manifests.items():
            for filename, digest in manifest.files.items():
                path = os.path.join(out_dir, label, filename)
                if self.checks.file_digest(path) != digest:
                    raise RuntimeError(f"{label}/{filename} on disk does not match its manifest digest")
                digests[f"{label}/{filename}"] = digest
        return digests

    def run(self, tracer=None, pass_id: int = 0) -> float | None:
        """One pass; returns its wall time, or None if it raised or failed a check."""
        self.attempted += 1
        out_dir = tempfile.mkdtemp(prefix="pass-", dir=self.tmp_root)
        keep = False
        try:
            # Collect the previous pass's garbage outside the timed region.
            gc.collect()
            if tracer is not None:
                tracer.begin_pass(pass_id)
            start = time.perf_counter()
            try:
                manifests = self._execute(out_dir)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.end_pass()
            digests = self._digests(manifests, out_dir)
            if self.first_digests is None:
                self.first_digests, self.first_dir, keep = digests, out_dir, True
            elif digests != self.first_digests:
                changed = sorted(k for k in digests if digests[k] != self.first_digests.get(k))
                raise RuntimeError(f"rerun is not byte-identical to the first pass: {changed}")
            return elapsed
        except Exception as exc:
            self.failed += 1
            self.problems.append(f"pass {self.attempted}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            if not keep:
                shutil.rmtree(out_dir, ignore_errors=True)

    def final_checks(self, final_norms: list[float]) -> None:
        """Invariants and reference agreement of the first pass; a failure
        fails every pass, since each one reproduced its bytes."""
        problems = self.checks.norm_problems(final_norms)
        if self.first_dir is not None:
            ref_path = REFERENCE / f"{self.workload.name}.json"
            reference = json.loads(ref_path.read_text())["points"].get(self.point.key)
            if reference is None:
                problems.append(f"{ref_path.name} has no entry for {self.point.key}")
            else:
                problems += [f"{name}: in the reference but not written"
                             for name in sorted(set(reference) - set(self.first_digests))]
            for name in sorted(self.first_digests):
                path = os.path.join(self.first_dir, name)
                problems += self.checks.invariant_problems(path)
                if reference is None:
                    continue
                if name not in reference:
                    problems.append(f"{name}: no stored reference")
                    continue
                dev, mismatches = self.checks.compare(self.checks.fingerprint(path), reference[name])
                problems += [f"{name}: {m}" for m in mismatches]
                if dev > self.checks.RTOL:
                    problems.append(f"{name}: max relative deviation {dev:.3e} from reference "
                                    f"exceeds {self.checks.RTOL:.0e}")
            shutil.rmtree(self.first_dir, ignore_errors=True)
        if problems:
            self.problems += problems
            self.failed = self.attempted


def measure_setup(config: str, count: int) -> tuple[list[float], list[dict]]:
    walls, stages = [], []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            input=config, capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        stages.append(json.loads(proc.stdout))
    return walls, stages


def timed_passes(passes: Passes, seconds: float, setup_config: str, setup_count: int) -> dict:
    """Warm passes until the next one would overrun ``seconds``.

    A calibration sample (``calibrate.py``) runs before the first pass and
    after every pass and every set-up probe; the window counts passes and
    their calibration.  Each pass and each probe is scaled by
    ``REFERENCE_S / mean of the two calibration samples around it``, so
    it reads as at the reference machine speed.  ``setup_count`` set-up
    probes run between passes, spread evenly over the window.  Returns
    the scaled and unscaled pass and set-up times and the calibration
    samples.
    """
    import calibrate

    calibrate.sample()  # warm-up, discarded
    out: dict[str, list[float]] = {"wall": [], "wall_raw": [], "setup": [], "setup_raw": [], "cal": []}

    def bracketed(work) -> tuple[float | None, float]:
        """Run ``work`` between this and the next calibration sample."""
        result = work()
        out["cal"].append(calibrate.sample())
        return result, calibrate.REFERENCE_S / statistics.fmean(out["cal"][-2:])

    def record(kind: str, value: float | None, scale: float) -> None:
        if value is not None:
            out[kind].append(value * scale)
            out[kind + "_raw"].append(value)

    def probe() -> float:
        return measure_setup(setup_config, 1)[0][0]

    out["cal"].append(calibrate.sample())
    measured = out["cal"][-1]
    attempts = 0
    while True:
        if len(out["setup_raw"]) < setup_count and measured >= len(out["setup_raw"]) * seconds / setup_count:
            record("setup", *bracketed(probe))
        start = time.perf_counter()
        t, scale = bracketed(passes.run)
        measured += time.perf_counter() - start
        attempts += 1
        record("wall", t, scale)
        done = out["wall_raw"]
        typical = statistics.median(done) + out["cal"][-1] if done else measured / attempts
        if attempts >= MIN_WARM_PASSES and measured + typical > seconds:
            break
    while len(out["setup_raw"]) < setup_count:
        record("setup", *bracketed(probe))
    return out


def tail(samples: list[float]) -> tuple[float, str]:
    ordered = sorted(samples)
    n = len(ordered)
    if n > TAIL_BEYOND:
        k = n - TAIL_BEYOND - 1
        return ordered[k], f"p{100.0 * (k + 1) / n:.0f} of {n} passes, {TAIL_BEYOND} beyond it"
    return ordered[-1], f"maximum of {n} passes (fewer than {TAIL_BEYOND + 1})"


# -- the two kinds of run ------------------------------------------------------


def untraced(passes: Passes, seconds: float, notes: dict) -> dict:
    import calibrate
    from tracing import Tracer

    probe = Tracer(only={"chain.evolve"})
    probe.install()
    try:
        passes.run(probe, 0)
    finally:
        probe.uninstall()
    timed = timed_passes(passes, seconds, passes.configs[0][1], SETUP_SAMPLES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes.final_checks(probe.final_norms)
    times, setup = timed["wall"], timed["setup"]
    if not times:
        return {}
    wall = statistics.median(times)
    tail_value, notes["wall_s_tail"] = tail(times)
    site_periods = probe.counts[0]["site_periods"]
    notes["setup_s"] = f"median of {len(setup)} fresh interpreters, speed-scaled"
    notes["wall_s"] = f"median of {len(times)} warm passes, speed-scaled"
    notes["site_periods_per_s"] = f"{site_periods} site-periods per pass"
    notes["speed"] = (f"each time x {calibrate.REFERENCE_S} s / mean of the calibration samples "
                      f"around it; {len(timed['cal'])} samples, median {statistics.median(timed['cal']):.4f} s")
    notes["samples"] = {"setup_s": timed["setup_raw"], "wall_s": timed["wall_raw"],
                        "calibration_s": timed["cal"]}
    notes["unscaled"] = {"setup_s": statistics.median(timed["setup_raw"]),
                         "wall_s": statistics.median(timed["wall_raw"]),
                         "wall_s_tail": tail(timed["wall_raw"])[0]}
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "wall_s_tail": tail_value,
        "site_periods_per_s": site_periods / wall,
        "peak_rss_mb": peak_rss_mb,
    }


def traced(passes: Passes, seconds: float, notes: dict, spans_path: Path) -> dict:
    from tracing import Tracer, median_metrics

    _, stages = measure_setup(passes.configs[0][1], IMPORT_SAMPLES)
    probe = Tracer(only={"chain.evolve"})
    probe.install()
    try:
        first = passes.run(probe, 0)
    finally:
        probe.uninstall()
    # Untraced and traced passes alternate, so drift in machine speed
    # does not show up as tracing overhead.
    tracer = Tracer()
    plain: list[float] = []
    with_spans: list[float] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        t = passes.run()
        if t is not None:
            plain.append(t)
        tracer.install()
        try:
            t = passes.run(tracer, passes.attempted + 1)
        finally:
            tracer.uninstall()
        if t is not None:
            with_spans.append(t)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= 2 and elapsed * (rounds + 1) / rounds > seconds:
            break
    passes.final_checks(probe.final_norms + tracer.final_norms)
    if not plain or not with_spans or first is None:
        return {}

    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    per_pass = tracer.pass_metrics()
    metrics = median_metrics(per_pass)
    del metrics["wall"]
    untraced_wall = statistics.median(plain)
    traced_wall = statistics.median(with_spans)
    metrics["setup.import_s"] = statistics.median(s["import_s"] for s in stages)
    metrics["setup.first_pass_extra_s"] = first - untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    notes["passes"] = f"{len(plain)} untraced, {len(with_spans)} traced; per-pass medians"
    notes["counts"] = {str(k): dict(v) for k, v in tracer.counts.items()}
    return metrics


# -- entry point ---------------------------------------------------------------


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    kc = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    point = workloads.draw_point(workload, args.seed)
    env = environment()

    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    notes: dict = {}
    with tempfile.TemporaryDirectory(prefix=f"{tag}-", dir=OUT) as tmp_root:
        passes = Passes(kc, workload, point, tmp_root)
        if args.trace:
            values = traced(passes, args.seconds, notes, OUT / f"spans-{tag}.jsonl")
        else:
            values = untraced(passes, args.seconds, notes)

    for problem in passes.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if not values:
        print("perfbench: no pass completed; no result", file=sys.stderr)
        return 1

    declared = declared_metrics(bool(args.trace))
    metrics = {}
    for entry in declared:
        unit = E2E_UNITS.get(entry["name"]) if not args.trace else per_layer_unit(entry["name"])
        if entry["name"] not in values or unit != entry["unit"]:
            print(f"perfbench: BENCHMARK.json declares {entry['name']} [{entry['unit']}], "
                  f"which this run does not produce as declared", file=sys.stderr)
            return 1
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": unit}

    print(f"workload {workload.name}, seed {args.seed}: beta={point.beta:g}, alpha={point.alpha:g}")
    for name, m in metrics.items():
        note = notes.get(name)
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    error_rate = passes.failed / passes.attempted
    print(f"  {'error_rate':40s} {error_rate:.6g} failed/attempted  "
          f"({passes.failed} of {passes.attempted} passes)")
    print("environment " + json.dumps(env, sort_keys=True))
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "operating_point": {"beta": point.beta, "alpha": point.alpha},
        "configs": {run.label: [text, list(run.overrides)] for run, text in passes.configs},
        "environment": env, "metrics": metrics, "error_rate": error_rate,
        "problems": passes.problems, "notes": notes,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
