"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/steady.py [--workloads W ...] [--seeds 1 2 ...]
                                [--trace 0|1] [--write-baseline]

Runs ``run.py`` once per workload and seed, one run at a time, with the
``run_seconds`` of BENCHMARK.json, and prints for each workload every
metric with its unit: the median, the quartiles, and the spread (the
distance between the quartiles as a share of the median).  For the
end-to-end metrics it also prints the bound and flags a spread above a
third of it (``setup_s`` excepted).  With ``--write-baseline`` the
summary is merged into ``perfbench/baseline.json`` under ``end_to_end``
or ``per_layer``, with the environment of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment ")), {})
    record = json.loads((ROOT / ".perfbench" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return json.loads(lines[-1]), env, record.get("notes", {}).get("unscaled", {})


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    declared = spec["per_layer" if args.trace else "end_to_end"]
    section = "per_layer" if args.trace else "end_to_end"
    summary: dict = {}
    env: dict = {}
    steady = True
    for workload in args.workloads:
        results = []
        unscaled = []
        for seed in args.seeds:
            result, run_env, raw = run_once(workload, seed, spec["run_seconds"], args.trace)
            env = env or run_env
            results.append(result)
            unscaled.append(raw)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        metrics = {}
        print(f"\n{workload} ({len(results)} runs, seeds {args.seeds})")
        for entry in declared:
            name = entry["name"]
            stats = summarize([r["metrics"][name]["value"] for r in results])
            stats["unit"] = entry["unit"]
            metrics[name] = stats
            flag = ""
            if "bound" in entry:
                stats["bound"] = entry["bound"]
                if name != "setup_s" and stats["spread"] > entry["bound"] / 3:
                    flag = "  SPREAD ABOVE BOUND/3"
                    steady = False
                flag = f"  bound {entry['bound']}{flag}"
            print(f"  {name:46s} {stats['median']:.6g} {entry['unit']}  "
                  f"[q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, spread {stats['spread']:.3f}]{flag}")
        for name in sorted(unscaled[0]) if unscaled and unscaled[0] else ():
            stats = summarize([raw[name] for raw in unscaled])
            print(f"  {name + ' (not speed-scaled)':46s} {stats['median']:.6g}  "
                  f"[q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, spread {stats['spread']:.3f}]")
        print(f"  {'error_rate':46s} {failed / attempted:.6g} failed/attempted ({failed} of {attempted} passes)")
        summary[workload] = {"metrics": metrics, "attempted": attempted, "failed": failed,
                             "error_rate": failed / attempted, "seeds": args.seeds}

    if args.write_baseline:
        baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        baseline.setdefault("environment", env)
        baseline["run_seconds"] = spec["run_seconds"]
        baseline.setdefault(section, {}).update(summary)
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
