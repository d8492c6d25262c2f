"""Write the stored reference the benchmark's output check compares against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs one pass of each workload at every operating point of its grid and
stores the fingerprint of every data file (see ``checks.py``) in
``perfbench/reference/<workload>.json``.  A reference records what the
program computed at the commit it was made from; regenerate it only when
an output is meant to change, and say why in the change that does so.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run


def main(names: list[str]) -> int:
    run.pin_environment()
    kc = run.import_program()
    import checks
    import workloads

    run.OUT.mkdir(exist_ok=True)
    run.REFERENCE.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        points = {}
        for beta, alpha in workload.points():
            point = workloads.OperatingPoint(beta=beta, alpha=alpha)
            with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
                passes = run.Passes(kc, workload, point, tmp)
                if passes.run() is None:
                    print("\n".join(passes.problems), file=sys.stderr)
                    return 1
                entry = {}
                for file in sorted(passes.first_digests):
                    path = os.path.join(passes.first_dir, file)
                    problems = checks.invariant_problems(path)
                    if problems:
                        print("\n".join(problems), file=sys.stderr)
                        return 1
                    entry[file] = checks.fingerprint(path)
            points[point.key] = entry
            print(f"{name} {point.key}: {len(entry)} files", flush=True)
        payload = {"workload": name, "commit": run.environment()["git_commit"], "points": points}
        out = run.REFERENCE / f"{name}.json"
        out.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
