"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the repository root.  It checks that BENCHMARK.json names
exactly the metrics run.py reports.  Then it makes one traced run of each
workload.  Each traced run checks that tracing leaves the outputs
unchanged and that every wrapped layer of its workload was called.  The
script exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import END_TO_END, WORKLOADS
    from spans import PER_LAYER

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = {
        "end_to_end": list(END_TO_END.items()),
        "per_layer": [(name, unit) for name, (unit, _) in PER_LAYER.items()],
    }
    ok = [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    if not ok:
        print("BENCHMARK.json workloads differ from run.py")
    for key, names in reported.items():
        if [(m["name"], m["unit"]) for m in bench[key]] != names:
            print(f"BENCHMARK.json {key} differs from run.py")
            ok = False

    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        problems = json.loads(lines[-2])["problems"]
        names = set(result["metrics"])
        if names != set(PER_LAYER):
            print(f"{workload}: metrics differ from PER_LAYER")
            ok = False
        status = "ok" if result["correct"] and not problems else "FAILED"
        ok = ok and status == "ok"
        print(f"{workload}: {status}, {result['attempted']} attempted, "
              f"{result['failed']} failed", *problems, sep="\n  ")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
