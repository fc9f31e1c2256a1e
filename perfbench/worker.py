"""The measured process: set-up, then one repetition of the timed phase.

    python3 perfbench/worker.py --workload W --dir WORK_DIR --t0 T0
                                [--spans FILE]

WORK_DIR holds the inputs `run.py` generated and a plan.json that lists
them; the worker runs from inside it, so every path the program sees is
relative and identical between processes.  T0 is the `time.monotonic()`
reading the parent took just before starting this process: set-up time
runs from it to the first timed item.

Each process runs the timed phase once, so nothing is cached from an
earlier repetition, and each gives one set-up sample and one timed
sample.  Peak RSS is read after the repetition.  The worker writes
result.json into WORK_DIR and, with --spans, the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SWEEP_ARGV = ["search", "galois", "--p", "7", "--degree", "3",
              "--out", "out.json"]
CLASSIFY_ARGV = ["classify", "--in", "in", "--aut", "--out", "out.json"]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _setup(workload: str, plan: dict) -> None:
    """Work a user pays once before the first item: field and bundle
    builds for the certify towers (imports happen for every workload)."""
    if workload != "certify":
        return
    from paleyschemes import fields, singer
    for p, e, l in {tuple(r["tower"]) for r in plan["records"]}:
        fields.get_field(p, e * l)
        singer.singer_bundle(p, e, l)


def _timed(workload: str, plan: dict) -> dict:
    """The timed phase; returns its outputs."""
    from paleyschemes import cli, schemes
    if workload == "sweep":
        return {"exit": cli.main(SWEEP_ARGV)}
    if workload == "classify":
        return {"exit": cli.main(CLASSIFY_ARGV)}
    verdicts = {}
    for entry in plan["records"]:
        data = json.loads(Path(entry["file"]).read_text())
        rec = schemes.SchemeRecord.from_json(data)
        out = schemes.certify(rec, tuple(entry["methods"]), strict=False)
        verdicts[entry["file"]] = sorted(out.verified_by)
    return {"verdicts": verdicts}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "certify", "classify"))
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()

    os.chdir(args.dir)
    result: dict = {}
    tracer = None
    try:
        sys.path.insert(0, str(SRC))
        from paleyschemes import cli, schemes  # noqa: F401  (import is set-up)
        if args.spans is not None:
            sys.path.insert(0, str(HERE))
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        plan = json.loads(Path("plan.json").read_text())
        _setup(args.workload, plan)
        result["setup_s"] = time.monotonic() - args.t0
        if tracer is not None:
            tracer.phase = "timed"
        start = time.perf_counter()
        outputs = _timed(args.workload, plan)
        result["wall_s"] = time.perf_counter() - start
        result["outputs"] = outputs
    except Exception:
        result["error"] = traceback.format_exc()
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        tracer.write(args.spans)
        result["unwrapped"] = tracer.unwrapped
    Path("result.json").write_text(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    raise SystemExit(main())
