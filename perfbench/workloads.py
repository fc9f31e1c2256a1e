"""Inputs made from the seed, and the checks against frozen outputs.

`make_inputs` writes one workload's inputs and a plan.json into a
directory; it runs in the benchmark's parent process, never in the
measured one.  `check` compares one worker's output with
expected.json and returns one reason per failed item.

sweep     `paley search galois --p 7 --degree 3`: the full census of the
          2^21 Galois-invariant candidates at 343 points.  No input, so
          the seed does not change it.
certify   two scheme files, one at 5^7 (multiplicative, quotient and dual
          routes) and one at 3^9 (all four routes).  The seed picks which
          tower holds the valid record (Paley X or squares of the Singer
          set, also seed-picked) and which holds a random X.
classify  `paley classify --aut` over eight 125-vertex SRGs from the 96
          Galois-invariant hits at 5^3 and the Paley designs on 43 and 59
          points.  Per isomorphism class of hits, one fixed hit with 0 in
          X and one seed-picked hit without; the refinement search costs
          about the same within the second group, so the seed moves the
          inputs but hardly the work.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

ALL_ROUTES = ("additive", "multiplicative", "quotient", "dual")
# the additive route at 5^7 expands a 78125-point product; it is left out
CERTIFY_TOWERS = {"5_7": ((5, 1, 7), ("multiplicative", "quotient", "dual")),
                  "3_9": ((3, 1, 9), ALL_ROUTES)}
CLASSIFY_TOWER = (5, 1, 3)
DESIGN_PRIMES = (43, 59)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def _write_record(path: Path, rec) -> None:
    path.write_text(json.dumps(rec.to_json(), indent=2) + "\n")


def _certify_inputs(seed: int, dest: Path) -> dict:
    from paleyschemes import build_DX, power_set
    from paleyschemes.singer import build_singer_bundle

    rng = random.Random(seed)
    invalid = rng.choice(sorted(CERTIFY_TOWERS))
    valid_kind = rng.choice(("paley", "squares"))
    records = []
    for name, ((p, e, l), methods) in sorted(CERTIFY_TOWERS.items()):
        v = ((p ** e) ** l - 1) // (p ** e - 1)
        if name == invalid:
            kind, X = "random", rng.sample(range(v), v // 2)
        elif valid_kind == "paley":
            kind, X = "paley", range(v)
        else:
            S = build_singer_bundle(p, e, l, verify=False).S
            kind, X = "squares", power_set(S, 2, v)
        rec = build_DX(p, e, l, X)
        file = f"{name}-{kind}.json"
        _write_record(dest / file, rec)
        records.append({"file": file, "tower": [p, e, l],
                        "methods": list(methods), "valid": kind != "random"})
    return {"items": len(records), "records": records}


def classify_hits() -> tuple:
    from paleyschemes import search_galois_invariant
    return search_galois_invariant(*CLASSIFY_TOWER).found


def _classify_inputs(seed: int, dest: Path, expected: dict) -> dict:
    from paleyschemes import build_DX, certify

    frozen = expected["classify"]
    hits = classify_hits()
    if digest([list(X) for X in hits]) != frozen["hits_sha256"]:
        raise RuntimeError("the 5^3 hit list differs from the frozen one")
    rng = random.Random(seed)
    classes = [h["class"] for h in frozen["hits"]]
    files = {}
    for cls in sorted(set(classes)):
        members = [i for i, c in enumerate(classes) if c == cls]
        with_zero = [i for i in members if 0 in hits[i]]
        without_zero = [i for i in members if 0 not in hits[i]]
        for i in (with_zero[0], rng.choice(without_zero)):
            rec = certify(build_DX(*CLASSIFY_TOWER, hits[i],
                                   provenance="search"))
            files[f"hit-{i:02d}.json"] = frozen["hits"][i]
            _write_record(dest / "in" / f"hit-{i:02d}.json", rec)
    for p in DESIGN_PRIMES:
        rec = certify(build_DX(p, 1, 1, range(1), provenance="paley"), "all")
        files[f"paley-{p}.json"] = frozen["designs"][str(p)]
        _write_record(dest / "in" / f"paley-{p}.json", rec)
    return {"items": len(files), "expect": files}


def make_inputs(workload: str, seed: int, dest: Path, expected: dict) -> dict:
    """Write the inputs and plan.json into dest; return the plan."""
    dest.mkdir(parents=True, exist_ok=True)
    if workload == "sweep":
        plan = {"items": 1}
    elif workload == "certify":
        plan = _certify_inputs(seed, dest)
    else:
        (dest / "in").mkdir(exist_ok=True)
        plan = _classify_inputs(seed, dest, expected)
    (dest / "plan.json").write_text(json.dumps(plan, indent=1))
    return plan


# -- checks ----------------------------------------------------------------------


def work_units(workload: str, plan: dict, work_dir: Path) -> int:
    """Units of items_per_s: candidates for sweep, otherwise items."""
    if workload == "sweep":
        return json.loads((work_dir / "out.json").read_text())["candidates"]
    return plan["items"]


def primary_output(workload: str, work_dir: Path, outputs: dict):
    """What tracing must not change."""
    if workload == "certify":
        return outputs["verdicts"]
    return (work_dir / "out.json").read_bytes()


def check(workload: str, plan: dict, work_dir: Path, outputs: dict,
          expected: dict) -> list[str]:
    """Failed items of one worker process, each as a one-line reason."""
    items = plan["items"]
    if workload == "certify":
        bad = []
        for entry in plan["records"]:
            want = sorted(entry["methods"]) if entry["valid"] else []
            got = outputs["verdicts"].get(entry["file"])
            if got != want:
                bad.append(f"{entry['file']}: routes passed {got}, "
                           f"expected {want}")
        return bad
    if outputs["exit"] != 0:
        return [f"exit code {outputs['exit']}"] * items
    final = work_dir / "out.json"
    if not final.exists():
        return ["no output file"] * items
    return _check_content(workload, plan, final, expected)


def _check_content(workload: str, plan: dict, path: Path,
                   expected: dict) -> list[str]:
    out = json.loads(path.read_text())
    if workload == "sweep":
        found = out["found"]
        want = expected["sweep"]
        if len(found) != want["hits"] or digest(found) != want["sha256"]:
            return [f"{len(found)} hits, expected {want['hits']} with the "
                    "frozen digest"]
        return []
    bad = []
    classes: dict[str, list[str]] = {}
    for entry in out["entries"]:
        want = plan["expect"].get(entry["file"])
        if want is None or entry.get("aut_order") != want["aut_order"]:
            bad.append(f"{entry['file']}: aut_order {entry.get('aut_order')}")
        else:
            classes.setdefault(want["class"], []).append(entry["file"])
    if len(out["entries"]) != plan["items"]:
        bad.append(f"{len(out['entries'])} entries for {plan['items']} files")
    want_partition = sorted(sorted(v) for v in classes.values())
    if not bad and sorted(out["classes"]) != want_partition:
        bad.append("class partition differs from the frozen one")
    return bad
