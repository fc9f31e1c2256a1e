"""Recompute perfbench/expected.json, the outputs every run is checked against.

    python3 perfbench/freeze.py

Run from the repository root; it takes a few minutes on one core.  Only
rerun it when a change is meant to alter the outputs, and say so.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from paleyschemes import (build_DX, canonical_certificate, aut_order,  # noqa: E402
                          certify, make_configuration,
                          search_galois_invariant)
from workloads import (DESIGN_PRIMES, EXPECTED, classify_hits,  # noqa: E402
                       digest)


def _classified(rec) -> dict:
    C = make_configuration(rec)
    cert = hashlib.sha256(canonical_certificate(C)).hexdigest()
    return {"aut_order": aut_order(C), "class": cert[:16]}


def main() -> None:
    sweep = [list(X) for X in search_galois_invariant(7, 1, 3).found]
    hits = classify_hits()
    frozen = {
        "sweep": {"hits": len(sweep), "sha256": digest(sweep)},
        "classify": {
            "hits_sha256": digest([list(X) for X in hits]),
            "hits": [_classified(certify(build_DX(5, 1, 3, X,
                                                  provenance="search")))
                     for X in hits],
            "designs": {str(p): _classified(certify(
                build_DX(p, 1, 1, range(1), provenance="paley"), "all"))
                for p in DESIGN_PRIMES},
        },
    }
    EXPECTED.write_text(json.dumps(frozen, indent=1) + "\n")


if __name__ == "__main__":
    main()
