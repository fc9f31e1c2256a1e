"""Command-line front end for batch construction, verification, and search.

Five subcommands: `construct` builds a verified scheme file, `verify`
re-checks one through any of the four routes, `search` runs the sweep
engines, `classify` reduces a batch of scheme files to invariants and
isomorphism classes, and `export` converts to interchange formats.

Every file-producing run also writes `<output>.manifest.json` next to
its output with the command line, package version, input and output
digests, and wall time.  A run digest (hash of command, version, and
input digests) is embedded in every JSON output so results can be
traced back to the invocation that made them; raw graph6 lines have no
room for annotations, so for those the link lives only in the manifest.
Outputs are byte-identical across repeated runs; only the manifest's
wall time differs.

Exit codes: 0 success, 1 usage or input problems (including a route
whose precondition the object fails to meet), 2 verification failure
or internal disagreement, 3 exhausted work budget.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .classify import (DEFAULT_NODE_BUDGET, aut_order, canonical_certificate,
                       canonical_hash, fingerprint, make_configuration)
from .constructions import (adp_half_power_family, adp_power_family,
                            cyclotomic_scheme, gmw_lift_scheme,
                            langevin_scheme, scheme_from_adp, union_scheme)
from .errors import (BudgetExceededError, InternalInconsistencyError,
                     ParameterError, PreconditionError,
                     VerificationFailedError)
from .fields import get_field
from .graph6 import design_to_json, encode_graph6
from .schemes import (METHODS, SchemeRecord, certify, recover_X,
                      route_verdicts)
from .search import (DEFAULT_MAX_CLASSES, DEFAULT_MAX_ORBITS, search_all_X,
                     search_cyclotomic_unions, search_galois_invariant)


def _parse_residues(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")


def _digest_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_digest(argv: Sequence[str], inputs: Sequence[Path]) -> str:
    payload = {
        "command": list(argv),
        "version": __version__,
        "inputs": {str(p): _digest_file(p) for p in inputs},
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.lru_cache(maxsize=16)
def _scalar_list_encoder(inner: str) -> json.JSONEncoder:
    return json.JSONEncoder(separators=("," + inner, ": "))


def _json_text(data, pad: str = "\n") -> str:
    """The bytes of `json.dumps(data, indent=2)` for str-keyed data.

    The indent layout is written here and every scalar goes to the
    json encoder, a list of scalars in one call whose item separator
    carries the line break and indent, so the C encoder does the bulk of
    the work that indent would hand to the pure-Python one.
    """
    inner = pad + "  "
    if isinstance(data, dict) and data:
        for key in data:
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {key!r}")
        return "{" + inner + ("," + inner).join(
            json.dumps(key) + ": " + _json_text(value, inner)
            for key, value in data.items()) + pad + "}"
    if isinstance(data, (list, tuple)) and data:
        if _SCALARS.issuperset(map(type, data)):
            body = _scalar_list_encoder(inner).encode(data)[1:-1]
        else:
            body = ("," + inner).join(_json_text(x, inner) for x in data)
        return "[" + inner + body + pad + "]"
    return json.dumps(data)


def _write_json(path: Path, data: dict) -> None:
    path.write_text(_json_text(data) + "\n")


def _emit(args, text: str, run: str, fields: list[dict],
          inputs: Sequence[Path], t0: float) -> int:
    """Write a primary output to stdout, or to --out with its manifest."""
    if args.out is None:
        sys.stdout.write(text)
        return 0
    args.out.write_text(text)
    _write_manifest(args._argv, run, fields, inputs, [args.out], t0)
    return 0


def _write_manifest(argv: Sequence[str], run: str, fields: list[dict],
                    inputs: Sequence[Path], outputs: Sequence[Path],
                    t0: float) -> None:
    if not outputs:
        return
    manifest = {
        "command": list(argv),
        "version": __version__,
        "run": run,
        "fields": fields,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "digests": {p.name: _digest_file(p) for p in outputs},
        "wall_time_s": round(time.monotonic() - t0, 6),
    }
    primary = outputs[0]
    path = primary.with_name(primary.name + ".manifest.json")
    _write_json(path, manifest)


def _read_scheme(path: Path) -> dict:
    data = json.loads(path.read_text())
    if not (isinstance(data, dict) and "field" in data and "D" in data):
        raise ParameterError(
            f"{path} is not a scheme file (it has no 'field' and 'D')")
    return data


def _load_record(path: Path) -> SchemeRecord:
    return SchemeRecord.from_json(_read_scheme(path))


def _field_descriptor(rec: SchemeRecord) -> dict:
    return rec.to_json()["field"]


# -- construct -------------------------------------------------------------------


def _built_records(args) -> tuple[list[SchemeRecord], list[Path]]:
    kind = args.kind
    if kind == "paley":
        rec = SchemeRecord(field=get_field(args.p, args.m), e=1, l=args.m,
                           D=tuple(range(0, args.p ** args.m - 1, 2)),
                           provenance="paley", verified_by=frozenset())
        return [certify(rec, "all")], [args.out]
    if kind == "adp":
        if args.family == "power":
            adp = adp_power_family(args.p, args.e, args.l, args.r)
        else:
            adp = adp_half_power_family(args.l, args.r)
        return [scheme_from_adp(adp)], [args.out]
    if kind == "cyclotomic":
        rec = cyclotomic_scheme(args.p, args.e, args.l, args.n,
                                _parse_residues(args.X))
        return [rec], [args.out]
    if kind == "langevin":
        result = langevin_scheme(args.p, args.p_prime, args.m)
        if len(result.records) == 1:
            return list(result.records), [args.out]
        stem = args.out.with_suffix("")
        return list(result.records), [
            stem.with_name(f"{stem.name}-{label}.json")
            for label in result.labels]
    if kind == "gmw-lift":
        inv, sq = gmw_lift_scheme(args.p, args.e, args.t, args.s,
                                  _parse_residues(args.X))
        stem = args.out.with_suffix("")
        return [inv, sq], [stem.with_name(f"{stem.name}-inverse.json"),
                           stem.with_name(f"{stem.name}-square.json")]
    raise ParameterError(f"unknown construction kind {kind!r}")


def cmd_construct(args) -> int:
    t0 = time.monotonic()
    if args.kind == "union":
        inputs = [Path(p) for p in args.inputs]
        if len(inputs) != 2:
            raise ParameterError("union composes exactly two scheme files")
        ra, rb = (_load_record(p) for p in inputs)
        if ra.tower != rb.tower:
            raise ParameterError("the two schemes live in different towers")
        records = [union_scheme(ra.p, ra.e, ra.l, recover_X(ra),
                                recover_X(rb))]
        outputs = [args.out]
    else:
        inputs = []
        records, outputs = _built_records(args)
    run = _run_digest(args._argv, inputs)
    for rec, path in zip(records, outputs):
        data = rec.to_json()
        data["run"] = run
        _write_json(path, data)
    _write_manifest(args._argv, run, [_field_descriptor(r) for r in records],
                    inputs, outputs, t0)
    return 0


# -- verify ----------------------------------------------------------------------


def cmd_verify(args) -> int:
    data = _read_scheme(Path(args.scheme))
    data["verified_by"] = []  # every route runs below; skip the re-earning
    rec = SchemeRecord.from_json(data)
    methods = METHODS if args.method == "all" else (args.method,)
    passed = True
    for method, verdict in route_verdicts(rec, methods):
        if isinstance(verdict, PreconditionError):
            if args.method != "all":
                print(f"{method}: not applicable ({verdict})")
                return 1
            print(f"{method}: skipped ({verdict})")
        else:
            print(f"{method}: {str(verdict).lower()}")
            passed = passed and verdict
    return 0 if passed else 2


# -- search ----------------------------------------------------------------------


def cmd_search(args) -> int:
    t0 = time.monotonic()
    if args.engine == "galois":
        result = search_galois_invariant(
            args.p, args.e, args.degree, checkpoint_dir=args.checkpoint,
            max_orbits=args.max_orbits)
    elif args.engine == "all":
        result = search_all_X(args.p, args.e, args.degree,
                              max_orbits=args.max_orbits)
    else:
        result = search_cyclotomic_unions(
            args.p, args.m, args.classes, max_classes=args.max_classes)
    data = result.to_json()
    run = _run_digest(args._argv, [])
    data["run"] = run
    return _emit(args, _json_text(data) + "\n", run, [], [], t0)


# -- classify --------------------------------------------------------------------


def _is_scheme_file(path: Path) -> bool:
    try:
        _read_scheme(path)
    except (OSError, json.JSONDecodeError, ParameterError):
        return False
    return True


def _gather_inputs(paths: Sequence[str]) -> list[Path]:
    """Explicit files are taken as given; directories contribute only the
    JSON files that look like scheme records, so search results and
    manifests can live alongside them."""
    out = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(p for p in path.glob("*.json")
                              if _is_scheme_file(p)))
        else:
            out.append(path)
    return out


def cmd_classify(args) -> int:
    """Cheap invariants always; the exact certificate and automorphism
    order only with --aut, because those run the refinement search."""
    t0 = time.monotonic()
    inputs = _gather_inputs(args.inputs)
    if not inputs:
        raise ParameterError("no scheme files to classify")
    entries = []
    classes: dict[str, list[str]] = {}
    for path in inputs:
        rec = _load_record(path)
        cfg = make_configuration(rec)
        entry = {
            "file": path.name,
            "kind": cfg.kind,
            "params": list(cfg.params),
            "semilinear_hash": canonical_hash(rec),
            "fingerprint": fingerprint(cfg),
        }
        if args.aut:
            cert = hashlib.sha256(
                canonical_certificate(cfg, budget=args.budget)).hexdigest()
            entry["certificate_sha256"] = cert
            entry["aut_order"] = aut_order(cfg, budget=args.budget)
            classes.setdefault(cert, []).append(path.name)
        entries.append(entry)
    report = {"entries": entries}
    if args.aut:
        report["classes"] = [sorted(v) for _, v in sorted(classes.items())]
    run = _run_digest(args._argv, inputs)
    report["run"] = run
    return _emit(args, _json_text(report) + "\n", run, [], inputs, t0)


# -- export ----------------------------------------------------------------------


def cmd_export(args) -> int:
    t0 = time.monotonic()
    source = Path(args.graph6 if args.graph6 else args.design_json)
    rec = _load_record(source)
    cfg = make_configuration(rec)
    run = _run_digest(args._argv, [source])
    if args.graph6:
        if cfg.kind != "srg_graph":
            raise ParameterError(
                "graph6 export needs the graph case (field size 1 mod 4)")
        text = encode_graph6(cfg.matrix) + "\n"
    else:
        if cfg.kind != "hadamard_design":
            raise ParameterError(
                "design export needs the design case (field size 3 mod 4)")
        data = design_to_json(cfg.matrix.shape[0], cfg.matrix, cfg.params)
        data["run"] = run
        text = _json_text(data) + "\n"
    return _emit(args, text, run, [_field_descriptor(rec)], [source], t0)


# -- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paley",
        description="Construct, verify, search, and classify Paley type "
                    "group schemes.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a verified scheme file")
    cs = c.add_subparsers(dest="kind", required=True)

    def out_arg(sp):
        sp.add_argument("--out", type=Path, required=True,
                        help="output JSON path")

    sp = cs.add_parser("paley")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    out_arg(sp)

    sp = cs.add_parser("adp")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--e", type=int, default=1)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--family", choices=("power", "half-power"),
                    default="power")
    sp.add_argument("--r", type=int, required=True)
    out_arg(sp)

    sp = cs.add_parser("cyclotomic")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--e", type=int, default=1)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--X", type=str, required=True,
                    help="comma-separated residues mod n")
    out_arg(sp)

    sp = cs.add_parser("langevin")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--p-prime", dest="p_prime", type=int, required=True)
    sp.add_argument("--m", type=int, default=1)
    out_arg(sp)

    sp = cs.add_parser("gmw-lift")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--e", type=int, default=1)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--X", type=str, required=True,
                    help="comma-separated residues in the base layer")
    out_arg(sp)

    sp = cs.add_parser("union")
    sp.add_argument("--in", dest="inputs", action="append", required=True,
                    help="scheme file (give twice)")
    out_arg(sp)

    for kind_parser in cs.choices.values():
        kind_parser.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="re-check a scheme file")
    v.add_argument("scheme", type=str)
    v.add_argument("--method", choices=METHODS + ("all",), default="all")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("search", help="run a sweep")
    ss = s.add_subparsers(dest="engine", required=True)

    sp = ss.add_parser("galois")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--e", type=int, default=1)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--checkpoint", type=Path, default=None)
    sp.add_argument("--max-orbits", type=int, default=DEFAULT_MAX_ORBITS)
    sp.add_argument("--out", type=Path, default=None)

    sp = ss.add_parser("all")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--e", type=int, default=1)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--max-orbits", type=int, default=DEFAULT_MAX_ORBITS)
    sp.add_argument("--out", type=Path, default=None)

    sp = ss.add_parser("cyclotomic")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--classes", type=int, required=True)
    sp.add_argument("--max-classes", type=int, default=DEFAULT_MAX_CLASSES)
    sp.add_argument("--out", type=Path, default=None)

    for engine_parser in ss.choices.values():
        engine_parser.set_defaults(func=cmd_search)

    k = sub.add_parser("classify", help="invariants and isomorphism classes")
    k.add_argument("--in", dest="inputs", action="append", required=True,
                   help="scheme file or directory (repeatable)")
    k.add_argument("--aut", action="store_true",
                   help="also compute automorphism group orders")
    k.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help="node budget for the refinement search")
    k.add_argument("--out", type=Path, default=None)
    k.set_defaults(func=cmd_classify)

    x = sub.add_parser("export", help="convert to interchange formats")
    g = x.add_mutually_exclusive_group(required=True)
    g.add_argument("--graph6", type=str, default=None, metavar="SCHEME")
    g.add_argument("--design-json", dest="design_json", type=str,
                   default=None, metavar="SCHEME")
    x.add_argument("--out", type=Path, default=None)
    x.set_defaults(func=cmd_export)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    raw = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = parser.parse_args(raw)
    except SystemExit as err:
        code = err.code if isinstance(err.code, int) else 1
        return 0 if code == 0 else 1
    args._argv = raw
    try:
        return args.func(args)
    except BudgetExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (VerificationFailedError, InternalInconsistencyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ParameterError, PreconditionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError) as err:
        print(f"error: unreadable input ({err!r})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
