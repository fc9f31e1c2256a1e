"""In-memory spans around calls into the package's layers.

`Tracer.install` replaces each public function at every module or class
attribute the package calls it through with a wrapper that records a
span: name, start, end, parent span, phase ("setup" or "timed") and a few
attributes taken from the arguments or the result.  The package itself
is not edited; the wrappers live only in the traced process.  Spans stay
in memory and are written out once, as JSON lines, when the run ends.

`layer_metrics` turns a list of spans into the per-layer metrics of
BENCHMARK.json.  A span's self time is its duration minus the time its
child spans cover.  Routes, bundle builds, record loading and the
classify calls are reported inclusive of their children; the scan, the
two convolution kinds, the NTT and the CLI are reported as self time, so
each second lands in one of them only.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
import time
from collections import defaultdict


def _pow2_at_least(n: int) -> int:
    size = 1
    while size < n:
        size <<= 1
    return size


def _ntt_attrs(args, kwargs, result):
    a, b = args[0], args[1]
    return {"n": _pow2_at_least(len(a) + len(b) - 1)}


def _route_attrs(args, kwargs, result):
    return {"ok": bool(result)}


def _search_attrs(args, kwargs, result):
    return {"candidates": result.space.candidates, "hits": len(result.found)}


def _certificate_attrs(args, kwargs, result):
    return {"cert": hashlib.sha256(result).hexdigest()[:16]}


def _convolve_name(args):
    kind = args[0].group.kind
    return "groupring.cyclic" if kind == "cyclic" else "groupring.additive"


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.phase = "setup"
        self.spans: list[list] = []   # [name, start, end, parent, phase, attrs]
        self.unwrapped: list[str] = []  # targets the package no longer has
        self._local = threading.local()

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs=None):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), None, parent, self.phase, None]
        self.spans.append(span)
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
        if attrs is not None:
            span[5] = attrs(args, kwargs, result)
        return result

    def wrap(self, fn, name, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            return self.call(span_name, fn, args, kwargs, attrs)
        return traced

    def install(self) -> None:
        """Wrap every layer entry point at the names the package uses."""
        from paleyschemes import (cli, fields, groupring, ntt, schemes,
                                  search, singer)

        module_targets = (
            (cli, "main", "cli.main", None),
            (cli, "search_galois_invariant", "search.galois", _search_attrs),
            (search, "build_DX", "schemes.build_DX", None),
            (search, "verify_additive", "schemes.additive", _route_attrs),
            (schemes, "verify_additive", "schemes.additive", _route_attrs),
            (schemes, "verify_multiplicative", "schemes.multiplicative",
             _route_attrs),
            (schemes, "verify_quotient", "schemes.quotient", _route_attrs),
            (schemes, "verify_dual", "schemes.dual", _route_attrs),
            (schemes, "certify", "schemes.certify", None),
            (schemes, "build_singer_bundle", "singer.bundle", None),
            (singer, "build_singer_bundle", "singer.bundle", None),
            (ntt, "convolve_exact", "ntt", _ntt_attrs),
            (cli, "make_configuration", "classify.configuration", None),
            (cli, "fingerprint", "classify.fingerprint", None),
            (cli, "canonical_hash", "classify.semilinear", None),
            (cli, "canonical_certificate", "classify.certificate",
             _certificate_attrs),
            (cli, "aut_order", "classify.aut_order", None),
        )
        for module, attr, name, attrs in module_targets:
            if not hasattr(module, attr):
                self.unwrapped.append(f"{module.__name__}.{attr}")
                continue
            setattr(module, attr, self.wrap(getattr(module, attr), name, attrs))

        fields.FiniteField.__init__ = self.wrap(
            fields.FiniteField.__init__, "fields.build")
        groupring.GroupRingElement.convolve = self.wrap(
            groupring.GroupRingElement.convolve, _convolve_name)
        from_json = schemes.SchemeRecord.__dict__["from_json"].__func__
        schemes.SchemeRecord.from_json = classmethod(
            self.wrap(from_json, "schemes.from_json"))

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, phase, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "phase": phase,
                                     "attrs": attrs}) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# -- aggregation -----------------------------------------------------------------


class _Totals:
    def __init__(self, spans: list[dict]):
        child_time = [0.0] * len(spans)
        for s in spans:
            if s["parent"] >= 0:
                child_time[s["parent"]] += s["end"] - s["start"]
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_ = defaultdict(float)
        for s, covered in zip(spans, child_time):
            key = (s["phase"], s["name"])
            dur = s["end"] - s["start"]
            self.calls[key] += 1
            self.incl[key] += dur
            self.self_[key] += dur - covered


# For each workload, the (phase, span) pairs its layer metrics come from.
# Its traced run must call each at least once (the self-check), so a
# refactor that routes around a wrapped name fails loudly instead of
# reading 0.
HOME = {
    "sweep": (("timed", "search.galois"), ("timed", "schemes.build_DX"),
              ("timed", "schemes.additive"), ("timed", "groupring.additive"),
              ("timed", "fields.build"), ("timed", "singer.bundle")),
    "certify": (("timed", "ntt"), ("timed", "groupring.cyclic"),
                ("timed", "groupring.additive"), ("timed", "fields.build"),
                ("timed", "schemes.from_json"), ("timed", "schemes.certify"),
                ("timed", "schemes.additive"),
                ("timed", "schemes.multiplicative"),
                ("timed", "schemes.quotient"), ("timed", "schemes.dual"),
                ("setup", "fields.build"), ("setup", "singer.bundle"),
                ("setup", "ntt")),
    "classify": (("timed", "classify.configuration"),
                 ("timed", "classify.fingerprint"),
                 ("timed", "classify.semilinear"),
                 ("timed", "classify.certificate"),
                 ("timed", "classify.aut_order"),
                 ("timed", "schemes.from_json")),
}

ROUTES = ("additive", "multiplicative", "quotient", "dual")

# Every per-layer metric a traced run reports: name -> (unit, better).
PER_LAYER = {
    "search.scan_s": ("s", "lower"),
    "search.scan_rate": ("1/s", "higher"),
    "search.candidates": ("count", "lower"),
    "search.hits": ("count", "higher"),
    "search.hit_ratio": ("ratio", "higher"),
    "search.reverify_s": ("s", "lower"),
    "groupring.additive_s": ("s", "lower"),
    "groupring.additive_calls": ("count", "lower"),
    "groupring.cyclic_s": ("s", "lower"),
    "groupring.cyclic_calls": ("count", "lower"),
    "ntt.s": ("s", "lower"),
    "ntt.calls": ("count", "lower"),
    "ntt.len_max": ("count", "lower"),
    "fields.build_s": ("s", "lower"),
    "fields.builds": ("count", "lower"),
    "singer.bundle_s": ("s", "lower"),
    "singer.bundles": ("count", "lower"),
    "setup.fields.build_s": ("s", "lower"),
    "setup.singer.bundle_s": ("s", "lower"),
    "setup.ntt.s": ("s", "lower"),
    "schemes.from_json_s": ("s", "lower"),
    "schemes.additive_s": ("s", "lower"),
    "schemes.multiplicative_s": ("s", "lower"),
    "schemes.quotient_s": ("s", "lower"),
    "schemes.dual_s": ("s", "lower"),
    "schemes.routes_run": ("count", "lower"),
    "schemes.routes_passed": ("count", "higher"),
    "classify.certificate_s": ("s", "lower"),
    "classify.configurations": ("count", "lower"),
    "classify.classes": ("count", "higher"),
    "classify.fingerprint_s": ("s", "lower"),
    "classify.semilinear_s": ("s", "lower"),
    "classify.configuration_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.setup_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "host.ref_ms": ("ms", "lower"),
}


def missing_calls(spans: list[dict], workload: str) -> list[str]:
    """Names from HOME[workload] that the traced run never called."""
    seen = {(s["phase"], s["name"]) for s in spans}
    return [f"{phase}:{name}" for phase, name in HOME[workload]
            if (phase, name) not in seen]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run, timed phase unless `setup.`."""
    t = _Totals(spans)

    def incl(name, phase="timed"):
        return t.incl[(phase, name)]

    def self_(name, phase="timed"):
        return t.self_[(phase, name)]

    def calls(name, phase="timed"):
        return t.calls[(phase, name)]

    timed = [s for s in spans if s["phase"] == "timed"]
    search = [s for s in timed if s["name"] == "search.galois"]
    candidates = sum(s["attrs"]["candidates"] for s in search)
    hits = sum(s["attrs"]["hits"] for s in search)
    search_ids = {i for i, s in enumerate(spans) if s["name"] == "search.galois"}
    reverify = sum(s["end"] - s["start"] for s in timed
                   if s["parent"] in search_ids
                   and s["name"] in ("schemes.build_DX", "schemes.additive"))
    scan_s = self_("search.galois")
    ntt_sizes = [s["attrs"]["n"] for s in timed if s["name"] == "ntt"]
    route_names = {f"schemes.{route}" for route in ROUTES}
    routes = [s for s in timed if s["name"] in route_names]
    certs = {s["attrs"]["cert"] for s in timed
             if s["name"] == "classify.certificate"}

    out = {
        "search.scan_s": scan_s,
        "search.scan_rate": candidates / scan_s if scan_s else 0.0,
        "search.candidates": candidates,
        "search.hits": hits,
        "search.hit_ratio": hits / candidates if candidates else 0.0,
        "search.reverify_s": reverify,
        "groupring.additive_s": self_("groupring.additive"),
        "groupring.additive_calls": calls("groupring.additive"),
        "groupring.cyclic_s": self_("groupring.cyclic"),
        "groupring.cyclic_calls": calls("groupring.cyclic"),
        "ntt.s": self_("ntt"),
        "ntt.calls": calls("ntt"),
        "ntt.len_max": max(ntt_sizes, default=0),
        "fields.build_s": incl("fields.build"),
        "fields.builds": calls("fields.build"),
        "singer.bundle_s": incl("singer.bundle"),
        "singer.bundles": calls("singer.bundle"),
        "setup.fields.build_s": incl("fields.build", "setup"),
        "setup.singer.bundle_s": incl("singer.bundle", "setup"),
        "setup.ntt.s": self_("ntt", "setup"),
        "schemes.from_json_s": incl("schemes.from_json"),
    }
    for route in ROUTES:
        out[f"schemes.{route}_s"] = incl(f"schemes.{route}")
    out.update({
        "schemes.routes_run": len(routes),
        "schemes.routes_passed": sum(1 for s in routes if s["attrs"]["ok"]),
        "classify.certificate_s": (incl("classify.certificate")
                                   + incl("classify.aut_order")),
        "classify.configurations": calls("classify.configuration"),
        "classify.classes": len(certs),
        "classify.fingerprint_s": incl("classify.fingerprint"),
        "classify.semilinear_s": incl("classify.semilinear"),
        "classify.configuration_s": incl("classify.configuration"),
        "cli.self_s": self_("cli.main"),
    })
    return out
