"""Half-point subsets of F_{q^l} and the machinery that certifies them.

A candidate set D lives in the unit group and is stored as a sorted list of
discrete-log exponents.  The defining identity

    (1 + 2 D^(-1)) (1 + 2 D)  =  |G| + (|G| - 1) G      in Z[(F_{q^l}, +)]

is checked in the additive group ring itself (`additive`), by one exact
character transform of (F, +) modulo a prime, or through three routes
that exploit the trace structure of the field: divisibility of D^(-1) * R
by q^((l-1)/2) in the unit group (`multiplicative`), the same divisibility
for X^(-1) * W down in Z_v (`quotient`), and integrality of the dual
construction (`dual`).  All three read their verdicts in Z_v, off one
product X^(-1) * W, of which D^(-1) * R is a fold; so the routes make
two independent computations: the additive identity, and X^(-1) * W.

`certify` is where routes run: every applicable route it is asked for
runs, their verdicts must agree, and those that pass are stamped on the
record.  Stamps read from a file are claims, not facts; `from_json`
re-earns each claimed route and refuses the file unless all of them hold.
"""

from __future__ import annotations

import warnings
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import (InternalInconsistencyError, ParameterError,
                     PreconditionError, VerificationFailedError)
from .fields import FiniteField, get_field
from .groupring import CyclicGroup, FieldAdditiveGroup, GroupRingElement
from .singer import (SingerBundle, build_singer_bundle, check_transform_cap,
                     singer_bundle)

PROVENANCES = ("paley", "adp", "cyclotomic", "langevin", "gmw_lift",
               "union", "search", "manual")
METHODS = ("additive", "multiplicative", "quotient", "dual")
_TRACE_ROUTES = METHODS[1:]  # the routes that read the Singer bundle


@dataclass(frozen=True)
class SchemeRecord:
    """A subset of the unit group of F_{p^{e l}} plus its certification state."""

    field: FiniteField
    e: int
    l: int
    D: tuple[int, ...]
    provenance: str
    verified_by: frozenset[str]

    def __post_init__(self):
        if self.e < 1 or self.l < 1:
            raise ParameterError(
                f"tower needs e, l >= 1, not e = {self.e}, l = {self.l}")
        if self.field.m != self.e * self.l:
            raise ParameterError("field degree does not factor as e * l")
        if self.provenance not in PROVENANCES:
            raise ParameterError(f"unknown provenance {self.provenance!r}")
        bad = self.verified_by - set(METHODS)
        if bad:
            raise ParameterError(f"unknown verification tokens {sorted(bad)}")
        try:
            D = np.asarray(self.D, dtype=np.int64)
        except OverflowError:
            raise ParameterError("exponent out of range") from None
        increasing = bool(np.all(D[1:] > D[:-1]))
        if len(D):
            # a strictly increasing D is in range iff its ends are
            lo, hi = (D[0], D[-1]) if increasing else (D.min(), D.max())
            if lo < 0 or hi >= self.n1:
                raise ParameterError("exponent out of range")
        if not increasing:
            raise ParameterError("D must be sorted and duplicate-free")
        # D as an array, converted once per record; not a field, so eq,
        # hash, repr and JSON read the tuple alone
        D.setflags(write=False)
        object.__setattr__(self, "_D", D)

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def q(self) -> int:
        return self.p ** self.e

    @property
    def v(self) -> int:
        return (self.q ** self.l - 1) // (self.q - 1)

    @property
    def n1(self) -> int:
        return self.q ** self.l - 1

    @property
    def tower(self) -> tuple[int, int, int]:
        return (self.p, self.e, self.l)

    @property
    def X(self) -> Optional[tuple[int, ...]]:
        """The residues in Z_v that give D by the parity rule: read off D
        for odd l and a half-point D, and None otherwise."""
        try:
            return recover_X(self)
        except PreconditionError:
            return None

    def to_json(self) -> dict:
        out = {
            "field": {"p": self.p, "e": self.e, "l": self.l,
                      "modulus": list(self.field.modulus)},
            "D": list(self.D),
            "provenance": self.provenance,
            "verified_by": sorted(self.verified_by),
        }
        if self.X is not None:
            out["X"] = list(self.X)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "SchemeRecord":
        """Load a record, re-earning every route its file claims, then
        checking that a stored X is the one D gives."""
        fd = data["field"]
        entries = [fd["p"], fd["e"], fd["l"], *data["D"], *data.get("X", ())]
        if not set(map(type, entries)) <= {int}:
            raise ParameterError("field, D and X entries must be integers")
        if not all(type(c) is int and 0 <= c < fd["p"]
                   for c in fd["modulus"]):
            raise ParameterError(
                f"modulus entries must be integers in 0..{fd['p'] - 1}")
        if set(_TRACE_ROUTES).intersection(data["verified_by"]):
            # a trace route needs the bundle: refuse before the field
            check_transform_cap(fd["p"], fd["e"], fd["l"])
        field = FiniteField(fd["p"], fd["e"] * fd["l"],
                            modulus=tuple(fd["modulus"]))
        rec = cls(field=field, e=fd["e"], l=fd["l"], D=tuple(data["D"]),
                  provenance=data["provenance"],
                  verified_by=frozenset(data["verified_by"]))
        if rec.verified_by:
            claimed = [m for m in METHODS if m in rec.verified_by]
            earned = certify(replace(rec, verified_by=frozenset()), claimed,
                             strict=False).verified_by
            if earned != rec.verified_by:
                raise VerificationFailedError(
                    f"record claims {claimed} but only "
                    f"{sorted(earned)} verify")
        if "X" in data and tuple(data["X"]) != rec.X:
            raise ParameterError("stored X does not give D by the parity rule")
        return rec


def _bundle(p: int, e: int, l: int,
            field: Optional[FiniteField] = None) -> SingerBundle:
    """The cached, verified bundle of the tower over `field` (by default,
    and for an equal field, the shared default-modulus bundle).  A tower
    past the transform cap is refused before the default field is built."""
    check_transform_cap(p, e, l)
    if field is None or field == get_field(p, e * l):
        return singer_bundle(p, e, l)
    return _field_bundle(p, e, l, field)


@lru_cache(maxsize=None)
def _field_bundle(p: int, e: int, l: int, field: FiniteField) -> SingerBundle:
    """One verified bundle per non-default field (fields hash by value)."""
    return build_singer_bundle(p, e, l, field=field)


# -- construction -------------------------------------------------------------


@lru_cache(maxsize=4)
def _parity_pattern(n1: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """(i % 2 == 0, i % v) for i < n1, read-only, shared by every build."""
    i = np.arange(n1, dtype=np.int64)
    even, residue = i % 2 == 0, (i % v).astype(np.int32)
    even.setflags(write=False)
    residue.setflags(write=False)
    return even, residue


def _normal_X(X: Iterable[int], bound: int) -> tuple[int, ...]:
    """X as a sorted, duplicate-free tuple of ints in 0..bound - 1."""
    X = tuple(sorted({int(x) for x in X}))
    if X and (X[0] < 0 or X[-1] >= bound):
        raise ParameterError(f"X must lie in 0..{bound - 1}")
    return X


def build_DX(p: int, e: int, l: int, X: Iterable[int],
             field: Optional[FiniteField] = None,
             provenance: str = "manual") -> SchemeRecord:
    """Parity rule: g^i goes in iff (i even) agrees with (i mod v in X)."""
    if field is None:
        field = get_field(p, e * l)
    q = p ** e
    n1 = q ** l - 1
    v = n1 // (q - 1)
    X = _normal_X(X, v)
    if l % 2 == 0:
        warnings.warn("even l: the half-size guarantee does not apply",
                      stacklevel=2)
    xind = np.zeros(v, dtype=bool)
    xind[np.asarray(X, dtype=np.int64)] = True
    even, residue = _parity_pattern(n1, v)
    D = tuple(np.flatnonzero(even == xind[residue]).tolist())
    return SchemeRecord(field=field, e=e, l=l, D=D, provenance=provenance,
                        verified_by=frozenset())


# While `route_verdicts` runs a route on a record, this holds the run's
# memo, so the routes of one run recover X once and share one
# X^(-1) * W.  It is set only around a route call.
_RUN: ContextVar[Optional[dict]] = ContextVar("_RUN", default=None)


def _D_array(rec: SchemeRecord) -> np.ndarray:
    """D as a read-only int64 array, the one the record converted."""
    return rec._D


def is_half_point(rec: SchemeRecord) -> bool:
    """Union of base-square cosets meeting each unit-coset of F_q in half."""
    v, n1 = rec.v, rec.n1
    full = n1 // (2 * v)  # (q - 1) / 2
    cls = np.bincount(_D_array(rec) % (2 * v), minlength=2 * v)
    if not np.all((cls == 0) | (cls == full)):
        return False
    return bool(np.all(cls[:v] + cls[v:] == full))


def recover_X(rec: SchemeRecord) -> tuple[int, ...]:
    if rec.l % 2 == 0:
        raise PreconditionError("X recovery needs odd l")
    if not is_half_point(rec):
        raise PreconditionError("not a half-point set; X is undefined")
    D = _D_array(rec)
    inX = np.zeros(rec.v, dtype=bool)
    inX[D[D % 2 == 0] % rec.v] = True
    return tuple(np.flatnonzero(inX).tolist())


def _recover_or_refuse(rec: SchemeRecord):
    try:
        return recover_X(rec)
    except PreconditionError as err:
        return err


def _run_X(rec: SchemeRecord) -> tuple[int, ...]:
    """recover_X(rec), once per `route_verdicts` run; where X is
    undefined, every call raises recover_X's PreconditionError afresh."""
    memo = _RUN.get()
    if memo is None:
        X = _recover_or_refuse(rec)
    else:
        held = memo.get("X")
        if held is None or held[0] is not rec:
            held = memo["X"] = (rec, _recover_or_refuse(rec))
        X = held[1]
    if isinstance(X, PreconditionError):
        raise PreconditionError(*X.args)
    return X


def _is_run_X(X) -> bool:
    """Whether X is the one the current run recovered: sorted, in range."""
    memo = _RUN.get()
    return memo is not None and "X" in memo and memo["X"][1] is X


# -- verification routes -------------------------------------------------------


def verify_additive(rec: SchemeRecord) -> bool:
    """Check the defining identity in the additive group ring.

    The identity says T(chi) T(chi-bar) = |F| at every nontrivial additive
    character chi, for T = 1 + 2D.  T and T^(-1) = 1 + 2(-D) are scattered
    straight into coefficient vectors, with -g^i = g^(i + n1/2) (p is
    odd).  Their product has coefficients of size at most 2|F|, and it is
    computed exactly through the character transform of (F, +) = (Z_p)^m
    modulo one prime P = 1 (mod p) above 4|F| (for m = 1, by the cyclic
    product over Z_p).  That takes one forward transform: the kernel
    reads the transform of T^(-1) at k off that of T at -k.  The identity
    asks for 2|F| - 1 at the zero element and |F| - 1 everywhere else.
    """
    G = FieldAdditiveGroup(rec.field)
    D = _D_array(rec)
    T = np.zeros(G.order, dtype=np.int64)
    T_inv = np.zeros(G.order, dtype=np.int64)
    T[0] = T_inv[0] = 1
    T[D + 1] = 2
    T_inv[(D + rec.n1 // 2) % rec.n1 + 1] = 2
    prod = GroupRingElement(G, T).convolve(GroupRingElement(G, T_inv)).coeffs
    return bool(prod[0] == 2 * G.order - 1
                and np.all(prod[1:] == G.order - 1))


def _inverse_times_W(p: int, e: int, l: int, X: tuple[int, ...],
                     field: Optional[FiniteField]) -> GroupRingElement:
    """X^(-1) * W in Z[Z_v]; inside a `route_verdicts` run it is formed
    once and shared."""
    memo = _RUN.get()
    if memo is None:
        memo = {}
    key = (p, e, l, field, X)
    if key not in memo:
        bundle = _bundle(p, e, l, field)
        Xel = GroupRingElement.from_indices(CyclicGroup(bundle.v), X)
        memo[key] = Xel.power_map(-1) * bundle.weighing_element()
    return memo[key]


def _signed_product(rec: SchemeRecord) -> tuple[np.ndarray, int]:
    """Y = 2 X^(-1) W - sum W in Z_v, and Q = q^((l-1)/2), so |R| = Q^2.

    A half-point set meets every class of Z_n1 mod 2v in all or none of
    its (q - 1)/2 elements.  As v is odd, Z_2v = Z_2 x Z_v, and the signed
    ring map f -> (-1)^y (f(y) - f(y + v)) into Z[Z_v] sends D to 2X - G_v
    and R to W, so (D^(-1) R)(x) = (Q^2 + (-1)^x Y(x mod v)) / 2.  Each
    residue mod v occurs at both parities (n1 / v = q - 1 is even), so
    the unit-group routes read their verdicts off Y.
    """
    if rec.l % 2 == 0:
        raise PreconditionError("route needs odd l")
    try:
        X = _run_X(rec)
    except PreconditionError:
        raise PreconditionError(
            "route applies to half-point sets only") from None
    bundle = _bundle(rec.p, rec.e, rec.l, rec.field)
    XW = _inverse_times_W(rec.p, rec.e, rec.l, X, rec.field).coeffs
    return 2 * XW - sum(bundle.W), rec.q ** ((rec.l - 1) // 2)


def verify_multiplicative(rec: SchemeRecord) -> bool:
    """Divisibility of D^(-1) * R by Q = q^((l-1)/2) in the unit group.

    Q is odd and sum W = +-Q, so this holds iff Q divides X^(-1) * W: it
    is the quotient route's predicate, not an independent witness.
    """
    Y, Q = _signed_product(rec)
    return bool(np.all(Y % Q == 0))


def verify_quotient(p: int, e: int, l: int, X: Iterable[int],
                    field: Optional[FiniteField] = None) -> bool:
    """Divisibility of X^(-1) * W by q^((l-1)/2) down in Z_v.

    X is normalised first, unless it is the X that the current
    `route_verdicts` run recovered, which is sorted and in range.
    """
    if l % 2 == 0:
        raise PreconditionError("route needs odd l")
    if not _is_run_X(X):
        X = _normal_X(X, ((p ** e) ** l - 1) // (p ** e - 1))
    return _inverse_times_W(p, e, l, X, field).scalar_divisible(
        (p ** e) ** ((l - 1) // 2))


def verify_dual(rec: SchemeRecord) -> bool:
    """True iff the dual construction lands on a genuine 0/1 subset:
    D^(-1) * R - ((Q^2 - Q)/2) F* is (Q + (-1)^x Y(x mod v)) / 2, all 0
    or Q iff every entry of Y is +-Q."""
    Y, Q = _signed_product(rec)
    return bool(np.all(np.abs(Y) == Q))


def verify_scheme(rec: SchemeRecord, method: str = "additive") -> bool:
    if method == "additive":
        return verify_additive(rec)
    if method == "multiplicative":
        return verify_multiplicative(rec)
    if method == "quotient":
        return verify_quotient(rec.p, rec.e, rec.l, _run_X(rec),
                               field=rec.field)
    if method == "dual":
        return verify_dual(rec)
    raise ParameterError(f"unknown method {method!r}")


def route_verdicts(rec: SchemeRecord, methods: Iterable[str]
                   ) -> Iterator[tuple[str, bool | PreconditionError]]:
    """Run the routes in turn, yielding (method, verdict).

    The verdict is a bool, or the PreconditionError of a route that does
    not apply to this record.  Applicable routes must agree: a verdict
    that differs from an earlier one raises InternalInconsistencyError.
    The three trace routes of one run share one recovered X and one
    X^(-1) * W; both are dropped when the run ends.  Only the additive
    route computes apart.
    """
    first = None
    memo: dict = {}
    try:
        for method in methods:
            ok = _run_route(rec, method, memo)
            if not isinstance(ok, PreconditionError):
                if first is None:
                    first = (method, ok)
                elif ok != first[1]:
                    raise InternalInconsistencyError(
                        f"routes disagree: {first[0]} says {first[1]}, "
                        f"{method} says {ok}")
            yield method, ok
    finally:
        memo.clear()


def _run_route(rec: SchemeRecord, method: str,
               memo: dict) -> bool | PreconditionError:
    """One route of a `route_verdicts` run, with the run's memo in reach."""
    token = _RUN.set(memo)
    try:
        return verify_scheme(rec, method)
    except PreconditionError as err:
        return err
    finally:
        _RUN.reset(token)


def certify(rec: SchemeRecord, methods=("additive",),
            strict: bool = True) -> SchemeRecord:
    """Run the requested routes and stamp those that pass.

    Routes whose preconditions do not apply are skipped (that is not a
    failure).  Applicable routes that disagree raise
    InternalInconsistencyError; with strict=True, failing ones raise
    VerificationFailedError.
    """
    if methods == "all":
        methods = METHODS
    verdicts = {method: ok for method, ok in route_verdicts(rec, methods)
                if not isinstance(ok, PreconditionError)}
    if strict and not all(verdicts.values()):
        raise VerificationFailedError(
            f"{', '.join(verdicts)} verification failed for D of size "
            f"{len(rec.D)} over F_{rec.p}^{rec.field.m}")
    passed = frozenset(m for m, ok in verdicts.items() if ok)
    return replace(rec, verified_by=rec.verified_by | passed)


# -- dual and unit transforms --------------------------------------------------


def dual_scheme(rec: SchemeRecord) -> SchemeRecord:
    """The subset D-hat defined by D^(-1) * R = Q D-hat + c F*: g^x is in
    it iff (-1)^x Y(x mod v) = Q, the parity rule on {r : Y(r) = Q}."""
    if not rec.verified_by:
        raise PreconditionError("dual of an unverified record is not defined")
    Y, Q = _signed_product(rec)
    if not np.all(np.abs(Y) == Q):
        raise InternalInconsistencyError(
            "verified record produced a non 0/1 dual; verification stamps "
            "and the dual identity disagree")
    D = build_DX(rec.p, rec.e, rec.l, np.flatnonzero(Y == Q),
                 field=rec.field).D
    return replace(rec, D=D, verified_by=frozenset())


def scale(rec: SchemeRecord, s: int) -> SchemeRecord:
    """Multiply D by the unit g^s (exponent shift)."""
    D = tuple(sorted((i + s) % rec.n1 for i in rec.D))
    return replace(rec, D=D, verified_by=frozenset())


def frobenius(rec: SchemeRecord, k: int = 1) -> SchemeRecord:
    t = pow(rec.p, k, rec.n1)
    D = tuple(sorted(i * t % rec.n1 for i in rec.D))
    return replace(rec, D=D, verified_by=frozenset())


def negate(rec: SchemeRecord) -> SchemeRecord:
    return scale(rec, rec.n1 // 2)


def complement_units(rec: SchemeRecord) -> SchemeRecord:
    D = tuple(sorted(set(range(rec.n1)) - set(rec.D)))
    return replace(rec, D=D, verified_by=frozenset())
