"""Construction families for scheme subsets.

Four sources feed the builder: dividing difference sets in Z_v (the power
and half-power families plus their lifts), pullbacks of subsets through
the reduction Z_v -> Z_n when 2 sits in the subgroup generated by p mod n,
the small-prime solver branch (class-number driven), and union/intersection
composition of existing residue sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from .errors import (InternalInconsistencyError, ParameterError,
                     PreconditionError)
from .fields import is_prime
from .groupring import (CyclicGroup, GroupRingElement, ds_quotient,
                        is_difference_set)
from .schemes import SchemeRecord, build_DX, certify, verify_quotient
from .singer import gmw_components, singer_bundle

ADP_ORIGINS = ("power", "half_power", "lifted", "quotient")


@dataclass(frozen=True)
class AdpRecord:
    """A dividing difference set in Z_v together with its paired dual."""

    p: int
    e: int
    l: int
    A: tuple[int, ...]
    dual: Optional[tuple[int, ...]]
    origin: str
    adp_certified: bool

    def __post_init__(self):
        if self.origin not in ADP_ORIGINS:
            raise ParameterError(f"unknown origin {self.origin!r}")

    @property
    def q(self) -> int:
        return self.p ** self.e

    @property
    def v(self) -> int:
        return (self.q ** self.l - 1) // (self.q - 1)

    def params(self) -> tuple[int, int, int]:
        q, l = self.q, self.l
        return (self.v, q ** (l - 1), q ** (l - 2) * (q - 1))

    def to_json(self) -> dict:
        out = {"v": self.v, "set": list(self.A),
               "params": list(self.params()), "kind": "adp",
               "origin": self.origin, "certified": self.adp_certified}
        if self.dual is not None:
            out["dual"] = list(self.dual)
        return out


def _as_element(v: int, X: Iterable[int]) -> GroupRingElement:
    return GroupRingElement.from_indices(CyclicGroup(v), sorted(X))


def _guaranteed(rec: SchemeRecord, routes: tuple[str, ...],
                what: str) -> SchemeRecord:
    """Certify a record its construction guarantees to be a scheme."""
    out = certify(rec, routes, strict=False)
    if out.verified_by != frozenset(routes):
        raise InternalInconsistencyError(
            f"{what} failed verification (passed {sorted(out.verified_by)} "
            f"of {sorted(routes)})")
    return out


def power_set(X: Iterable[int], t: int, v: int) -> tuple[int, ...]:
    """The image set X^(t) = {t x mod v}; requires the map stay injective."""
    X = {int(x) for x in X}
    out = sorted({t * x % v for x in X})
    if len(out) != len(X):
        raise ParameterError(f"exponent {t} collapses the set modulo {v}")
    return tuple(out)


def adp_check(p: int, e: int, l: int, A: Iterable[int],
              origin: str = "quotient") -> Optional[AdpRecord]:
    """Decide whether A divides S^(-1) S^(2); return the paired record.

    The quotient route and the cross route (S^(2) must divide A S) have to
    agree; a split verdict is a bug, not a result.
    """
    bundle = singer_bundle(p, e, l)
    v, k, lam = bundle.ds_params()
    A = tuple(sorted({int(x) for x in A}))
    Ael = _as_element(v, A)
    if not is_difference_set(Ael, v, k, lam):
        raise ParameterError(
            f"A is not a ({v},{k},{lam}) difference set; not eligible")
    Sel = _as_element(v, bundle.S)
    target = Sel.power_map(-1) * Sel.power_map(2)
    B = ds_quotient(target, Ael, (v, k, lam))
    ok_main = B is not None and B.is_zero_one()
    cross = ds_quotient(Ael * Sel, Sel.power_map(2), (v, k, lam))
    ok_cross = cross is not None and cross.is_zero_one()
    if ok_main != ok_cross:
        raise InternalInconsistencyError(
            "quotient route and cross route disagree on ADP membership")
    if not ok_main:
        return None
    return AdpRecord(p=p, e=e, l=l, A=A, dual=B.subset_indices(),
                     origin=origin, adp_certified=True)


def adp_power_family(p: int, e: int, l: int, r: int) -> AdpRecord:
    """S^(1+q^r), valid whenever 1 + q^r is a unit modulo v."""
    q = p ** e
    t = 1 + q ** r
    bundle = singer_bundle(p, e, l)
    if math.gcd(t, bundle.v) != 1:
        raise ParameterError(f"1 + q^{r} = {t} shares a factor with v = {bundle.v}")
    rec = adp_check(p, e, l, power_set(bundle.S, t, bundle.v), origin="power")
    if rec is None:
        raise InternalInconsistencyError(
            f"power family member with r = {r} failed its guarantee")
    return rec


def adp_half_power_family(l: int, r: int) -> AdpRecord:
    """S^((1+3^r)/2) over the base-3 tower; needs gcd(r, l) = 1."""
    if math.gcd(r, l) != 1:
        raise ParameterError(f"r = {r} and l = {l} are not coprime")
    t = (1 + 3 ** r) // 2
    bundle = singer_bundle(3, 1, l)
    rec = adp_check(3, 1, l, power_set(bundle.S, t, bundle.v),
                    origin="half_power")
    if rec is None:
        raise InternalInconsistencyError(
            f"half-power family member with r = {r} failed its guarantee")
    return rec


def adp_dual(rec: AdpRecord) -> AdpRecord:
    if rec.dual is None:
        raise PreconditionError("record has no certified dual to swap")
    return AdpRecord(p=rec.p, e=rec.e, l=rec.l, A=rec.dual, dual=rec.A,
                     origin=rec.origin, adp_certified=rec.adp_certified)


@lru_cache(maxsize=None)
def _gmw_cached(p: int, e: int, t: int, s: int):
    return gmw_components(p, e, t, s)


@lru_cache(maxsize=None)
def _presentation_aligner(p: int, e: int, t: int, s: int) -> int:
    """Multiplier carrying standalone layer-t exponents into the big field.

    The standalone field and the subfield sitting inside F_{q^st} pick
    different primitive elements, so the same abstract subset gets two
    exponent codings that differ by a unit multiplier. Matching the two
    trace sets recovers a usable multiplier; the leftover ambiguity is
    the stabilizer of S, which is harmless here because it fixes every
    relation the lift relies on.
    """
    if t == 1:
        return 1
    comps = _gmw_cached(p, e, t, s)
    standalone = set(singer_bundle(p, e, t).S)
    target = set(comps.s_sub)
    for c in range(1, comps.v_t):
        if math.gcd(c, comps.v_t) != 1:
            continue
        if {c * x % comps.v_t for x in standalone} == target:
            return c
    raise InternalInconsistencyError(
        "no multiplier aligns the two subfield presentations")


def _lift(p: int, e: int, t: int, s: int,
          X: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two twists R~^(-1) X and R~^(2) X of a layer-t set in Z_{v_st}.

    X is read in the standalone layer-t presentation and re-expressed
    relative to the embedded subfield generator before the convolution.
    """
    if s % 2 == 0 or t % 2 == 0:
        raise ParameterError("both layer counts must be odd")
    if s < 3:
        raise ParameterError("lifting needs at least three layers")
    comps = _gmw_cached(p, e, t, s)
    G = CyclicGroup(comps.v_st)
    Rt = GroupRingElement.from_indices(G, comps.rtilde)
    c = _presentation_aligner(p, e, t, s)
    X = power_set(X, c, comps.v_t)
    Xemb = GroupRingElement.from_indices(G, comps.embed(X))
    out = []
    for power in (-1, 2):
        prod = Rt.power_map(power) * Xemb
        if not prod.is_zero_one():
            raise InternalInconsistencyError(
                "lifted product is not a subset; embedding layout is wrong")
        lifted = prod.subset_indices()
        if len(lifted) != (p ** e) ** (s * t - t) * len(X):
            raise InternalInconsistencyError("lifted set has the wrong size")
        out.append(lifted)
    return out[0], out[1]


def adp_lift(rec: AdpRecord, s: int) -> tuple[AdpRecord, AdpRecord]:
    """Lift an order-v_t record to layer st by the two trace-set twists.

    Both lifts are certified by `adp_check`, dual divisor included, at
    every order.
    """
    if not rec.adp_certified:
        raise PreconditionError("only certified records lift")
    out = []
    for lifted in _lift(rec.p, rec.e, rec.l, s, rec.A):
        cert = adp_check(rec.p, rec.e, s * rec.l, lifted, origin="lifted")
        if cert is None:
            raise InternalInconsistencyError(
                "lifted set failed the dividing-set guarantee")
        out.append(cert)
    return out[0], out[1]


def scheme_from_adp(rec: AdpRecord) -> SchemeRecord:
    """Build D(A); certified records must verify by both routes."""
    if not rec.adp_certified:
        raise PreconditionError("record is not certified as a dividing set")
    if rec.l % 2 == 0:
        raise PreconditionError("schemes need odd l")
    return _guaranteed(build_DX(rec.p, rec.e, rec.l, rec.A, provenance="adp"),
                       ("quotient", "additive"), "certified dividing set")


# -- cyclotomic pullbacks ------------------------------------------------------


def validate_cyclotomic_params(p: int, e: int, l: int, n: int) -> bool:
    q = p ** e
    v = (q ** l - 1) // (q - 1)
    if n < 1 or v % n != 0 or math.gcd(n, p) != 1:
        return False
    seen = {pow(p, k, n) for k in range(1, n + 1)}
    return 2 % n in seen


def cyclotomic_scheme(p: int, e: int, l: int, n: int,
                      X: Iterable[int]) -> SchemeRecord:
    """Pull X back through Z_v -> Z_n and build; valid for every X."""
    if l % 2 == 0:
        raise PreconditionError("schemes need odd l")
    if not validate_cyclotomic_params(p, e, l, n):
        raise PreconditionError(
            f"(p={p}, n={n}) fails the subgroup membership test")
    X = sorted({int(x) for x in X})
    if X and (X[0] < 0 or X[-1] >= n):
        raise ParameterError(f"X must lie in 0..{n - 1}")
    q = p ** e
    v = (q ** l - 1) // (q - 1)
    pullback = np.flatnonzero(np.isin(np.arange(v) % n, X))
    return _guaranteed(build_DX(p, e, l, pullback, provenance="cyclotomic"),
                       ("quotient", "additive"),
                       f"cyclotomic pullback of X = {X}")


# -- small-prime solver branch ---------------------------------------------------


def class_number(p_prime: int) -> int:
    """h(-p') by counting reduced primitive forms of discriminant -p'."""
    if p_prime % 4 != 3:
        raise ParameterError("odd discriminant count needs p' = 3 mod 4")
    h = 0
    a = 1
    while 3 * a * a <= p_prime:  # reduced forms force p' >= 3a^2
        for b in range(-a + 1, a + 1):
            if (b * b + p_prime) % (4 * a):
                continue
            c = (b * b + p_prime) // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == c or -b == a):
                continue  # boundary forms count once, with b > 0
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                h += 1
        a += 1
    return h


@dataclass(frozen=True)
class LangevinParams:
    p: int
    p_prime: int
    m: int
    l: int
    h: int
    a: int
    b: int
    constructive: bool
    desk_feasible: bool
    candidates: tuple[tuple[int, ...], ...]
    candidate_labels: tuple[str, ...]


def _multiplicative_order(a: int, modulus: int) -> int:
    t = a % modulus
    cur = t
    for k in range(1, modulus + 1):
        if cur == 1:
            return k
        cur = cur * t % modulus
    raise ParameterError(f"{a} is not a unit modulo {modulus}")


def langevin_solve(p: int, p_prime: int, m: int = 1) -> LangevinParams:
    if not is_prime(p) or p == 2:
        raise ParameterError(f"p = {p} must be an odd prime")
    if not is_prime(p_prime) or p_prime % 8 != 3 or p_prime == 3:
        raise ParameterError(
            f"p' = {p_prime} must be a prime = 3 mod 8, not 3")
    if m < 1:
        raise ParameterError("m must be positive")
    mod = p_prime ** m
    l = (p_prime ** m - p_prime ** (m - 1)) // 2
    order = _multiplicative_order(p, mod)
    if order != l:
        raise ParameterError(
            f"order of {p} mod {mod} is {order}, need {l}")
    h = class_number(p_prime)

    # a^2 + b^2 p' = 4 p^h with p not dividing b; unique up to signs
    rhs = 4 * p ** h
    solution = None
    b = 1
    while b * b * p_prime <= rhs:
        a2 = rhs - b * b * p_prime
        a = math.isqrt(a2)
        if a * a == a2 and b % p != 0:
            solution = (a, b)
            break
        b += 1
    if solution is None:
        raise InternalInconsistencyError(
            f"no representation 4*{p}^{h} = a^2 + {p_prime} b^2 found")
    a, b = solution
    target = (-2 * pow(p, (l + h) // 2, p_prime)) % p_prime
    if a % p_prime == target:
        pass
    elif (-a) % p_prime == target:
        a = -a
    else:
        raise InternalInconsistencyError(
            "neither sign of a matches its congruence pin")

    squares = tuple(sorted({x * x % p_prime for x in range(1, p_prime)}))
    nonsquares = tuple(sorted(set(range(1, p_prime)) - set(squares)))
    if a > 0:
        candidates = ((0,) + squares, (0,) + nonsquares)
        labels = ("squares_with_zero", "nonsquares_with_zero")
    else:
        candidates = (squares, nonsquares)
        labels = ("squares", "nonsquares")

    constructive = rhs == 1 + p_prime
    return LangevinParams(
        p=p, p_prime=p_prime, m=m, l=l, h=h, a=a, b=b,
        constructive=constructive,
        desk_feasible=constructive and p ** l <= 1_000_000,
        candidates=candidates, candidate_labels=labels)


@dataclass(frozen=True)
class LangevinResult:
    params: LangevinParams
    records: tuple[SchemeRecord, ...]
    labels: tuple[str, ...]

    @property
    def ambiguous(self) -> bool:
        return len(self.records) > 1

    @property
    def record(self) -> SchemeRecord:
        return self.records[0]


def langevin_scheme(p: int, p_prime: int, m: int = 1,
                    T: Optional[Iterable[int]] = None) -> LangevinResult:
    """Try both residue candidates; exactly one should give a scheme."""
    params = langevin_solve(p, p_prime, m)
    if not params.constructive:
        raise PreconditionError(
            f"4p^h = {4 * p ** params.h} != 1 + p'; no construction here")
    mod = p_prime ** m
    step = p_prime ** (m - 1)
    if T is None:
        T = range(step)
    T = sorted({int(t) % mod for t in T})
    if len(T) != step or len({t % step for t in T}) != step:
        raise ParameterError(
            f"T must hit each of the {step} cosets exactly once")
    v = (p ** params.l - 1) // (p - 1)
    if v % mod:
        raise InternalInconsistencyError("residue modulus does not divide v")

    found = []
    found_labels = []
    for P, label in zip(params.candidates, params.candidate_labels):
        doubled = {2 * j * step % mod for j in P}
        X = {(t + x) % mod for t in T for x in doubled}
        if len(X) != len(T) * len(P):
            raise InternalInconsistencyError("candidate sumset collapsed")
        pullback = [i for i in range(v) if i % mod in X]
        rec = certify(build_DX(p, 1, params.l, pullback,
                               provenance="langevin"),
                      ("quotient", "additive"), strict=False)
        if rec.verified_by:
            found.append(rec)
            found_labels.append(label)
    if not found:
        raise InternalInconsistencyError(
            "no candidate verified; the construction guarantee is broken")
    return LangevinResult(params=params, records=tuple(found),
                          labels=tuple(found_labels))


# -- composition and multipliers -------------------------------------------------


def gmw_lift_scheme(p: int, e: int, t: int, s: int,
                    X: Iterable[int]) -> tuple[SchemeRecord, SchemeRecord]:
    """Lift a residue set from Z_{v_t} to Z_{v_st} by the two twists.

    X is read in the standalone layer-t presentation, exactly like the
    scheme it is checked against, then re-expressed for the embedding.
    """
    v_t = ((p ** e) ** t - 1) // (p ** e - 1)
    X = sorted({int(x) for x in X})
    if X and (X[0] < 0 or X[-1] >= v_t):
        raise ParameterError(f"X must lie in 0..{v_t - 1}")
    lifts = _lift(p, e, t, s, X)
    if not verify_quotient(p, e, t, X):
        raise PreconditionError("X does not define a scheme at the base layer")
    return tuple(_guaranteed(build_DX(p, e, s * t, lifted,
                                      provenance="gmw_lift"),
                             ("quotient",), "lifted residue set")
                 for lifted in lifts)


def union_scheme(p: int, e: int, l: int, X1: Iterable[int],
                 X2: Iterable[int]) -> SchemeRecord:
    """Union of disjoint scheme sets, or intersection of covering ones."""
    q = p ** e
    v = (q ** l - 1) // (q - 1)
    X1 = {int(x) for x in X1}
    X2 = {int(x) for x in X2}
    for X in (X1, X2):
        if X and (min(X) < 0 or max(X) >= v):
            raise ParameterError(f"X must lie in 0..{v - 1}")
        if not verify_quotient(p, e, l, X):
            raise PreconditionError("both inputs must define schemes")
    if not (X1 & X2):
        X = X1 | X2
    elif X1 | X2 == set(range(v)):
        X = X1 & X2
    else:
        raise PreconditionError(
            "inputs neither disjoint nor covering; composition undefined")
    return _guaranteed(build_DX(p, e, l, X, provenance="union"),
                       ("quotient", "additive"), "composed set")


def is_strong_multiplier(X: Iterable[int], v: int, t: int) -> bool:
    if math.gcd(t, v) != 1:
        raise ParameterError(f"t = {t} is not a unit modulo {v}")
    X = {int(x) % v for x in X}
    return {t * x % v for x in X} == X
