"""Sweeps over candidate X subsets, checkpointable.

Three searches are provided.  `search_all_X` tries every subset of Z_v
and is only for tiny v.  `search_galois_invariant` tries the subsets
fixed by i -> p*i, which shrinks the exponent from v to the number of
multiplier orbits and brings degree-five fields into reach.  Both rest
on the same divisibility filter: X passes iff every coefficient of
X^(-1) * W is a multiple of q^((l-1)/2) down in Z_v.

The shared engine walks candidates in binary reflected Gray-code order
and keeps the residue vector r = X^(-1) * W mod q^((l-1)/2) up to date
incrementally.  Each orbit o contributes a fixed vector C_o, and one
Gray step toggles exactly one orbit, so a step costs a single vector
add.  Candidates with r = 0 are proven before being recorded, one
additive product per orbit of a group of maps that carry a scheme of the
space to a scheme of the space (see `_linear_images`).  Each map but the
complement is an F_p-linear automorphism of (F, +), which keeps the
additive identity, taken as its exponent permutation pi of Z_n1: x ->
x^p is i -> p i, x -> g^s x is i -> i + s, and a generator of the
normalizer of <sigma>, sigma: x -> x^p, in GL(m, p) is
`F.linear_map(A)`.  Where pi mod v and the parity of pi(i) - i are
constant on the residue classes mod v, pi sends D(X) to D(X') for a
signed permutation X' of X (`_action`).  The complement X^c = Z_v - X
gives D(X^c) = F* - D(X), so T' = 1 + 2 D(X^c) is 2F - T for
T = 1 + 2 D(X) and T' T'^(-1) = T T^(-1).  The first hit of an orbit is
re-verified through the additive identity, and a failure there means the
residue arithmetic is broken and raises instead of being swallowed; once
it passes, its whole orbit is marked proven and later hits in it are
recorded as they stand.  A filter that emitted a non-hit would still
raise, since no non-scheme is the image of a scheme.  As the filter is a
necessary condition, every image of a proven scheme must also be
emitted; a walk that ends with a proven mask the filter never emitted
raises, so a filter that drops part of an orbit, or a map that acts
wrongly on the masks, is caught.  (Sharing work along the normalizer of
a prescribed automorphism group is the isomorph rejection of Kaski &
Ostergard, *Classification Algorithms for Codes and Designs*, 2006.)

For speed the walk is split in the middle: the low B orbits are
indexed once by the residue of each of their 2^B patterns, and a block
of 2^B positions sharing the high orbits vanishes exactly where the
low residue equals -r_high mod M, so each block costs one exact
dictionary probe while the hits keep the order of the plain walk.

`search_cyclotomic_unions` is different: it works in the field proper,
testing every union of power-residue classes with the additive
identity directly, so it also covers even extension degrees.  The
semilinear maps and the complement permute the classes (a union of the
wrong size fails, and so do its images), so one union of each orbit is
tested and its verdict, pass or fail, given to the whole orbit.

A residue search is one walk over the Gray range [0, 2^orbits).  Every
`FLUSH_EVERY` positions it flushes its progress, with the residue
snapshot at that position, to one JSON-lines checkpoint file
`<checkpoint_dir>/search.jsonl` through a temp-file-and-rename write.
A rerun walks from position 0 too, checks each stored record against
the one the walk makes there and continues past the last, so resuming
from whatever survived a kill reproduces the uninterrupted output at
the cost of a fresh run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (BudgetExceededError, InternalInconsistencyError,
                     ParameterError, PreconditionError)
from .fields import _check_field, get_field
from .groupring import CyclicGroup, GroupRingElement
from .schemes import SchemeRecord, build_DX, verify_additive
from .singer import singer_bundle

ENGINE_VERSION = "gray-block/2"
DEFAULT_MAX_ORBITS = 26
DEFAULT_MAX_CLASSES = 16
FLUSH_EVERY = 1 << 20
_BLOCK_BITS = 12

KINDS = ("all_X", "galois_orbits", "cyclotomic_unions")


@dataclass(frozen=True)
class SearchSpace:
    """A candidate family: one bit per orbit, 2^orbits subsets in all.

    For the two residue-filtered kinds the orbits partition Z_v; for
    cyclotomic unions they are the power-residue classes and partition
    the exponent range of the unit group instead.
    """

    kind: str
    p: int
    e: int
    l: int
    orbits: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown search kind {self.kind!r}")
        flat = sorted(x for orbit in self.orbits for x in orbit)
        if flat != list(range(self.span)):
            raise ParameterError("orbits do not partition the index range")

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
    def span(self) -> int:
        return self.v if self.kind != "cyclotomic_unions" else self.n1

    @property
    def candidates(self) -> int:
        return 1 << len(self.orbits)


@dataclass(frozen=True)
class SearchResult:
    """Sorted list of hits plus an honesty note about coverage."""

    space: SearchSpace
    found: tuple[tuple[int, ...], ...]
    note: Optional[str]

    @property
    def complete(self) -> bool:
        """Whether the candidate family provably contains every scheme
        the search claims to look for (Galois-invariant ones for the
        orbit kind).  Over base fields other than F_3 a scheme need
        not be a half-point set, so the sweep sees only part of the
        landscape and this is False."""
        return self.note is None

    def to_json(self) -> dict:
        out = {
            "kind": self.space.kind,
            "tower": [self.space.p, self.space.e, self.space.l],
            "orbit_count": len(self.space.orbits),
            "candidates": self.space.candidates,
            "complete": self.complete,
            "found": [list(x) for x in self.found],
        }
        if self.note is not None:
            out["note"] = self.note
        return out


def orbits_under_multiplier(v: int, t: int) -> tuple[tuple[int, ...], ...]:
    """Partition of Z_v into orbits of i -> t*i, ordered by least member."""
    if v < 1:
        raise ParameterError("v must be positive")
    t %= v
    if math.gcd(t, v) != 1:
        raise ParameterError(f"multiplier {t} is not a unit mod {v}")
    seen = np.zeros(v, dtype=bool)
    orbits = []
    for i in range(v):
        if seen[i]:
            continue
        orbit = []
        j = i
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = j * t % v
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def all_subsets_space(p: int, e: int, l: int, *,
                      max_orbits: int = DEFAULT_MAX_ORBITS) -> SearchSpace:
    """Every subset of Z_v as its own candidate (2^v of them).

    Each point is its own orbit, so v is held to the orbit budget of
    `galois_space`: both kinds run on the same engine at the same cost
    per candidate.
    """
    _check_tower(p, e, l)
    q = p ** e
    v = (q ** l - 1) // (q - 1)
    if v > max_orbits:
        raise BudgetExceededError(
            f"2^{v} subsets of Z_{v} exceed the sweep budget "
            f"(<= {max_orbits} orbits)", spent=v)
    return SearchSpace("all_X", p, e, l, tuple((i,) for i in range(v)))


def galois_space(p: int, e: int, l: int, *,
                 max_orbits: int = DEFAULT_MAX_ORBITS) -> SearchSpace:
    """Subsets of Z_v fixed by i -> p*i, one bit per multiplier orbit."""
    _check_tower(p, e, l)
    q = p ** e
    v = (q ** l - 1) // (q - 1)
    # p^(el) = q^l = 1 (mod v): no orbit but {0} has more than e l members
    least = 1 + -(-(v - 1) // (e * l))
    if least > max_orbits:
        raise BudgetExceededError(
            f"at least {least} multiplier orbits exceed the sweep budget "
            f"(<= {max_orbits})", spent=least)
    orbits = orbits_under_multiplier(v, p)
    if len(orbits) > max_orbits:
        raise BudgetExceededError(
            f"{len(orbits)} multiplier orbits exceed the sweep budget "
            f"(<= {max_orbits})", spent=len(orbits))
    return SearchSpace("galois_orbits", p, e, l, orbits)


def cyclotomic_space(p: int, m: int, n_classes: int, *,
                     max_classes: int = DEFAULT_MAX_CLASSES) -> SearchSpace:
    """Unions of the n-th power classes C_j = {g^i : i = j mod n} in F_{p^m}."""
    _check_field(p, m)
    n1 = p ** m - 1
    if n_classes < 2 or n1 % n_classes != 0:
        raise ParameterError(
            f"class count {n_classes} does not divide {n1}")
    if n_classes % 2 != 0:
        raise PreconditionError(
            "an odd class count cannot make half-size unions")
    if n_classes > max_classes:
        raise BudgetExceededError(
            f"2^{n_classes} unions exceed the sweep budget "
            f"(<= {max_classes} classes)", spent=n_classes)
    classes = tuple(tuple(range(j, n1, n_classes)) for j in range(n_classes))
    return SearchSpace("cyclotomic_unions", p, 1, m, classes)


def _check_tower(p: int, e: int, l: int) -> None:
    if e < 1 or l < 1:
        raise ParameterError("tower exponents must be positive")
    _check_field(p, 1)
    if l % 2 == 0:
        raise PreconditionError("the divisibility filter needs odd l")


# -- the incremental residue engine --------------------------------------------


def _gray(n: int) -> int:
    return n ^ (n >> 1)


def _modulus(space: SearchSpace) -> int:
    return space.q ** ((space.l - 1) // 2)


def _contributions(space: SearchSpace) -> np.ndarray:
    """Per-orbit residue vectors: row o is reverse(orbit_o) * W mod q^((l-1)/2).

    Summing the rows of a subset of orbits gives the residue vector of
    their union, because reversal and convolution are additive over
    disjoint unions.
    """
    bundle = singer_bundle(space.p, space.e, space.l)
    W = bundle.weighing_element()
    M = _modulus(space)
    Zv = CyclicGroup(space.v)
    rows = [
        (GroupRingElement.from_indices(Zv, orbit).power_map(-1) * W).coeffs % M
        for orbit in space.orbits
    ]
    return np.array(rows, dtype=np.int64)


def _residue_at(contrib: np.ndarray, M: int, mask: int) -> np.ndarray:
    """Residue vector of the orbit subset encoded by the bits of mask."""
    r = np.zeros(contrib.shape[1], dtype=np.int64)
    o = 0
    while mask:
        if mask & 1:
            r += contrib[o]
        mask >>= 1
        o += 1
    return r % M


def _low_tables(contrib: np.ndarray, M: int, B: int) -> dict[bytes, list[int]]:
    """Index of the 2^B low-orbit patterns by their residue vector.

    Row z of the Gray-ordered table is the residue of the low pattern
    gray(z); the index maps the int64 bytes of each row to the ascending
    offsets z that share it.  When the high half of a position is odd,
    orbit B-1 is toggled in every low pattern, and since gray(2^B-1-z) =
    gray(z) xor 2^(B-1) the same index serves with z read as 2^B-1-z.
    """
    L = np.zeros((1, contrib.shape[1]), dtype=np.int64)
    for j in range(B):
        L = np.concatenate([L, (L[::-1] + contrib[j]) % M])
    index: dict[bytes, list[int]] = {}
    for z, row in enumerate(L):
        index.setdefault(row.tobytes(), []).append(z)
    return index


def _scan_range(contrib: np.ndarray, M: int, index: dict[bytes, list[int]],
                B: int, start: int, stop: int) -> list[int]:
    """Gray positions in [start, stop) whose residue vector vanishes.

    A position in the block of high half hi vanishes exactly when its
    low residue is -r_high mod M, so each block costs one index probe.
    """
    hits: list[int] = []
    if start >= stop:
        return hits
    last = (1 << B) - 1
    hi = start >> B
    r_high = _residue_at(contrib, M, _gray(hi) << B)
    g0 = start
    while g0 < stop:
        hi = g0 >> B
        base = hi << B
        g1 = min(stop, base + last + 1)
        zs = index.get(((-r_high) % M).tobytes(), [])
        if hi & 1:
            zs = [last - z for z in reversed(zs)]
        hits.extend(base + z for z in zs if g0 <= base + z < g1)
        if g1 < stop:
            diff = _gray(hi) ^ _gray(hi + 1)
            o = B + diff.bit_length() - 1
            step = contrib[o] if _gray(hi + 1) & diff else -contrib[o]
            r_high = (r_high + step) % M
        g0 = g1
    return hits


def _subset_of(space: SearchSpace, position: int) -> tuple[int, ...]:
    """The candidate X at a Gray position: union of the flagged orbits."""
    mask = _gray(position)
    members: list[int] = []
    o = 0
    while mask:
        if mask & 1:
            members.extend(space.orbits[o])
        mask >>= 1
        o += 1
    return tuple(sorted(members))


def _normal_basis(field) -> tuple[np.ndarray, np.ndarray]:
    """B and B^(-1) mod p for the least i with g^i normal over F_p.

    Row k of B holds the digits of g^(i p^k) = sigma^k(g^i), so sigma
    shifts the normal coordinates a, with digits a B, by one place.  B's
    digit table, code -> code of d B, is a permutation exactly when B is
    invertible mod p, and row k of B^(-1) holds the digits of the code
    that the table sends to p^k.
    """
    p, m, n1 = field.p, field.m, field.n1
    base = p ** np.arange(m)  # also the exponents p^k of sigma^k
    digits = np.arange(field.order)[:, None] // base % p
    for i in range(n1):
        B = digits[field.codes[i * base % n1]]
        table = digits @ B % p @ base
        if table[1:].all():
            inverse = np.empty_like(table)
            inverse[table] = np.arange(field.order)
            return B, digits[inverse[base]]
    raise InternalInconsistencyError(f"F_{p}^{m} has no normal element")


def _unit_generators(p: int, m: int) -> list[np.ndarray]:
    """Circulant matrices of units u(sigma) = sum u_k sigma^k of
    F_p[sigma], sigma^m = 1, that generate its unit group together with
    sigma and F_p^*; row i of the matrix of u is u(sigma) e_i.

    Elements are coded as field elements are, sum u_k p^k.  In code order,
    a unit joins when the group generated so far misses it; the group is
    a boolean map over the codes, grown by the product maps w -> w u^(2^t)
    until it stops growing.  A non-unit marks its multiples, so each
    maximal ideal costs one product map, at its monic generator.
    """
    N = p ** m
    base = p ** np.arange(m)
    digits = np.arange(N)[:, None] // base % p
    lag = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
    grown = np.zeros(N, dtype=bool)
    grown[(np.arange(1, p)[:, None] * base).ravel()] = True  # c sigma^k
    nonunit = np.zeros(N, dtype=bool)
    gens = []
    for u in range(1, N):
        if grown[u] or nonunit[u]:
            continue
        circulant = digits[u][lag]
        times = digits @ circulant % p @ base  # w -> w u
        if not times[1:].all():
            nonunit[times] = True
            continue
        gens.append(circulant)
        while True:
            image = times[np.flatnonzero(grown)]
            if grown[image].all():
                break
            grown[image] = True
            times = times[times]
    return gens


def _normalizer_generators(field) -> list[np.ndarray]:
    """Digit matrices of F_p-linear maps that, with sigma and F_p^*,
    generate the normalizer of <sigma> in GL(m, p).

    In normal coordinates sigma is the cyclic shift: its centralizer is
    F_p[sigma], whose units are the circulant matrices, and the
    coordinate permutations e_i -> e_(j i), j a unit mod m, conjugate
    sigma to sigma^j.  A map with matrix M in normal coordinates has the
    digit matrix B^(-1) M B.
    """
    p, m = field.p, field.m
    B, inverse = _normal_basis(field)
    mats = _unit_generators(p, m)
    mats += [np.eye(m, dtype=np.int64)[j * np.arange(m) % m]
             for j in range(2, m) if math.gcd(j, m) == 1]
    return [inverse @ M % p @ B % p for M in mats]


def _action(space: SearchSpace, pi: np.ndarray
            ) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The map with exponent permutation pi of Z_n1 on the orbit bits:
    (perm, flip), orbit o going onto orbit perm[o] with its bit flipped
    where flip[o] is set, or None when the map does not keep the space.

    On power-residue classes the map acts on the exponents as they stand.
    On a residue space it is read on Z_v: it needs pi mod v = image(i mod
    v) and pi(i) - i mod 2 = flip(i mod v), each constant on the residue
    classes mod v.  The image of D(X) is then D(X') with X' = {image(r) :
    (r in X) xor flip(r)}, by the parity rule.  Either way the map is used
    only if it carries every orbit onto one orbit with one flip.
    """
    if space.kind == "cyclotomic_unions":
        image, flip = pi, np.zeros(space.n1, dtype=bool)
    else:
        v, i = space.v, np.arange(space.n1)
        image, flip = pi[:v] % v, (pi[:v] - i[:v]) % 2 == 1
        if not (np.array_equal(pi % v, image[i % v])
                and np.array_equal((pi - i) % 2 == 1, flip[i % v])):
            return None
    where = np.empty(space.span, dtype=np.int64)
    where[np.concatenate(space.orbits)] = np.repeat(
        np.arange(len(space.orbits)), [len(o) for o in space.orbits])
    first = np.array([orbit[0] for orbit in space.orbits])
    perm = where[image[first]]
    if (np.array_equal(where[image], perm[where])
            and np.array_equal(flip, flip[first][where])):
        return perm, flip[first]
    return None


def _linear_images(space: SearchSpace):
    """images(mask): every mask that the F_p-linear maps keeping the space,
    and the complement, make of mask, in the space's own orbit bits.

    Every map but the complement is an exponent permutation pi of Z_n1,
    read on the space by `_action`: x -> x^p is i -> p i, x -> g^s x is i
    -> i + s, and a generator L of the normalizer of <sigma> in GL(m, p)
    is `F.linear_map(A)`.  Every space takes i -> p i and the least
    translation that keeps its orbits; a Galois space also takes the
    normalizer generators (`_normalizer_generators`).  Each is an
    automorphism of (F, +), so it keeps the identity's right-hand side;
    the complement, which flips every orbit, keeps it by T' = 2F - T.

    On the orbit bits a map is mask -> perm(mask) xor flip.  The maps
    generate a group, taken whole as (perms, flips) arrays; images(mask)
    gathers the mask's bits through every element at once and packs each
    image into bytes, so nothing wraps at any orbit count.
    """
    n1, n = space.n1, len(space.orbits)
    i = np.arange(n1, dtype=np.int64)
    # a translation carries the orbit of 0, orbits[0], onto the orbit of s
    shifts = (_action(space, (i + s) % n1) for s in sorted(
        x for o in space.orbits if len(o) == len(space.orbits[0]) for x in o)
        if s)
    maps = [_action(space, i * space.p % n1),
            next((g for g in shifts if g is not None), None),
            (np.arange(n), np.ones(n, dtype=bool))]
    if space.kind == "galois_orbits":
        field = get_field(space.p, space.e * space.l)
        maps += [_action(space, field.linear_map(A))
                 for A in _normalizer_generators(field)]
    gens = [g for g in maps if g is not None]

    # the group, grown by composing its newest elements with each
    # generator; (perm, flip) then (P, F) is (P[perm], flip ^ F[perm])
    perms, flips = np.arange(n)[None, :], np.zeros((1, n), dtype=bool)
    seen = {(perms * 2 + flips).astype(np.int32).tobytes()}
    frontier = (perms, flips)
    while len(frontier[0]):
        cand_p = np.concatenate([P[frontier[0]] for P, _ in gens])
        cand_f = np.concatenate([frontier[1] ^ F[frontier[0]]
                                 for _, F in gens])
        keys = {key.tobytes(): r for r, key in
                enumerate((cand_p * 2 + cand_f).astype(np.int32))}
        fresh = [r for k, r in keys.items() if k not in seen]
        seen.update(keys)
        frontier = (cand_p[fresh], cand_f[fresh])
        perms = np.concatenate([perms, frontier[0]])
        flips = np.concatenate([flips, frontier[1]])

    # bit o of image g is bit source[g, o] of the mask, xor toggle[g, o]
    source = np.argsort(perms, axis=1)
    toggle = np.take_along_axis(flips, source, axis=1)
    width = (n + 7) // 8

    def images(mask: int) -> set[int]:
        bits = np.unpackbits(np.frombuffer(mask.to_bytes(width, "little"),
                                           dtype=np.uint8), bitorder="little")
        packed = np.packbits(bits[source] ^ toggle, axis=1,
                             bitorder="little").tobytes()
        return {int.from_bytes(packed[k:k + width], "little")
                for k in range(0, len(packed), width)}

    return images


def _verified_hit(space: SearchSpace, position: int, field,
                  proven: set[int], images) -> tuple[int, ...]:
    """The X at a hit position, proven a scheme before it is recorded.

    A hit whose mask is in `proven` is the image of a proven scheme under
    a map that keeps the identity and costs no product; any other goes
    through the additive identity, and once it passes every image of its
    mask joins `proven`.
    """
    X = _subset_of(space, position)
    mask = _gray(position)
    if mask not in proven:
        rec = build_DX(space.p, space.e, space.l, X, field=field,
                       provenance="search")
        if not verify_additive(rec):
            raise InternalInconsistencyError(
                f"the residue filter emitted X of size {len(X)} that fails "
                "the additive identity; the incremental arithmetic is broken")
        proven.update(images(mask))
    return X


# -- checkpoints -----------------------------------------------------------------


def _atomic_write(path: Path, records: list[dict]) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text("".join(json.dumps(r) + "\n" for r in records))
    os.replace(tmp, path)


def _read_checkpoint(path: Path) -> list[dict]:
    """The records of a checkpoint file, unchecked: the walk checks them."""
    try:
        records = [json.loads(line) for line in path.read_text().splitlines()
                   if line.strip()]
    except json.JSONDecodeError as err:
        raise ParameterError(f"checkpoint line is not JSON: {err}")
    if not all(isinstance(rec, dict) for rec in records):
        raise ParameterError("checkpoint record is not a dict")
    return records


def _check_record(stored: dict, rec: dict, start: int) -> None:
    """Refuse a stored record that is not the one the walk just made."""
    if stored.get("engine") != rec["engine"]:
        raise ParameterError(
            f"checkpoint from engine {stored.get('engine')!r} cannot drive "
            f"engine {rec['engine']!r}")
    if stored.get("residue") != rec["residue"]:
        raise InternalInconsistencyError(
            "checkpoint residue snapshot does not match its position; "
            "the file was not written by a run over this space")
    if stored.get("found") != rec["found"]:
        raise ParameterError(
            f"checkpoint hit list for positions [{start}, {rec['gray_pos']}) "
            "is not what the walk finds there: it claims a hit the walk "
            "does not find, or leaves out hits it finds")


def _coverage_note(space: SearchSpace) -> Optional[str]:
    if space.kind == "cyclotomic_unions":
        return ("only unions of the chosen power-residue classes are "
                "enumerated; schemes outside that lattice are not seen")
    if space.q != 3:
        return ("candidates are restricted to half-point sets D(X); over "
                "base fields other than F_3 skewness does not force that "
                "shape, so invariant schemes outside it are not seen")
    return None


def _run_residue_search(space: SearchSpace, *,
                        checkpoint_dir=None) -> SearchResult:
    contrib = _contributions(space)
    M = _modulus(space)
    B = min(_BLOCK_BITS, len(space.orbits))
    index = _low_tables(contrib, M, B)
    field = get_field(space.p, space.e * space.l)
    total = space.candidates
    path = None
    stored: list[dict] = []
    records: list[dict] = []
    found: list[tuple[int, ...]] = []
    proven: set[int] = set()
    images = _linear_images(space)
    pos = 0
    if checkpoint_dir is not None:
        path = Path(checkpoint_dir) / "search.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            stored = _read_checkpoint(path)
    while pos < total or len(records) < len(stored):
        claim = stored[len(records)] if len(records) < len(stored) else None
        if claim is None:
            upto = min(total, (pos // FLUSH_EVERY + 1) * FLUSH_EVERY)
        else:
            upto = claim.get("gray_pos")
            if not isinstance(upto, int) or not pos < upto <= total:
                raise ParameterError(
                    "checkpoint positions must increase inside the Gray range")
        new = [_verified_hit(space, g, field, proven, images)
               for g in _scan_range(contrib, M, index, B, pos, upto)]
        found.extend(new)
        start, pos = pos, upto
        if path is None:
            continue
        rec = {
            "gray_pos": pos,
            "found": [list(x) for x in new],
            "engine": ENGINE_VERSION,
            "residue": [int(x) for x in _residue_at(contrib, M,
                                                    _gray(pos - 1))],
        }
        records.append(rec)
        if claim is None:
            _atomic_write(path, records)
        else:
            _check_record(claim, rec, start)
    # every hit's mask is in `proven`; every image of a scheme passes the
    # filter, which is a necessary condition, so the two sets are equal
    if len(proven) != len(found):
        raise InternalInconsistencyError(
            f"{len(proven) - len(found)} images of proven schemes were not "
            "emitted by the residue filter; the incremental arithmetic is "
            "broken")
    return SearchResult(space=space, found=tuple(sorted(found)),
                        note=_coverage_note(space))


# -- public sweeps --------------------------------------------------------------


def search_all_X(p: int, e: int, l: int, *,
                 max_orbits: int = DEFAULT_MAX_ORBITS) -> SearchResult:
    """Complete sweep of every X in Z_v; sorted list of the valid ones."""
    return _run_residue_search(
        all_subsets_space(p, e, l, max_orbits=max_orbits))


def search_galois_invariant(p: int, e: int, l: int, *, checkpoint_dir=None,
                            max_orbits: int = DEFAULT_MAX_ORBITS
                            ) -> SearchResult:
    """Complete sweep of the X fixed by i -> p*i, resumable.

    With a checkpoint directory the run can be killed and restarted; a
    restart walks from position 0, checks each record stored in
    `<checkpoint_dir>/search.jsonl` against the walk and continues past
    the last one, so it costs what a fresh run costs and its output is
    identical to an uninterrupted run.
    """
    space = galois_space(p, e, l, max_orbits=max_orbits)
    return _run_residue_search(space, checkpoint_dir=checkpoint_dir)


def search_cyclotomic_unions(p: int, m: int, n_classes: int, *,
                             max_classes: int = DEFAULT_MAX_CLASSES
                             ) -> SearchResult:
    """Test every union of power-residue classes with the additive identity.

    Works for any extension degree, even ones included, because it never
    leaves the field; the price is that only 2^n_classes candidates are
    seen.  Each orbit of unions under the maps x -> c x^(p^k) and the
    complement gets one test, whose verdict every union of the orbit
    shares.  Found entries are the unions' exponent sets.
    """
    space = cyclotomic_space(p, m, n_classes, max_classes=max_classes)
    field = get_field(p, m)
    images = _linear_images(space)
    verdicts: dict[int, bool] = {}
    found = []
    for position in range(space.candidates):
        mask = _gray(position)
        if mask not in verdicts:
            rec = SchemeRecord(field=field, e=1, l=m,
                               D=_subset_of(space, position),
                               provenance="search", verified_by=frozenset())
            verdicts.update(dict.fromkeys(images(mask), verify_additive(rec)))
        if verdicts[mask]:
            found.append(_subset_of(space, position))
    return SearchResult(space=space, found=tuple(sorted(found)),
                        note=_coverage_note(space))
