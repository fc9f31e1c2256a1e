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
add.  Candidates with r = 0 are re-verified through the additive
identity before being recorded; a disagreement there means the residue
arithmetic is broken and raises instead of being swallowed.  For speed
the walk is split in the middle: the low B orbits are indexed once by
the residue of each of their 2^B patterns, and a block of 2^B positions
sharing the high orbits vanishes exactly where the low residue equals
-r_high mod M, so each block costs one exact dictionary probe while
the hits keep the order of the plain walk.

`search_cyclotomic_unions` is different: it works in the field proper,
testing every union of power-residue classes with the additive
identity directly, so it also covers even extension degrees.

A residue search is one walk over the Gray range [0, 2^orbits).  Every
`flush_every` positions it flushes its progress, with the residue
snapshot at that position, to one JSON-lines checkpoint file
`<checkpoint_dir>/search.jsonl` through a temp-file-and-rename write,
and resuming from whatever survived a kill reproduces the uninterrupted
output.  The file is read as a claim: a resumed run checks every
position, residue snapshot and stored hit again before using it.
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
from .fields import get_field
from .groupring import CyclicGroup, GroupRingElement
from .schemes import SchemeRecord, build_DX, verify_additive
from .singer import singer_bundle

ENGINE_VERSION = "gray-block/2"
DEFAULT_MAX_V = 16
DEFAULT_MAX_ORBITS = 26
DEFAULT_MAX_CLASSES = 16
DEFAULT_FLUSH_EVERY = 1 << 20
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
        span = self.v if self.kind != "cyclotomic_unions" else self.n1
        if flat != list(range(span)):
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
                      max_v: int = DEFAULT_MAX_V) -> SearchSpace:
    """Every subset of Z_v as its own candidate (2^v of them)."""
    _check_tower(p, e, l)
    q = p ** e
    v = (q ** l - 1) // (q - 1)
    if v > max_v:
        raise BudgetExceededError(
            f"2^{v} subsets of Z_{v} exceed the sweep budget (v <= {max_v})",
            spent=v)
    return SearchSpace("all_X", p, e, l, tuple((i,) for i in range(v)))


def galois_space(p: int, e: int, l: int, *,
                 max_orbits: int = DEFAULT_MAX_ORBITS) -> SearchSpace:
    """Subsets of Z_v fixed by i -> p*i, one bit per multiplier orbit."""
    _check_tower(p, e, l)
    q = p ** e
    v = (q ** l - 1) // (q - 1)
    orbits = orbits_under_multiplier(v, p)
    if len(orbits) > max_orbits:
        raise BudgetExceededError(
            f"{len(orbits)} multiplier orbits exceed the sweep budget "
            f"(<= {max_orbits})", spent=len(orbits))
    return SearchSpace("galois_orbits", p, e, l, orbits)


def cyclotomic_space(p: int, m: int, n_classes: int, *,
                     max_classes: int = DEFAULT_MAX_CLASSES) -> SearchSpace:
    """Unions of the n-th power classes C_j = {g^i : i = j mod n} in F_{p^m}."""
    get_field(p, m)
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
    get_field(p, 1)
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


def _verified_hit(space: SearchSpace, position: int, field) -> tuple[int, ...]:
    X = _subset_of(space, position)
    rec = build_DX(space.p, space.e, space.l, X, field=field,
                   provenance="search")
    if not verify_additive(rec):
        raise InternalInconsistencyError(
            f"the residue filter emitted X of size {len(X)} that fails the "
            "additive identity; the incremental arithmetic is broken")
    return X


# -- checkpoints -----------------------------------------------------------------


def _atomic_write(path: Path, records: list[dict]) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text("".join(json.dumps(r) + "\n" for r in records))
    os.replace(tmp, path)


def _gray_position(code: int) -> int:
    """The Gray position whose code is `code`: the inverse of _gray."""
    n = 0
    while code:
        n ^= code
        code >>= 1
    return n


def _load_checkpoint(path: Path, space: SearchSpace, contrib: np.ndarray,
                     M: int, field) -> tuple[list[dict], int, list]:
    """The records, position and hits of a checkpoint, every claim checked.

    Positions must increase strictly and each carries the residue
    snapshot of the walk there. A stored X must be a union of orbits
    whose Gray position lies in its record's range, after the X before
    it, with a vanishing residue; it is then verified again like a fresh
    hit. A malformed record raises ParameterError.
    """
    orbit_of = {x: o for o, orbit in enumerate(space.orbits) for x in orbit}
    records: list[dict] = []
    found: list[tuple[int, ...]] = []
    pos = 0
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            recd = json.loads(line)
        except json.JSONDecodeError as err:
            raise ParameterError(f"checkpoint line is not JSON: {err}")
        if not isinstance(recd, dict) or not isinstance(recd.get("found"),
                                                        list):
            raise ParameterError("checkpoint record is not a dict of hits")
        if recd.get("engine") != ENGINE_VERSION:
            raise ParameterError(
                f"checkpoint from engine {recd.get('engine')!r} cannot drive "
                f"engine {ENGINE_VERSION!r}")
        start, pos = pos, recd.get("gray_pos")
        if not isinstance(pos, int) or not start < pos <= space.candidates:
            raise ParameterError(
                "checkpoint positions must increase inside the Gray range")
        expect = _residue_at(contrib, M, _gray(pos - 1))
        if [int(x) for x in expect] != list(recd.get("residue", [])):
            raise InternalInconsistencyError(
                "checkpoint residue snapshot does not match its position; "
                "the file was not written by a run over this space")
        for X in recd["found"]:
            if not isinstance(X, list) or any(
                    type(x) is not int or x not in orbit_of for x in X):
                raise ParameterError(
                    f"checkpoint hit {X!r} is not a list of indices")
            g = _gray_position(sum(1 << o for o in {orbit_of[x] for x in X}))
            if (not start <= g < pos or _subset_of(space, g) != tuple(X)
                    or _residue_at(contrib, M, _gray(g)).any()):
                raise ParameterError(
                    f"checkpoint hit {X!r} is not a hit of positions "
                    f"[{start}, {pos}) after the hits before it")
            found.append(_verified_hit(space, g, field))
            start = g + 1
        records.append(recd)
    return records, pos, found


def _coverage_note(space: SearchSpace) -> Optional[str]:
    if space.kind == "cyclotomic_unions":
        return ("only unions of the chosen power-residue classes are "
                "enumerated; schemes outside that lattice are not seen")
    if space.q != 3:
        return ("candidates are restricted to half-point sets D(X); over "
                "base fields other than F_3 skewness does not force that "
                "shape, so invariant schemes outside it are not seen")
    return None


def _run_residue_search(space: SearchSpace, *, checkpoint_dir=None,
                        flush_every: int = DEFAULT_FLUSH_EVERY) -> SearchResult:
    if flush_every < 1:
        raise ParameterError("flush interval must be positive")
    contrib = _contributions(space)
    M = _modulus(space)
    B = min(_BLOCK_BITS, len(space.orbits))
    index = _low_tables(contrib, M, B)
    field = get_field(space.p, space.e * space.l)
    total = space.candidates
    path = None
    records: list[dict] = []
    found: list[tuple[int, ...]] = []
    pos = 0
    if checkpoint_dir is not None:
        path = Path(checkpoint_dir) / "search.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            records, pos, found = _load_checkpoint(path, space, contrib, M,
                                                   field)
    while pos < total:
        upto = min(total, (pos // flush_every + 1) * flush_every)
        new = [_verified_hit(space, g, field)
               for g in _scan_range(contrib, M, index, B, pos, upto)]
        found.extend(new)
        pos = upto
        if path is not None:
            records.append({
                "gray_pos": pos,
                "found": [list(x) for x in new],
                "engine": ENGINE_VERSION,
                "residue": [int(x) for x in _residue_at(contrib, M,
                                                        _gray(pos - 1))],
            })
            _atomic_write(path, records)
    return SearchResult(space=space, found=tuple(sorted(found)),
                        note=_coverage_note(space))


# -- public sweeps --------------------------------------------------------------


def search_all_X(p: int, e: int, l: int, *,
                 max_v: int = DEFAULT_MAX_V) -> SearchResult:
    """Complete sweep of every X in Z_v; sorted list of the valid ones."""
    return _run_residue_search(all_subsets_space(p, e, l, max_v=max_v))


def search_galois_invariant(p: int, e: int, l: int, *, checkpoint_dir=None,
                            flush_every: int = DEFAULT_FLUSH_EVERY,
                            max_orbits: int = DEFAULT_MAX_ORBITS
                            ) -> SearchResult:
    """Complete sweep of the X fixed by i -> p*i, resumable.

    With a checkpoint directory the run can be killed and restarted; a
    restart picks up the walk at its last flushed position in
    `<checkpoint_dir>/search.jsonl` and the final output is identical
    to an uninterrupted run.
    """
    space = galois_space(p, e, l, max_orbits=max_orbits)
    return _run_residue_search(space, checkpoint_dir=checkpoint_dir,
                               flush_every=flush_every)


def search_cyclotomic_unions(p: int, m: int, n_classes: int, *,
                             max_classes: int = DEFAULT_MAX_CLASSES
                             ) -> SearchResult:
    """Test every union of power-residue classes with the additive identity.

    Works for any extension degree, even ones included, because it never
    leaves the field; the price is that only 2^n_classes candidates are
    seen.  Found entries are the unions' exponent sets.
    """
    space = cyclotomic_space(p, m, n_classes, max_classes=max_classes)
    field = get_field(p, m)
    found = []
    for position in range(space.candidates):
        D = _subset_of(space, position)
        rec = SchemeRecord(field=field, e=1, l=m, D=D,
                           provenance="search", verified_by=frozenset())
        if verify_additive(rec):
            found.append(D)
    return SearchResult(space=space, found=tuple(sorted(found)),
                        note=_coverage_note(space))
