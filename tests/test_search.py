import hashlib
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from paleyschemes import search
from paleyschemes.classify import canonical_hash, iso_test, make_configuration
from paleyschemes.errors import (BudgetExceededError,
                                 InternalInconsistencyError, ParameterError,
                                 PreconditionError)
from paleyschemes.fields import ZERO, get_field
from paleyschemes.groupring import CyclicGroup, GroupRingElement
from paleyschemes.schemes import (SchemeRecord, build_DX, certify,
                                  recover_X, verify_additive)
from paleyschemes.search import (ENGINE_VERSION, SearchSpace, _contributions,
                                 _gray, _low_tables, _modulus, _residue_at,
                                 _scan_range, all_subsets_space,
                                 cyclotomic_space, galois_space,
                                 orbits_under_multiplier, search_all_X,
                                 search_cyclotomic_unions,
                                 search_galois_invariant)
from paleyschemes.singer import singer_bundle

STRETCH = bool(os.environ.get("PALEY_STRETCH"))
_memo = {}


def galois_31():
    if "g31" not in _memo:
        _memo["g31"] = search_galois_invariant(5, 1, 3)
    return _memo["g31"]


def all_13():
    if "a13" not in _memo:
        _memo["a13"] = search_all_X(3, 1, 3)
    return _memo["a13"]


def gray(n):
    return n ^ (n >> 1)


def subset_at(space, position):
    mask = gray(position)
    return tuple(sorted(x for o, orbit in enumerate(space.orbits)
                        if mask >> o & 1 for x in orbit))


def brute_residue(p, e, l, X):
    # plain group-ring arithmetic, nothing shared with the engine internals
    bundle = singer_bundle(p, e, l)
    Xel = GroupRingElement.from_indices(CyclicGroup(bundle.v), X)
    coeffs = (Xel.power_map(-1) * bundle.weighing_element()).coeffs
    return [int(c) % (p ** e) ** ((l - 1) // 2) for c in coeffs]


# -- orbit structure -------------------------------------------------------------


def test_orbits_of_5_on_31():
    orbits = orbits_under_multiplier(31, 5)
    sizes = sorted(len(o) for o in orbits)
    assert sizes == [1] + [3] * 10
    assert orbits[0] == (0,)
    assert sorted(x for o in orbits for x in o) == list(range(31))
    assert galois_space(5, 1, 3).candidates == 2 ** 11


def test_orbits_of_3_on_121():
    orbits = orbits_under_multiplier(121, 3)
    sizes = sorted(len(o) for o in orbits)
    assert sizes == [1] + [5] * 24
    assert galois_space(3, 1, 5).candidates == 2 ** 25


def test_orbits_are_sorted_and_keyed_by_least_member():
    orbits = orbits_under_multiplier(31, 5)
    for orbit in orbits:
        assert list(orbit) == sorted(orbit)
        assert all(x * 5 % 31 in orbit for x in orbit)
    assert [o[0] for o in orbits] == sorted(o[0] for o in orbits)


def test_multiplier_must_be_a_unit():
    with pytest.raises(ParameterError):
        orbits_under_multiplier(12, 3)


# -- the residue engine against the additive route -------------------------------


def test_engine_verdict_matches_additive_route_on_all_2048():
    space = galois_space(5, 1, 3)
    valid = set()
    for r in range(len(space.orbits) + 1):
        for combo in itertools.combinations(space.orbits, r):
            X = tuple(sorted(x for orbit in combo for x in orbit))
            if verify_additive(build_DX(5, 1, 3, X)):
                valid.add(X)
    assert set(galois_31().found) == valid
    assert len(valid) == 96


def test_all_subsets_sweep_matches_additive_route_on_all_8192():
    valid = {X for r in range(14)
             for c in itertools.combinations(range(13), r)
             if verify_additive(build_DX(3, 1, 3, X := tuple(c)))}
    assert set(all_13().found) == valid
    assert len(valid) == 288


def test_paley_members_always_present():
    assert () in set(galois_31().found)
    assert tuple(range(31)) in set(galois_31().found)
    assert () in set(all_13().found)
    assert tuple(range(13)) in set(all_13().found)


def test_found_lists_are_sorted_and_duplicate_free():
    for res in (galois_31(), all_13()):
        assert list(res.found) == sorted(set(res.found))


def test_output_closures_on_the_13_census():
    found = set(all_13().found)
    full = set(range(13))
    for X in found:
        assert tuple(sorted(full - set(X))) in found
        assert tuple(sorted(3 * x % 13 for x in X)) in found
        # the unit action of the big field shows up as a twisted shift
        assert tuple(sorted((x + 1) % 13 for x in X)) in found
        assert tuple(sorted(full - {(x + 1) % 13 for x in X})) in found


def test_galois_output_is_complement_closed():
    found = set(galois_31().found)
    full = set(range(31))
    assert all(tuple(sorted(full - set(X))) in found for X in found)


def test_lookup_scan_matches_every_position():
    shared = False  # an odd-high block whose hits share one index entry
    for space in (galois_space(5, 1, 3), all_subsets_space(3, 1, 3)):
        n = len(space.orbits)
        assert n in (11, 13)
        contrib, M = _contributions(space), _modulus(space)
        total = space.candidates
        brute = [g for g in range(total)
                 if not _residue_at(contrib, M, _gray(g)).any()]
        for B in (0, 1, 3, 6, n):
            index = _low_tables(contrib, M, B)
            size = 1 << B
            ranges = [(0, total), (5, total - 3)]
            if 0 < B < n:
                # ranges that begin and end inside odd-high blocks
                odd = [(3 * size + size // 2, total - size + size // 2),
                       (size + size // 2, 2 * size - size // 4)]
                for start, stop in odd:
                    assert (start >> B) % 2 == 1 and start % size
                    assert ((stop - 1) >> B) % 2 == 1
                ranges += odd
            for start, stop in ranges:
                assert _scan_range(contrib, M, index, B, start, stop) == \
                    [g for g in brute if start <= g < stop]
            for g, h in zip(brute, brute[1:]):
                if g >> B == h >> B and (g >> B) % 2 == 1:
                    low_g = _residue_at(contrib, M, _gray(g) % size)
                    assert np.array_equal(
                        low_g, _residue_at(contrib, M, _gray(h) % size))
                    assert len(index[low_g.tobytes()]) >= 2
                    shared = True
    assert shared


def test_degenerate_tower_has_two_schemes():
    res = search_all_X(3, 1, 1)
    assert res.found == ((), (0,))


def test_repeated_runs_are_identical():
    again = search_galois_invariant(5, 1, 3)
    assert again.found == galois_31().found
    assert again.space == galois_31().space


def test_one_contributions_call_per_search(monkeypatch, tmp_path):
    want = galois_31().found
    calls = []

    def spy(space):
        calls.append(space)
        return _contributions(space)

    monkeypatch.setattr(search, "_contributions", spy)
    monkeypatch.setattr(search, "FLUSH_EVERY", 128)
    for kwargs in ({}, {"checkpoint_dir": tmp_path}):
        calls.clear()
        assert search_galois_invariant(5, 1, 3, **kwargs).found == want
        assert len(calls) == 1


# -- one additive product per class of hits under the space's maps --------------

# sha256 of the JSON found list; the 5^3 and 7^3 ones are also frozen in
# perfbench/expected.json (classify hits, sweep output)
FOUND_SHA256 = {
    "galois 3^3": "3e84e222606528dcd8e03a3e9138b9be9d4bc6b68c3c27f3e01a8ef95199d3e7",
    "galois 5^3": "4f5f035335183819d3752c7a868171442f436693693e5a2157a78c68ef6d48b6",
    "galois 7^3": "ebab2fd01b2e30d11a5ee164fc487d27e27c65808927d278a7c79844a251015a",
    "all X 3^3": "8f3b6cbcbaeff7a05451f44b1847dc01a64acfc4126ef9c3cf39a81db58a1e43",
    "all X 5^3": "b4fb4b6c2b150a6d454c1beb24a8152a1eaef63bb915530dcb313fff97d25b1e",
    "galois 9^3": "6e350db0be49f6586dbf165482aac80023d901c09b060720a6211eab6819b3df",
}
# run, tower, hits, least and most additive products.  A map keeps the
# isomorphism class, so 7^3 needs at least its 13 classes.
SWEEPS = {
    "galois 3^3": (lambda: search_galois_invariant(3, 1, 3), (3, 1, 3), 12,
                   1, 1),
    "galois 5^3": (lambda: search_galois_invariant(5, 1, 3), (5, 1, 3), 96,
                   4, 4),
    "galois 7^3": (lambda: search_galois_invariant(7, 1, 3), (7, 1, 3), 1520,
                   13, 15),
    "all X 3^3": (lambda: search_all_X(3, 1, 3), (3, 1, 3), 288, 8, 8),
}


def found_sha256(found):
    return hashlib.sha256(json.dumps([list(X) for X in found]).encode()
                          ).hexdigest()


def position_of(mask):
    """Inverse Gray code: the position whose gray() is mask."""
    pos = 0
    while mask:
        pos ^= mask
        mask >>= 1
    return pos


def spy_on_products(monkeypatch):
    checked = []

    def spy(rec):
        checked.append(rec.X)
        return verify_additive(rec)

    monkeypatch.setattr(search, "verify_additive", spy)
    return checked


def scalar_linear_map(F, A):
    """Exponent permutation of x -> sum_k d_k(x) L(x^k), by F.add and F.mul
    one element at a time: d_k(x) is digit k of x, L(x^k) has digits A[k]."""
    p, m = F.p, F.m
    rows = [int(F.powers[sum(int(A[k][j]) * p ** j for j in range(m))])
            for k in range(m)]
    out = []
    for i in range(F.n1):
        acc = ZERO
        for k in range(m):
            d = int(F.codes[i]) // p ** k % p
            if d:
                acc = F.add(acc, F.mul(F.dlog_of_int(d), rows[k]))
        out.append(acc)
    return np.array(out)


def oracle_maps(space, F):
    """Exponent permutations of the maps a sweep may share proofs along:
    x -> x^p, the least translation x -> g^s x that keeps the space and,
    for a Galois space, the normalizer generators; each formed by scalar
    field arithmetic."""
    n1, span = F.n1, (space.n1 if space.kind == "cyclotomic_unions"
                      else space.v)
    maps = [np.array([F.frobenius(i) for i in range(n1)])]
    orbits = {frozenset(o) for o in space.orbits}
    for s in range(1, span):
        if all(frozenset((x + s) % span for x in o) in orbits
               for o in space.orbits):
            maps.append(np.array([F.mul(i, s) for i in range(n1)]))
            break
    if space.kind == "galois_orbits":
        maps += [scalar_linear_map(F, A)
                 for A in search._normalizer_generators(F)]
    return maps


def hit_classes(space, found):
    """Classes of the hits under the oracle maps that carry every hit to a
    hit, and the complement, by union-find over the D of each hit."""
    p, e, l = space.p, space.e, space.l
    F = get_field(p, e * l)
    Ds = [np.array(build_DX(p, e, l, X, field=F).D) for X in found]
    index = {D.tobytes(): k for k, D in enumerate(Ds)}
    parent = list(range(len(found)))

    def root(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    every = np.arange(F.n1)
    for pi in oracle_maps(space, F) + [None]:
        images = [np.setdiff1d(every, D) if pi is None else np.sort(pi[D])
                  for D in Ds]
        targets = [index.get(D.tobytes()) for D in images]
        if None in targets:
            continue  # the map leaves the space
        for k, t in enumerate(targets):
            parent[root(k)] = root(t)
    classes = {}
    for k, X in enumerate(found):
        classes.setdefault(root(k), set()).add(X)
    return list(classes.values())


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_one_product_per_semilinear_class_of_hits(monkeypatch, name):
    """One product per class of hits under the maps the space takes: the
    semilinear maps for all-X, with the normalizer of <sigma> for a Galois
    space.  The classes come from scalar field arithmetic on each D."""
    run, tower, hits, least, most = SWEEPS[name]
    checked = spy_on_products(monkeypatch)
    res = run()
    monkeypatch.undo()
    assert len(res.found) == hits
    assert found_sha256(res.found) == FOUND_SHA256[name]
    assert len(checked) == len(set(checked))
    assert least <= len(checked) <= most
    classes = hit_classes(res.space, res.found)
    assert sorted(len(c & set(checked)) for c in classes) == \
        [1] * len(checked)
    field = get_field(tower[0], tower[1] * tower[2])
    for X in set(res.found) - set(checked):
        assert verify_additive(build_DX(*tower, X, field=field))


def test_9_3_shares_proofs_only_along_f9_maps(monkeypatch):
    """At 9^3 the generators that are not F_9-linear leave the half-point
    family and are skipped; 1 + sigma^2, x -> x + x^9, is kept."""
    space = galois_space(3, 2, 3)
    assert [g is not None for g in search._normalizer_maps(space)] == \
        [True, False, False, False]
    checked = spy_on_products(monkeypatch)
    res = search_galois_invariant(3, 2, 3)
    monkeypatch.undo()
    assert len(res.found) == 408
    assert found_sha256(res.found) == FOUND_SHA256["galois 9^3"]
    assert len(checked) == len(set(checked)) == 70
    classes = hit_classes(space, res.found)
    assert sorted(len(c & set(checked)) for c in classes) == [1] * 70


@pytest.mark.parametrize("tower", [(3, 1, 3), (5, 1, 3), (7, 1, 3),
                                   (3, 1, 5)])
def test_no_normalizer_generator_is_skipped_over_a_prime_field(tower):
    """Over F_p every F_p-linear map keeps the cosets of F_p^*, and its
    parity flip is constant on each, so every generator is used."""
    maps = search._normalizer_maps(galois_space(*tower))
    assert maps and all(g is not None for g in maps)


def test_normalizer_generators_normalize_frobenius():
    """Each generator L has L sigma L^(-1) a power of sigma, and the
    first is a unit of F_p[sigma] outside <sigma> F_p^*."""
    for p, m in ((3, 3), (5, 3), (7, 3), (3, 5), (3, 6)):
        F = get_field(p, m)
        sigma = np.array([F.frobenius(i) for i in range(F.n1)])
        for A in search._normalizer_generators(F):
            L = F.linear_map(A)
            inverse = np.empty_like(L)
            inverse[L] = np.arange(F.n1)
            conj = L[sigma[inverse]]
            assert any(np.array_equal(conj, p ** j * np.arange(F.n1) % F.n1)
                       for j in range(m))
            assert np.array_equal(L, scalar_linear_map(F, A))


def test_a_generator_with_a_wrong_flip_is_caught(monkeypatch):
    real = search._normalizer_maps

    def broken(space):
        maps = real(space)
        image, flip = maps[0]
        flip = flip.copy()
        flip[0] ^= True  # {0} is an orbit of its own
        return [(image, flip)] + maps[1:]

    monkeypatch.setattr(search, "_normalizer_maps", broken)
    with pytest.raises(InternalInconsistencyError, match="not emitted"):
        search_galois_invariant(7, 1, 3)


@pytest.mark.skipif(not STRETCH, reason="enable with PALEY_STRETCH=1")
def test_stretch_all_X_census_at_5_3(monkeypatch):
    checked = spy_on_products(monkeypatch)
    start = time.perf_counter()
    res = search_all_X(5, 1, 3, max_orbits=31)
    print(f"search_all_X(5, 1, 3, max_orbits=31): "
          f"{time.perf_counter() - start:.2f} s")
    assert len(res.found) == 94800
    assert len(checked) == len(set(checked)) == 542
    assert found_sha256(res.found) == FOUND_SHA256["all X 5^3"]


def semilinear_orbit(S, p, m, span):
    """Every image of an index set under i -> p^k i + s mod span and the
    complement: x -> c x^(p^k) on exponents in Z_n1, or on X in Z_v."""
    every = set(range(span))
    out = set()
    for k in range(m):
        scaled = [x * p ** k for x in S]
        for s in range(span):
            image = {(x + s) % span for x in scaled}
            out.add(tuple(sorted(image)))
            out.add(tuple(sorted(every - image)))
    return out


def linear_orbit(space, X):
    """Every X' with D(X') the image of D(X) under the group of the oracle
    maps and the complement, by scalar field arithmetic on D."""
    p, e, l = space.p, space.e, space.l
    F = get_field(p, e * l)
    maps = oracle_maps(space, F)
    every = np.arange(F.n1)
    seen, todo = {X}, [X]
    while todo:
        D = np.array(build_DX(p, e, l, todo.pop(), field=F).D)
        for image in [np.sort(pi[D]) for pi in maps] + [
                np.setdiff1d(every, D)]:
            rec = SchemeRecord(field=F, e=e, l=l, D=tuple(image.tolist()),
                               provenance="manual", verified_by=frozenset())
            Y = recover_X(rec)
            if Y not in seen:
                seen.add(Y)
                todo.append(Y)
    return seen


@pytest.mark.parametrize("space", [
    all_subsets_space(3, 1, 5, max_orbits=121), galois_space(7, 1, 3),
    galois_space(3, 1, 5), cyclotomic_space(3, 4, 16)],
    ids=["all X 3^5", "galois 7^3", "galois 3^5", "cyclotomic 81/16"])
def test_semilinear_images_are_the_field_maps_that_keep_the_space(space):
    """images(mask) is the orbit of mask under the maps the space takes:
    the semilinear maps and the complement, which on all-X and cyclotomic
    spaces act on the index sets directly; on a Galois space also the
    normalizer of <sigma>, applied to D by scalar field arithmetic."""
    span = space.n1 if space.kind == "cyclotomic_unions" else space.v
    n = len(space.orbits)
    where = {x: o for o, orbit in enumerate(space.orbits) for x in orbit}
    images = search._linear_images(space)
    rng = np.random.default_rng(24)
    masks = [0, (1 << n) - 1] + [
        int("".join(map(str, rng.integers(0, 2, n))), 2) for _ in range(6)]
    for mask in masks:
        S = tuple(sorted(x for o, orbit in enumerate(space.orbits)
                         if mask >> o & 1 for x in orbit))
        if space.kind == "galois_orbits":
            orbit = linear_orbit(space, S)
        else:
            orbit = semilinear_orbit(S, space.p, space.e * space.l, span)
        want = set()
        for T in orbit:
            bits = {where[x] for x in T}
            if sum(len(space.orbits[o]) for o in bits) == len(T):
                want.add(sum(1 << o for o in bits))
        assert images(mask) == want


def test_complementary_unions_share_one_test(monkeypatch):
    calls = []

    def spy(rec):
        calls.append(rec.D)
        return verify_additive(rec)

    monkeypatch.setattr(search, "verify_additive", spy)
    for p, m, n in ((7, 2, 4), (3, 2, 4), (7, 2, 8)):
        calls.clear()
        res = search_cyclotomic_unions(p, m, n)
        n1 = res.space.n1
        unions = [subset_at(res.space, g) for g in range(res.space.candidates)]
        orbits = {min(semilinear_orbit(D, p, m, n1)) for D in unions}
        assert len(calls) == len(set(calls)) == len(orbits)
        for D in calls:
            assert set(calls) & semilinear_orbit(D, p, m, n1) == {D}
        field = get_field(p, m)
        assert set(res.found) == {D for D in unions if verify_additive(
            SchemeRecord(field=field, e=1, l=m, D=D, provenance="search",
                         verified_by=frozenset()))}


@pytest.mark.parametrize("which", [0, -1])
def test_a_filter_that_drops_a_hit_is_caught(monkeypatch, which):
    real = search._scan_range
    emitted = []

    def recording(*args):
        hits = real(*args)
        emitted.extend(hits)
        return hits

    monkeypatch.setattr(search, "_scan_range", recording)
    assert len(search_galois_invariant(7, 1, 3).found) == len(emitted) == 1520
    dropped = emitted[which]

    def broken(*args):
        return [g for g in real(*args) if g != dropped]

    monkeypatch.setattr(search, "_scan_range", broken)
    with pytest.raises(InternalInconsistencyError, match="not emitted"):
        search_galois_invariant(7, 1, 3)


@pytest.mark.parametrize("with_complement", [False, True])
def test_a_filter_that_emits_a_non_hit_still_raises(monkeypatch,
                                                    with_complement):
    space = galois_space(5, 1, 3)
    found = set(galois_31().found)
    full = space.candidates - 1
    # a non-hit whose complement comes first in the walk
    bad = next(g for g in range(space.candidates)
               if subset_at(space, g) not in found
               and position_of(gray(g) ^ full) < g)
    extra = {bad}
    if with_complement:
        extra.add(position_of(gray(bad) ^ full))
    assert all(subset_at(space, g) not in found for g in extra)
    real = search._scan_range

    def broken(contrib, M, index, B, start, stop):
        hits = real(contrib, M, index, B, start, stop)
        return sorted(set(hits) | {g for g in extra if start <= g < stop})

    monkeypatch.setattr(search, "_scan_range", broken)
    with pytest.raises(InternalInconsistencyError, match="additive identity"):
        search_galois_invariant(5, 1, 3)


# -- checkpoints ------------------------------------------------------------------


def read_records(path):
    return [json.loads(ln) for ln in path.read_text().splitlines()]


def test_checkpoint_files_and_resume_after_a_crash(monkeypatch, tmp_path):
    monkeypatch.setattr(search, "FLUSH_EVERY", 128)
    full_dir = tmp_path / "full"
    res = search_galois_invariant(5, 1, 3, checkpoint_dir=full_dir)
    assert res.found == galois_31().found
    assert sorted(p.name for p in full_dir.iterdir()) == ["search.jsonl"]
    records = read_records(full_dir / "search.jsonl")
    assert all(set(r) == {"gray_pos", "found", "engine", "residue"}
               for r in records)
    assert all(r["engine"] == ENGINE_VERSION for r in records)
    assert [r["gray_pos"] for r in records] == list(range(128, 2049, 128))
    assert sorted(tuple(X) for r in records for X in r["found"]) == \
        list(res.found)
    space = galois_space(5, 1, 3)
    for r in records:
        X = subset_at(space, r["gray_pos"] - 1)
        assert r["residue"] == brute_residue(5, 1, 3, X)

    final = (full_dir / "search.jsonl").read_text()
    lines = final.splitlines(keepends=True)
    for keep in (0, 1, 7, len(lines) - 1):
        crash_dir = tmp_path / f"crash-{keep}"
        crash_dir.mkdir()
        (crash_dir / "search.jsonl").write_text("".join(lines[:keep]))
        # a write that died between the temp file and the rename
        (crash_dir / "search.tmp").write_text(
            "".join(lines[:keep + 1])[:-9])
        resumed = search_galois_invariant(5, 1, 3, checkpoint_dir=crash_dir)
        assert resumed.found == galois_31().found
        assert (crash_dir / "search.jsonl").read_text() == final


# A child search that SIGKILLs itself on its n-th checkpoint write: after
# the write ("after") or between the temp file and the rename ("inside").
_KILLED_CHILD = """
import os, signal, sys
from paleyschemes import search

n, where, ckdir = int(sys.argv[1]), sys.argv[2], sys.argv[3]
search.FLUSH_EVERY = 128
writes = 0
real_write, real_replace = search._atomic_write, os.replace


def die():
    os.kill(os.getpid(), signal.SIGKILL)


def replace(src, dst):
    if where == "inside" and writes == n:
        die()
    real_replace(src, dst)


def write(path, records):
    global writes
    writes += 1
    real_write(path, records)
    if where == "after" and writes == n:
        die()


os.replace = replace
search._atomic_write = write
search.search_galois_invariant(5, 1, 3, checkpoint_dir=ckdir)
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
@pytest.mark.parametrize("n, where", [(1, "after"), (5, "after"),
                                      (1, "inside"), (9, "inside")])
def test_checkpoints_survive_a_kill(monkeypatch, tmp_path, n, where):
    monkeypatch.setattr(search, "FLUSH_EVERY", 128)
    search_galois_invariant(5, 1, 3, checkpoint_dir=tmp_path / "full")
    final = (tmp_path / "full" / "search.jsonl").read_text()
    ckdir = tmp_path / "killed"
    src = str(Path(search.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    child = subprocess.run(
        [sys.executable, "-c", _KILLED_CHILD, str(n), where, str(ckdir)],
        env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == -signal.SIGKILL, child.stderr
    path, tmp = ckdir / "search.jsonl", ckdir / "search.tmp"
    lines = final.splitlines(keepends=True)
    kept = n if where == "after" else n - 1
    assert (path.read_text() if path.exists() else "") == \
        "".join(lines[:kept])
    if where == "inside":
        assert tmp.read_text() == "".join(lines[:n])
    else:
        assert not tmp.exists()
    resumed = search_galois_invariant(5, 1, 3, checkpoint_dir=ckdir)
    assert resumed.found == galois_31().found
    assert path.read_text() == final


def test_finished_checkpoints_short_circuit(monkeypatch, tmp_path):
    monkeypatch.setattr(search, "FLUSH_EVERY", 512)
    res = search_galois_invariant(5, 1, 3, checkpoint_dir=tmp_path)
    before = (tmp_path / "search.jsonl").read_text()
    again = search_galois_invariant(5, 1, 3, checkpoint_dir=tmp_path)
    assert again.found == res.found
    assert (tmp_path / "search.jsonl").read_text() == before


def test_resume_at_another_flush_interval(monkeypatch, tmp_path):
    monkeypatch.setattr(search, "FLUSH_EVERY", 128)
    search_galois_invariant(5, 1, 3, checkpoint_dir=tmp_path)
    path = tmp_path / "search.jsonl"
    head = path.read_text().splitlines(keepends=True)[:3]
    path.write_text("".join(head))
    monkeypatch.setattr(search, "FLUSH_EVERY", 512)
    resumed = search_galois_invariant(5, 1, 3, checkpoint_dir=tmp_path)
    assert resumed.found == galois_31().found
    lines = path.read_text().splitlines(keepends=True)
    assert lines[:3] == head
    assert [json.loads(ln)["gray_pos"] for ln in lines] == \
        [128, 256, 384, 512, 1024, 1536, 2048]


def test_old_shard_files_are_not_read(monkeypatch, tmp_path):
    monkeypatch.setattr(search, "FLUSH_EVERY", 512)
    (tmp_path / "shard-0000.jsonl").write_text(json.dumps(
        {"shard": 0, "gray_pos": 2048, "found": [], "engine": "gray-block/1",
         "residue": []}) + "\n")
    res = search_galois_invariant(5, 1, 3, checkpoint_dir=tmp_path)
    assert res.found == galois_31().found
    records = read_records(tmp_path / "search.jsonl")
    assert [r["gray_pos"] for r in records] == [512, 1024, 1536, 2048]


def test_tampered_checkpoints_are_refused(monkeypatch, tmp_path):
    monkeypatch.setattr(search, "FLUSH_EVERY", 256)
    search_galois_invariant(5, 1, 3, checkpoint_dir=tmp_path)
    path = tmp_path / "search.jsonl"
    records = read_records(path)

    def rerun_with(bad):
        path.write_text("".join(json.dumps(r) + "\n" for r in bad))
        search_galois_invariant(5, 1, 3, checkpoint_dir=tmp_path)

    bad = [dict(r) for r in records]
    bad[0]["residue"] = list(bad[0]["residue"])
    bad[0]["residue"][0] = (bad[0]["residue"][0] + 1) % 5
    with pytest.raises(InternalInconsistencyError):
        rerun_with(bad)

    for field, value in (("engine", "gray-block/1"), ("gray_pos", 4096),
                         ("gray_pos", 0), ("gray_pos", "256")):
        bad = [dict(r) for r in records]
        bad[0][field] = value
        with pytest.raises(ParameterError):
            rerun_with(bad)


def tampered_hits(records, name):
    """A checkpoint whose hit lists claim more than the walk found."""
    first = next(i for i, r in enumerate(records) if r["found"])
    hit = records[first]["found"][0]
    wide = next(X for X in records[first]["found"] if len(X) > 1)

    def edited(i, found):
        bad = [dict(r) for r in records]
        bad[i]["found"] = found
        return bad

    return {
        "repeated record": records[:first + 1] + records[first:],
        "repeated last record": records + records[-1:],
        "non-hit [0]": edited(0, [[0]] + records[0]["found"]),
        "not an index": edited(first, [["a"]]),
        "not a list": edited(first, [7]),
        "repeated hit": edited(first, [hit] + records[first]["found"]),
        "not an orbit union": edited(first, [wide[:-1]]),
        "outside its range": edited(first + 1,
                                    [hit] + records[first + 1]["found"]),
    }[name]


@pytest.mark.parametrize("name", [
    "repeated record", "repeated last record", "non-hit [0]", "not an index", "not a list",
    "repeated hit", "not an orbit union", "outside its range"])
def test_checkpoint_hits_are_checked_again(monkeypatch, tmp_path, name):
    monkeypatch.setattr(search, "FLUSH_EVERY", 512)
    search_galois_invariant(5, 1, 3, checkpoint_dir=tmp_path)
    path = tmp_path / "search.jsonl"
    bad = tampered_hits(read_records(path), name)
    text = "".join(json.dumps(r) + "\n" for r in bad)
    path.write_text(text)
    with pytest.raises(ParameterError):
        search_galois_invariant(5, 1, 3, checkpoint_dir=tmp_path)
    assert path.read_text() == text


def test_checkpoint_records_that_leave_out_hits_are_refused(monkeypatch,
                                                            tmp_path):
    monkeypatch.setattr(search, "FLUSH_EVERY", 512)
    # every hit a record keeps is a true hit, but the record is short
    search_galois_invariant(5, 1, 3, checkpoint_dir=tmp_path)
    path = tmp_path / "search.jsonl"
    records = read_records(path)
    first = next(i for i, r in enumerate(records) if r["found"])
    hits = records[first]["found"]
    for found in (hits[1:], hits[:-1], []):
        bad = [dict(r) for r in records]
        bad[first]["found"] = found
        path.write_text("".join(json.dumps(r) + "\n" for r in bad))
        with pytest.raises(ParameterError, match="leaves out hits"):
            search_galois_invariant(5, 1, 3, checkpoint_dir=tmp_path)


# -- cyclotomic unions -------------------------------------------------------------


def union_scheme_49(D):
    rec = SchemeRecord(field=get_field(7, 2), e=1, l=2, D=D,
                       provenance="search", verified_by=frozenset())
    return certify(rec, ("additive",))


def test_unions_in_49_rediscover_paley_and_one_more():
    res = search_cyclotomic_unions(7, 2, 4)
    assert len(res.found) == 6
    assert all(len(D) == 24 for D in res.found)
    assert tuple(range(0, 48, 2)) in res.found
    paley = make_configuration(union_scheme_49(tuple(range(0, 48, 2))))
    flags = [iso_test(make_configuration(union_scheme_49(D)), paley)
             for D in res.found]
    assert flags.count(True) == 2
    others = [make_configuration(union_scheme_49(D))
              for D, f in zip(res.found, flags) if not f]
    assert all(iso_test(c, others[0]) for c in others[1:])


def test_unions_in_9_are_all_paley():
    res = search_cyclotomic_unions(3, 2, 4)
    assert len(res.found) == 6
    assert all(len(D) == 4 for D in res.found)
    F9 = get_field(3, 2)
    paley = make_configuration(certify(SchemeRecord(
        field=F9, e=1, l=2, D=tuple(range(0, 8, 2)),
        provenance="paley", verified_by=frozenset()), ("additive",)))
    for D in res.found:
        rec = certify(SchemeRecord(field=F9, e=1, l=2, D=D,
                                   provenance="search",
                                   verified_by=frozenset()), ("additive",))
        assert iso_test(make_configuration(rec), paley)


def test_full_and_empty_unions_are_never_valid():
    for res in (search_cyclotomic_unions(7, 2, 4),
                search_cyclotomic_unions(3, 2, 4)):
        assert () not in res.found
        assert tuple(range(res.space.n1)) not in res.found


def test_cyclotomic_parameter_checks():
    with pytest.raises(ParameterError):
        cyclotomic_space(7, 2, 5)     # 5 does not divide 48
    with pytest.raises(PreconditionError):
        cyclotomic_space(7, 2, 3)     # odd class count
    with pytest.raises(BudgetExceededError):
        cyclotomic_space(7, 2, 24, max_classes=16)


def test_spaces_refuse_without_building_a_field(monkeypatch):
    def build(p, m):
        raise AssertionError(f"F_{p}^{m} was built")

    monkeypatch.setattr(search, "get_field", build)
    for args, error, message in (
            ((3, 15, 26), BudgetExceededError, "sweep budget"),
            ((3, 14, 5), ParameterError, "does not divide"),
            ((7, 2, 3), PreconditionError, "odd class count"),
            ((4, 2, 4), ParameterError, "not an odd prime"),
            ((3, 16, 2), ParameterError, "exceeds the cap")):
        with pytest.raises(error, match=message):
            cyclotomic_space(*args)
    with pytest.raises(ParameterError, match="not an odd prime"):
        galois_space(9, 1, 3)
    with pytest.raises(ParameterError, match="not an odd prime"):
        all_subsets_space(2, 1, 3)


# -- budgets, metadata, space invariants --------------------------------------------


def test_space_budgets():
    with pytest.raises(BudgetExceededError) as err:
        all_subsets_space(5, 1, 3)
    assert err.value.spent == 31
    with pytest.raises(BudgetExceededError) as err:
        galois_space(3, 1, 7)
    assert err.value.spent == 157
    assert all_subsets_space(5, 1, 3, max_orbits=31).candidates == 2 ** 31


def test_an_over_budget_galois_space_is_refused_before_the_orbit_walk(
        monkeypatch):
    def walk(v, t):
        raise AssertionError("the orbit walk ran")

    monkeypatch.setattr(search, "orbits_under_multiplier", walk)
    # v = 7174453 and no orbit but {0} has more than 15 members
    with pytest.raises(BudgetExceededError, match="at least") as err:
        galois_space(3, 1, 15)
    assert err.value.spent == 1 + -(-7174452 // 15)


def test_even_degree_is_rejected():
    with pytest.raises(PreconditionError):
        all_subsets_space(3, 1, 2)
    with pytest.raises(PreconditionError):
        galois_space(3, 1, 2)


def test_space_invariants():
    with pytest.raises(ParameterError):
        SearchSpace("sideways", 3, 1, 3, ((0,),))
    with pytest.raises(ParameterError):
        SearchSpace("all_X", 3, 1, 3, tuple((i,) for i in range(12)))
    space = galois_space(5, 1, 3)
    assert space.candidates == 2 ** len(space.orbits)


def test_coverage_metadata():
    assert all_13().complete and all_13().note is None
    assert not galois_31().complete
    assert "half-point" in galois_31().note
    unions = search_cyclotomic_unions(3, 2, 4)
    assert not unions.complete and "classes" in unions.note


def test_result_json_shape():
    data = galois_31().to_json()
    assert data["kind"] == "galois_orbits"
    assert data["tower"] == [5, 1, 3]
    assert data["orbit_count"] == 11
    assert data["candidates"] == 2048
    assert data["complete"] is False
    assert data["found"] == [list(x) for x in galois_31().found]
    assert "note" in data
