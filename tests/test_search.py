import itertools
import json

import numpy as np
import pytest

from paleyschemes import search
from paleyschemes.classify import make_configuration, iso_test
from paleyschemes.errors import (BudgetExceededError,
                                 InternalInconsistencyError, ParameterError,
                                 PreconditionError)
from paleyschemes.fields import get_field
from paleyschemes.groupring import CyclicGroup, GroupRingElement
from paleyschemes.schemes import (SchemeRecord, build_DX, certify,
                                  verify_additive)
from paleyschemes.search import (ENGINE_VERSION, SearchSpace, _contributions,
                                 _gray, _low_tables, _modulus, _residue_at,
                                 _scan_range, all_subsets_space,
                                 cyclotomic_space, galois_space,
                                 orbits_under_multiplier, search_all_X,
                                 search_cyclotomic_unions,
                                 search_galois_invariant)
from paleyschemes.singer import singer_bundle

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
    for kwargs in ({}, {"checkpoint_dir": tmp_path, "flush_every": 128}):
        calls.clear()
        assert search_galois_invariant(5, 1, 3, **kwargs).found == want
        assert len(calls) == 1


# -- checkpoints ------------------------------------------------------------------


def read_records(path):
    return [json.loads(ln) for ln in path.read_text().splitlines()]


def test_checkpoint_files_and_resume_after_a_crash(tmp_path):
    full_dir = tmp_path / "full"
    res = search_galois_invariant(5, 1, 3, checkpoint_dir=full_dir,
                                  flush_every=128)
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
        resumed = search_galois_invariant(5, 1, 3, checkpoint_dir=crash_dir,
                                          flush_every=128)
        assert resumed.found == galois_31().found
        assert (crash_dir / "search.jsonl").read_text() == final


def test_finished_checkpoints_short_circuit(tmp_path):
    res = search_galois_invariant(5, 1, 3, checkpoint_dir=tmp_path,
                                  flush_every=512)
    before = (tmp_path / "search.jsonl").read_text()
    again = search_galois_invariant(5, 1, 3, checkpoint_dir=tmp_path,
                                    flush_every=512)
    assert again.found == res.found
    assert (tmp_path / "search.jsonl").read_text() == before


def test_old_shard_files_are_not_read(tmp_path):
    (tmp_path / "shard-0000.jsonl").write_text(json.dumps(
        {"shard": 0, "gray_pos": 2048, "found": [], "engine": "gray-block/1",
         "residue": []}) + "\n")
    res = search_galois_invariant(5, 1, 3, checkpoint_dir=tmp_path,
                                  flush_every=512)
    assert res.found == galois_31().found
    records = read_records(tmp_path / "search.jsonl")
    assert [r["gray_pos"] for r in records] == [512, 1024, 1536, 2048]


def test_tampered_checkpoints_are_refused(tmp_path):
    search_galois_invariant(5, 1, 3, checkpoint_dir=tmp_path,
                            flush_every=256)
    path = tmp_path / "search.jsonl"
    records = read_records(path)

    def rerun_with(bad):
        path.write_text("".join(json.dumps(r) + "\n" for r in bad))
        search_galois_invariant(5, 1, 3, checkpoint_dir=tmp_path,
                                flush_every=256)

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
        "non-hit [0]": edited(0, [[0]] + records[0]["found"]),
        "not an index": edited(first, [["a"]]),
        "not a list": edited(first, [7]),
        "repeated hit": edited(first, [hit] + records[first]["found"]),
        "not an orbit union": edited(first, [wide[:-1]]),
        "outside its range": edited(first + 1,
                                    [hit] + records[first + 1]["found"]),
    }[name]


@pytest.mark.parametrize("name", [
    "repeated record", "non-hit [0]", "not an index", "not a list",
    "repeated hit", "not an orbit union", "outside its range"])
def test_checkpoint_hits_are_checked_again(tmp_path, name):
    search_galois_invariant(5, 1, 3, checkpoint_dir=tmp_path,
                            flush_every=512)
    path = tmp_path / "search.jsonl"
    bad = tampered_hits(read_records(path), name)
    path.write_text("".join(json.dumps(r) + "\n" for r in bad))
    with pytest.raises(ParameterError):
        search_galois_invariant(5, 1, 3, checkpoint_dir=tmp_path,
                                flush_every=512)


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


# -- budgets, metadata, space invariants --------------------------------------------


def test_space_budgets():
    with pytest.raises(BudgetExceededError) as err:
        all_subsets_space(5, 1, 3)
    assert err.value.spent == 31
    with pytest.raises(BudgetExceededError) as err:
        galois_space(3, 1, 7)
    assert err.value.spent == 157
    assert all_subsets_space(5, 1, 3, max_v=31).candidates == 2 ** 31


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
