import itertools
import os
import resource
import time
from dataclasses import replace

import numpy as np
import pytest

from paleyschemes import ntt, schemes
from paleyschemes.errors import (InternalInconsistencyError, ParameterError,
                                 PreconditionError, VerificationFailedError)
from paleyschemes.fields import FiniteField, get_field
from paleyschemes.groupring import CyclicGroup, GroupRingElement
from paleyschemes.schemes import (METHODS, SchemeRecord, build_DX, certify,
                                  complement_units, dual_scheme, frobenius,
                                  is_half_point, negate, recover_X,
                                  route_verdicts, scale, verify_additive,
                                  verify_dual, verify_multiplicative,
                                  verify_quotient, verify_scheme)
from paleyschemes.singer import build_singer_bundle, singer_bundle

STRETCH = bool(os.environ.get("PALEY_STRETCH"))


def brute_eq1(rec):
    """Difference-count oracle, no group-ring convolution involved."""
    F = rec.field
    n1 = rec.n1
    D = list(rec.D)
    if len(D) != n1 // 2:
        return False
    counts = {}
    for a in D:
        for b in D:
            d = F.sub(a, b)
            counts[d] = counts.get(d, 0) + 1
    inD = set(D)
    for g in range(n1):
        n = counts.get(g, 0)
        lhs = 4 * n + 2 * (g in inD) + 2 * (F.neg(g) in inD)
        if lhs != n1:
            return False
    return True


def exps_of_values(F, values):
    """Map prime-field element values to discrete-log exponents."""
    return tuple(sorted(F.dlog_of_int(val) for val in values))


def test_quadratic_residues_of_f7_verify():
    F = get_field(7, 1)
    D = exps_of_values(F, [1, 2, 4])
    rec = SchemeRecord(field=F, e=1, l=1, D=D,
                       provenance="paley", verified_by=frozenset())
    assert D == (0, 2, 4)  # squares are the even powers of g = 5
    assert verify_additive(rec)
    bad = SchemeRecord(field=F, e=1, l=1, D=exps_of_values(F, [1, 2, 3]),
                       provenance="manual", verified_by=frozenset())
    assert not verify_additive(bad)


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2),
                                 (13, 1), (3, 3), (5, 2), (19, 1)])
def test_paley_schemes_verify(p, m):
    rec = build_DX(p, 1, m, range((p ** m - 1) // (p - 1))) if m % 2 else None
    if rec is None:  # even degree: build S directly
        F = get_field(p, m)
        rec = SchemeRecord(field=F, e=1, l=m, D=tuple(range(0, F.n1, 2)),
                           provenance="paley",
                           verified_by=frozenset())
    assert verify_additive(rec)


def test_full_and_empty_X_give_squares_and_nonsquares():
    rec = build_DX(3, 1, 3, range(13))
    assert rec.D == tuple(range(0, 26, 2))
    rec = build_DX(3, 1, 3, [])
    assert rec.D == tuple(range(1, 26, 2))
    assert len(build_DX(3, 1, 3, singer_bundle(3, 1, 3).S).D) == 13


def test_additive_route_matches_bruteforce_oracle():
    rng = np.random.default_rng(7)
    towers = [(3, 1, 3), (5, 1, 2), (7, 1, 1)]
    for p, e, l in towers:
        v = (p ** (e * l) - 1) // (p ** e - 1)
        for _ in range(6):
            X = [int(x) for x in np.flatnonzero(rng.integers(0, 2, v))]
            if l % 2 == 0:
                with pytest.warns(UserWarning):
                    rec = build_DX(p, e, l, X)
            else:
                rec = build_DX(p, e, l, X)
            assert verify_additive(rec) == brute_eq1(rec)


def test_half_point_detection():
    rng = np.random.default_rng(3)
    for _ in range(10):
        X = [int(x) for x in np.flatnonzero(rng.integers(0, 2, 13))]
        assert is_half_point(build_DX(3, 1, 3, X))
    F = get_field(3, 3)
    # both elements of one F_3^* coset plus 11 fillers: not half-point
    D = tuple(sorted({0, 13} | set(range(2, 24, 2))))
    rec = SchemeRecord(field=F, e=1, l=3, D=D,
                       provenance="manual", verified_by=frozenset())
    assert not is_half_point(rec)
    # wrong total size
    small = SchemeRecord(field=F, e=1, l=3, D=(0, 2, 4),
                         provenance="manual", verified_by=frozenset())
    assert not is_half_point(small)


def test_recover_X_round_trip():
    rng = np.random.default_rng(11)
    for p, e, l in [(3, 1, 3), (5, 1, 3), (3, 2, 3)]:
        v = (p ** (e * l) - 1) // (p ** e - 1)
        for _ in range(5):
            X = tuple(int(x) for x in np.flatnonzero(rng.integers(0, 2, v)))
            rec = build_DX(p, e, l, X)
            assert recover_X(rec) == X
            rebuilt = build_DX(p, e, l, recover_X(rec))
            assert rebuilt.D == rec.D
    full = build_DX(3, 1, 3, range(13))
    assert recover_X(full) == tuple(range(13))
    assert recover_X(build_DX(3, 1, 3, [])) == ()


def test_multiplicative_route_on_f27():
    S = build_DX(3, 1, 3, range(13))
    assert verify_multiplicative(S)
    N = complement_units(S)
    assert verify_multiplicative(N)


def test_quotient_route_examples():
    assert verify_quotient(3, 1, 3, range(13))
    # scaled Singer set at the 243-element field appears among known schemes
    S5 = singer_bundle(3, 1, 5).S
    X = sorted(2 * s % 121 for s in S5)
    assert verify_quotient(3, 1, 5, X)
    rec = build_DX(3, 1, 5, X)
    assert verify_additive(rec)


def test_route_agreement_random_half_point_sets():
    rng = np.random.default_rng(2026)
    for p, e, l in [(3, 1, 3), (5, 1, 3)]:
        v = (p ** (e * l) - 1) // (p ** e - 1)
        agree = 0
        for _ in range(150):
            X = [int(x) for x in np.flatnonzero(rng.integers(0, 2, v))]
            rec = build_DX(p, e, l, X)
            a = verify_additive(rec)
            m = verify_multiplicative(rec)
            qv = verify_quotient(p, e, l, recover_X(rec))
            d = verify_dual(rec)
            assert a == m == qv == d
            agree += 1
        assert agree == 150


def test_scheme_census_on_13_residues():
    # all 8192 residue subsets; the fast route must find exactly 288 schemes,
    # and spot checks against the additive route must agree
    rng = np.random.default_rng(5)
    hits = 0
    sample_checked = 0
    for r in range(14):
        for X in itertools.combinations(range(13), r):
            ok = verify_quotient(3, 1, 3, X)
            hits += ok
            if ok and rng.random() < 0.1:
                assert verify_additive(build_DX(3, 1, 3, X))
                sample_checked += 1
    assert hits == 288
    assert sample_checked > 10


def test_complement_closure():
    rng = np.random.default_rng(17)
    for _ in range(20):
        X = [int(x) for x in np.flatnonzero(rng.integers(0, 2, 13))]
        rec = build_DX(3, 1, 3, X)
        comp = complement_units(rec)
        assert verify_additive(rec) == verify_additive(comp)
        # complement in F* is the same construction from the complement of X
        Xc = sorted(set(range(13)) - set(X))
        assert comp.D == build_DX(3, 1, 3, Xc).D


def test_skewness_for_3_mod_4_fields():
    for p, e, l in [(3, 1, 3), (3, 1, 5), (7, 1, 3)]:
        v = (p ** l - 1) // (p - 1)
        rec = build_DX(p, e, l, range(v))
        assert verify_additive(rec)
        n1 = rec.n1
        assert (p ** l) % 4 == 3
        neg = {(i + n1 // 2) % n1 for i in rec.D}
        assert neg.isdisjoint(rec.D)
        assert neg | set(rec.D) == set(range(n1))


def test_symmetry_for_1_mod_4_fields():
    # 3^2 = 9 and 5^2 = 25 are 1 mod 4: schemes there satisfy D = -D
    for p, m in [(3, 2), (5, 2)]:
        F = get_field(p, m)
        D = tuple(range(0, F.n1, 2))
        assert {(i + F.n1 // 2) % F.n1 for i in D} == set(D)


def test_scaling_and_frobenius_preserve_schemes():
    rec = certify(build_DX(3, 1, 5, sorted(2 * s % 121
                                           for s in singer_bundle(3, 1, 5).S)),
                  ("additive",))
    for s in (1, 2, 100):
        assert verify_additive(scale(rec, s))
    assert verify_additive(frobenius(rec))
    assert verify_additive(negate(rec))


def test_dual_of_paley_27_is_the_nonsquares():
    # sigma(W) = -3 here, which flips the branch
    assert sum(singer_bundle(3, 1, 3).W) == -3
    rec = certify(build_DX(3, 1, 3, range(13)), ("additive",))
    d = dual_scheme(rec)
    assert d.D == tuple(range(1, 26, 2))


def test_dual_of_paley_243_is_itself():
    assert sum(singer_bundle(3, 1, 5).W) == 9
    rec = certify(build_DX(3, 1, 5, range(121)), ("multiplicative",))
    assert dual_scheme(rec).D == rec.D


def test_double_dual_is_identity():
    S5 = singer_bundle(3, 1, 5).S
    seeds = [range(121), sorted(2 * s % 121 for s in S5)]
    for X in seeds:
        rec = certify(build_DX(3, 1, 5, X), ("multiplicative",))
        d1 = certify(dual_scheme(rec), ("multiplicative",))
        assert verify_additive(d1)
        assert dual_scheme(d1).D == rec.D


def test_certify_stamps_and_strictness():
    rec = certify(build_DX(3, 1, 3, range(13)), "all")
    assert rec.verified_by == {"additive", "multiplicative",
                               "quotient", "dual"}
    with pytest.warns(UserWarning):
        even = build_DX(3, 1, 2, range(4))
    even = certify(even, "all")
    assert even.verified_by == {"additive"}  # other routes need odd l
    bad = build_DX(3, 1, 3, [0, 5])
    with pytest.raises(VerificationFailedError):
        certify(bad, ("additive",))
    assert certify(bad, ("additive",), strict=False).verified_by == frozenset()


@pytest.mark.parametrize("p, m", [(3, 9), (5, 7)])
def test_all_four_routes_agree_at_19683_and_78125_points(p, m):
    v = (p ** m - 1) // (p - 1)
    paley = certify(build_DX(p, 1, m, range(v)), "all", strict=False)
    assert paley.verified_by == {"additive", "multiplicative",
                                 "quotient", "dual"}
    rng = np.random.default_rng(m)
    X = rng.choice(v, size=v // 2, replace=False)
    # certify raises if the applicable routes split, so all four say no
    assert certify(build_DX(p, 1, m, X), "all",
                   strict=False).verified_by == frozenset()


def test_preconditions_and_errors():
    F = get_field(3, 3)
    not_half = SchemeRecord(field=F, e=1, l=3, D=(0, 1, 2),
                            provenance="manual", verified_by=frozenset())
    with pytest.raises(PreconditionError):
        verify_multiplicative(not_half)
    with pytest.raises(PreconditionError):
        recover_X(not_half)
    with pytest.raises(PreconditionError):
        verify_quotient(3, 1, 2, [0])
    with pytest.raises(ParameterError):
        build_DX(3, 1, 3, [13])
    with pytest.raises(ParameterError):
        verify_scheme(not_half, "fancy")
    with pytest.raises(PreconditionError):
        dual_scheme(build_DX(3, 1, 3, range(13)))  # unverified
    with pytest.raises(ParameterError):
        SchemeRecord(field=F, e=1, l=3, D=(2, 1),
                     provenance="manual", verified_by=frozenset())
    with pytest.raises(ParameterError):
        SchemeRecord(field=F, e=1, l=3, D=(0,),
                     provenance="spooky", verified_by=frozenset())


def test_record_checks_range_before_order():
    F = get_field(3, 3)
    for D, message in (((-1, 4), "out of range"), ((3, 26), "out of range"),
                       ((5, 26, 1), "out of range"), ((-2, 7, 0), "out of range"),
                       ((4, 4), "duplicate-free"), ((9, 3), "duplicate-free")):
        with pytest.raises(ParameterError, match=message):
            SchemeRecord(field=F, e=1, l=3, D=D, provenance="manual",
                         verified_by=frozenset())
    assert SchemeRecord(field=F, e=1, l=3, D=(0, 25), provenance="manual",
                        verified_by=frozenset()).D == (0, 25)


def test_record_refuses_an_exponent_past_int64_as_out_of_range():
    F = get_field(3, 3)
    for D in ((0, 2 ** 70), (-2 ** 70, 0)):
        with pytest.raises(ParameterError, match="exponent out of range"):
            SchemeRecord(field=F, e=1, l=3, D=D, provenance="manual",
                         verified_by=frozenset())


def test_from_json_refuses_a_modulus_entry_to_json_does_not_write():
    data = certify(build_DX(3, 1, 3, range(13)), "all").to_json()
    # each of these reduces mod 3 to the non-default modulus (1, 0, 2, 1)
    for modulus in (["1", 0, 2, 1], [1.7, 0, 2.2, 1], [True, 0, 2, True],
                    [4, 3, 5, 1]):
        with pytest.raises(ParameterError, match="modulus entries"):
            SchemeRecord.from_json(
                dict(data, field=dict(data["field"], modulus=modulus)))
    data = certify(build_DX(3, 1, 3, range(13),
                            field=FiniteField(3, 3, (1, 0, 2, 1))),
                   "all").to_json()
    assert SchemeRecord.from_json(data).to_json() == data


def test_record_json_round_trip():
    rec = certify(build_DX(3, 1, 3, [0, 2, 3]), strict=False)
    data = rec.to_json()
    back = SchemeRecord.from_json(data)
    assert back.D == rec.D and back.X == rec.X
    assert back.field == rec.field
    assert back.verified_by == rec.verified_by
    rec2 = certify(build_DX(5, 1, 3, range(31)), "all")
    assert SchemeRecord.from_json(rec2.to_json()).verified_by == rec2.verified_by


def test_record_refuses_bad_tower_fields_and_entries():
    F = get_field(3, 3)
    with pytest.raises(ParameterError, match="tower"):
        SchemeRecord(field=F, e=-1, l=-3, D=(0, 2),
                     provenance="manual", verified_by=frozenset())
    good = build_DX(3, 1, 3, range(13)).to_json()
    bad_tower = dict(good, field=dict(good["field"], e=-1, l=-3))
    del bad_tower["X"]
    with pytest.raises(ParameterError, match="tower"):
        SchemeRecord.from_json(bad_tower)
    for bad in (0.5, True, "3", 2.0):
        for key in ("D", "X"):
            with pytest.raises(ParameterError, match="integers"):
                SchemeRecord.from_json(
                    dict(good, **{key: [bad] + good[key][1:]}))
        for key in ("p", "e", "l"):
            with pytest.raises(ParameterError, match="integers"):
                SchemeRecord.from_json(
                    dict(good, field=dict(good["field"], **{key: bad})))


def test_record_keeps_one_read_only_D_array():
    rec = build_DX(3, 1, 3, range(13))
    D = schemes._D_array(rec)
    assert D is schemes._D_array(rec) and not D.flags.writeable
    assert D.dtype == np.int64 and D.tolist() == list(rec.D)
    # not a field: eq, hash, repr and JSON read the tuple alone
    twin = SchemeRecord(field=rec.field, e=1, l=3, D=rec.D,
                        provenance="manual", verified_by=frozenset())
    assert twin == rec and hash(twin) == hash(rec)
    assert repr(twin) == repr(rec) and "_D" not in repr(rec)
    assert SchemeRecord.from_json(rec.to_json()).to_json() == rec.to_json()
    assert schemes._D_array(replace(rec, D=(0, 2))).tolist() == [0, 2]


def test_from_json_refuses_a_stored_X_that_D_does_not_give():
    data = certify(build_DX(3, 1, 3, range(13)), "all").to_json()
    assert SchemeRecord.from_json(data).X == tuple(range(13))
    data["X"] = [0, 1]
    with pytest.raises(ParameterError, match="parity rule"):
        SchemeRecord.from_json(data)


def test_from_json_refuses_a_trace_claim_past_the_cap_before_the_field(
        monkeypatch):
    built = []
    real = FiniteField.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(FiniteField, "__init__", spy)
    # the bundle self-check at 3^15 needs a 2^25 transform; a non-monic
    # modulus makes the field refuse at once if it is reached
    data = {"field": {"p": 3, "e": 1, "l": 15, "modulus": [1] * 15},
            "D": [], "provenance": "manual"}
    for route in METHODS[1:]:
        with pytest.raises(ParameterError, match="2\\^23"):
            SchemeRecord.from_json(dict(data, verified_by=["additive", route]))
    assert built == []
    for claims in ([], ["additive"]):
        with pytest.raises(ParameterError, match="monic"):
            SchemeRecord.from_json(dict(data, verified_by=claims))
    assert built == [(3, 15), (3, 15)]


def test_a_trace_route_past_the_cap_refuses_before_the_default_field(
        monkeypatch):
    rec = build_DX(3, 1, 3, [0, 1], field=FiniteField(3, 3, (1, 0, 2, 1)))
    called = []
    monkeypatch.setattr(schemes, "get_field",
                        lambda *args: called.append(args))
    # R R^(-1) at 3^3 needs a transform of length 64
    monkeypatch.setattr(ntt, "_MAX_SIZE", 32)
    for route in METHODS[1:]:
        with pytest.raises(ParameterError, match="NTT length 64"):
            certify(rec, (route,))
    assert called == []


def test_certify_all_refuses_past_the_cap_before_any_route(monkeypatch):
    """The cap is checked once, before the first route, when a trace route
    will run; a record whose trace routes all fail their preconditions
    still gets its additive verdict."""
    # R R^(-1) at 3^5 needs a transform of length 512
    monkeypatch.setattr(ntt, "_MAX_SIZE", 256)
    calls = []
    real = schemes.verify_additive

    def spy(rec):
        calls.append(rec.D)
        return real(rec)

    monkeypatch.setattr(schemes, "verify_additive", spy)
    half = build_DX(3, 1, 5, range(121), provenance="paley")
    with pytest.raises(ParameterError, match="NTT length 512"):
        certify(half, "all")
    assert calls == []
    # both 0 and 121 lie over the unit coset {1, -1} of F_3: not half-point
    other = SchemeRecord(field=get_field(3, 5), e=1, l=5, D=(0, 121),
                         provenance="manual", verified_by=frozenset())
    assert certify(other, "all", strict=False).verified_by == frozenset()
    assert calls == [(0, 121)]
    verdicts = dict(route_verdicts(other, METHODS))
    assert verdicts["additive"] is False
    assert all(isinstance(verdicts[m], PreconditionError)
               for m in METHODS[1:])


# -- D^(-1) * R: read off X^(-1) * W in Z_v, once per run ----------------------


def _direct_inverse_times_R(rec):
    """D^(-1) * R formed in Z_n1 itself, the oracle for the multiplicative
    and dual verdicts and the dual set read off X^(-1) * W in Z_v."""
    R = build_singer_bundle(rec.p, rec.e, rec.l, field=rec.field,
                            verify=False).R
    G = CyclicGroup(rec.n1)
    return GroupRingElement.from_indices(G, rec.D).power_map(-1) * \
        GroupRingElement.from_indices(G, R)


def _spy_on_cyclic_products(monkeypatch):
    calls = []
    real = ntt.convolve_exact

    def spy(a, b):
        calls.append(len(a) + len(b) - 1)
        return real(a, b)

    monkeypatch.setattr(ntt, "convolve_exact", spy)
    return calls


@pytest.mark.parametrize("p, e, l, modulus", [
    (3, 1, 3, None), (3, 1, 5, None), (5, 1, 3, None), (7, 1, 3, None),
    (5, 1, 5, None), (3, 1, 7, None), (5, 1, 7, None), (3, 2, 3, None),
    (11, 1, 3, None), (13, 1, 3, None), (3, 1, 3, (1, 0, 2, 1))])
def test_product_pulled_back_from_Z_2v_matches_the_direct_product(
        p, e, l, modulus):
    field = None if modulus is None else FiniteField(p, e * l, modulus)
    assert field is None or field != get_field(p, e * l)
    rng = np.random.default_rng(p * 100 + e * 10 + l)
    v = ((p ** e) ** l - 1) // (p ** e - 1)
    duals = 0
    # X = Z_v is the Paley record and X = {} its complement
    for X in [np.flatnonzero(rng.random(v) < 0.5) for _ in range(3)] + [
            range(v), ()]:
        rec = build_DX(p, e, l, X, field=field)
        direct = _direct_inverse_times_R(rec)
        Q = (p ** e) ** ((l - 1) // 2)
        shifted = direct.coeffs - (Q * Q - Q) // 2
        is_dual = bool(np.all((shifted == 0) | (shifted == Q)))
        assert verify_multiplicative(rec) == direct.scalar_divisible(Q)
        assert verify_dual(rec) == is_dual
        if is_dual:
            stamped = certify(rec, ("dual",))
            assert dual_scheme(stamped).D == \
                tuple(np.flatnonzero(shifted == Q).tolist())
        duals += is_dual
    assert duals >= 2  # the Paley record and its complement at least


def test_multiplicative_and_dual_share_one_product(monkeypatch):
    rec = build_DX(5, 1, 3, range(31))
    singer_bundle(5, 1, 3)  # built and self-checked before counting
    calls = _spy_on_cyclic_products(monkeypatch)
    trace_routes = ("multiplicative", "quotient", "dual")
    assert certify(rec, trace_routes).verified_by == set(trace_routes)
    assert len(calls) == 1
    # X^(-1) * W is formed in Z_v = Z_31, not in Z_2v = Z_62 or Z_n1 = Z_124
    assert calls[0] == 2 * 31 - 1
    # on their own, each route computes its own
    assert verify_multiplicative(rec) and verify_dual(rec)
    assert verify_quotient(5, 1, 3, rec.X)
    assert len(calls) == 4


def test_one_X_recovery_per_run(monkeypatch):
    calls = []
    real = schemes.recover_X

    def spy(rec):
        calls.append(rec)
        return real(rec)

    monkeypatch.setattr(schemes, "recover_X", spy)
    valid = build_DX(5, 1, 3, range(31))
    assert certify(valid, "all").verified_by == set(METHODS)
    assert len(calls) == 1
    # the trace routes refuse a record that is no half-point set, each in
    # its own words, from one recovery
    calls.clear()
    not_half = SchemeRecord(field=valid.field, e=1, l=3, D=tuple(range(62)),
                            provenance="manual", verified_by=frozenset())
    verdicts = dict(route_verdicts(not_half, METHODS))
    assert len(calls) == 1
    assert isinstance(verdicts["additive"], bool)
    assert "half-point sets only" in str(verdicts["multiplicative"])
    assert "half-point sets only" in str(verdicts["dual"])
    assert "not a half-point set" in str(verdicts["quotient"])
    # outside a run, verify_quotient still normalises its argument
    assert verify_quotient(5, 1, 3, [30, 0, *range(31)])
    with pytest.raises(ParameterError):
        verify_quotient(5, 1, 3, [31])


def test_a_corrupted_shared_product_is_caught_by_the_additive_route(
        monkeypatch):
    rec = build_DX(5, 1, 3, range(31), provenance="paley")
    assert certify(rec, "all").verified_by == set(METHODS)
    real = schemes._inverse_times_W

    def corrupted(*args):
        prod = real(*args)
        coeffs = prod.coeffs.copy()
        coeffs[0] += 1
        return GroupRingElement(prod.group, coeffs)

    monkeypatch.setattr(schemes, "_inverse_times_W", corrupted)
    with pytest.raises(InternalInconsistencyError, match="routes disagree"):
        certify(rec, "all")


def test_no_product_outlives_its_run():
    rng = np.random.default_rng(41)
    valid = build_DX(5, 1, 3, range(31))
    both = ("multiplicative", "dual")
    for _ in range(5):
        other = build_DX(5, 1, 3, np.flatnonzero(rng.random(31) < 0.5))
        want = frozenset(both) if verify_additive(other) else frozenset()
        # one run suspended between its routes while another runs
        run = route_verdicts(valid, both)
        assert next(run) == ("multiplicative", True)
        assert certify(other, both, strict=False).verified_by == want
        assert verify_dual(other) == bool(want)
        assert next(run) == ("dual", True)
        assert certify(valid, both).verified_by == frozenset(both)
    assert schemes._RUN.get() is None


def test_a_run_that_raises_leaves_no_product(monkeypatch):
    rec = build_DX(3, 1, 5, range(121))
    singer_bundle(3, 1, 5)
    with monkeypatch.context() as m:
        m.setattr(schemes, "verify_dual", lambda rec: False)
        with pytest.raises(InternalInconsistencyError):
            certify(rec, ("multiplicative", "dual"))
    assert schemes._RUN.get() is None
    calls = _spy_on_cyclic_products(monkeypatch)
    assert certify(rec, ("multiplicative", "dual")).verified_by == \
        {"multiplicative", "dual"}
    assert len(calls) == 1


def test_one_verified_bundle_per_field(monkeypatch):
    F = FiniteField(3, 3, modulus=(1, 0, 2, 1))
    schemes._field_bundle.cache_clear()
    built = []
    real = schemes.build_singer_bundle

    def spy(*args, **kwargs):
        bundle = real(*args, **kwargs)
        built.append(bundle.verified)
        return bundle

    monkeypatch.setattr(schemes, "build_singer_bundle", spy)
    rec = build_DX(3, 1, 3, range(13), field=F, provenance="paley")
    assert certify(rec, "all").verified_by == set(METHODS)
    # an equal field read from a file reuses the same bundle
    again = SchemeRecord.from_json(certify(rec, "all").to_json())
    assert again.verified_by == set(METHODS)
    assert built == [True]


@pytest.mark.skipif(not STRETCH, reason="enable with PALEY_STRETCH=1")
def test_stretch_all_four_routes_at_3_13():
    """Cold certify at 3^13, printed step by step; then each route alone
    runs on the built bundle, outside the cold total."""
    v = (3 ** 13 - 1) // 2
    steps = {}

    def timed(name, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        steps[name] = time.perf_counter() - start
        return out

    field = timed("field", get_field, 3, 13)
    timed("bundle", singer_bundle, 3, 1, 13)
    rec = timed("build_DX", build_DX, 3, 1, 13, range(v), field, "paley")
    certified = timed('certify(rec, "all")', certify, rec, "all")
    assert certified.verified_by == set(METHODS)
    for method in METHODS:
        assert timed(method, verify_scheme, rec, method)
    cold = sum(steps[k] for k in ("field", "bundle", "build_DX",
                                  'certify(rec, "all")'))
    for name, seconds in steps.items():
        print(f"3^13 {name}: {seconds:.2f} s")
    print(f"certify(all) at 3^13 from a cold start: {cold:.1f} s; peak RSS "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB")
