import math

import numpy as np
import pytest

from paleyschemes import constructions, groupring
from paleyschemes.constructions import (AdpRecord, adp_check, adp_dual,
                                        adp_half_power_family, adp_lift,
                                        adp_power_family, class_number,
                                        cyclotomic_scheme, gmw_lift_scheme,
                                        is_strong_multiplier, langevin_scheme,
                                        langevin_solve, power_set,
                                        scheme_from_adp, union_scheme,
                                        validate_cyclotomic_params)
from paleyschemes.errors import (InternalInconsistencyError, ParameterError,
                                 PreconditionError)
from paleyschemes.groupring import CyclicGroup, GroupRingElement
from paleyschemes.schemes import build_DX, verify_additive, verify_quotient
from paleyschemes.singer import singer_bundle


def dirichlet_class_number(p_prime):
    """h(-p') = (sum of nonresidues - sum of residues) / p', p' = 3 mod 4."""
    squares = {x * x % p_prime for x in range(1, p_prime)}
    a = sum(squares)
    b = sum(set(range(1, p_prime)) - squares)
    assert (b - a) % p_prime == 0
    return (b - a) // p_prime


@pytest.mark.parametrize("pp,expected", [
    (11, 1), (19, 1), (43, 1), (59, 3), (67, 1), (83, 3), (107, 3),
])
def test_class_number_against_dirichlet(pp, expected):
    assert class_number(pp) == expected
    assert dirichlet_class_number(pp) == expected


def orbit_representatives(v, p):
    """One representative per <p>-orbit of units modulo v."""
    seen = set()
    reps = []
    for x in range(1, v):
        if math.gcd(x, v) != 1 or x in seen:
            continue
        reps.append(x)
        y = x
        while y not in seen:
            seen.add(y)
            y = y * p % v
    return reps


def test_trivial_adp_pairs():
    b = singer_bundle(3, 1, 3)
    rec = adp_check(3, 1, 3, power_set(b.S, 2, b.v))
    assert rec is not None
    assert rec.dual == power_set(b.S, -1, b.v)
    rec2 = adp_check(3, 1, 3, power_set(b.S, -1, b.v))
    assert rec2.dual == power_set(b.S, 2, b.v)


def test_adp_pairing_identity():
    b = singer_bundle(3, 1, 5)
    rec = adp_power_family(3, 1, 5, 1)
    G = CyclicGroup(b.v)
    S = GroupRingElement.from_indices(G, b.S)
    A = GroupRingElement.from_indices(G, rec.A)
    B = GroupRingElement.from_indices(G, rec.dual)
    assert A * B == S.power_map(-1) * S.power_map(2)
    # swapping the pair and re-deriving lands back on A
    back = adp_check(3, 1, 5, rec.dual)
    assert back is not None and back.dual == rec.A
    swapped = adp_dual(rec)
    assert swapped.A == rec.dual and swapped.dual == rec.A


def test_power_family_members():
    r1 = adp_power_family(3, 1, 5, 1)   # exponent 4
    r2 = adp_power_family(3, 1, 5, 2)   # exponent 10
    b = singer_bundle(3, 1, 5)
    assert r1.A == power_set(b.S, 4, 121)
    assert r2.A == power_set(b.S, 10, 121)
    assert r1.origin == "power"
    r3 = adp_power_family(3, 1, 7, 3)   # exponent 28 at v = 1093
    assert r3.A == power_set(singer_bundle(3, 1, 7).S, 28, 1093)


def test_half_power_family_members():
    b = singer_bundle(3, 1, 5)
    assert adp_half_power_family(5, 1).A == power_set(b.S, 2, 121)
    assert adp_half_power_family(5, 2).A == power_set(b.S, 5, 121)
    b7 = singer_bundle(3, 1, 7)
    assert adp_half_power_family(7, 3).A == power_set(b7.S, 14, 1093)
    with pytest.raises(ParameterError):
        adp_half_power_family(5, 5)


def test_adp_check_refuses_indices_past_z_v():
    for bad in ([13], [2 ** 70], [-2 ** 70], [2 ** 63]):
        with pytest.raises(ParameterError, match="out of range"):
            adp_check(3, 1, 3, bad)


def test_power_family_gcd_guard():
    # v = 4 at the even tower shares a factor with 1 + 3
    with pytest.raises(ParameterError):
        adp_power_family(3, 1, 2, 1)


def test_equivalence_of_scheme_and_divisor_on_121():
    # both directions, over every multiplier orbit of exponents
    b = singer_bundle(3, 1, 5)
    reps = orbit_representatives(121, 3)
    assert len(reps) == 22
    adp_hits = []
    for t in reps:
        X = power_set(b.S, t, 121)
        is_adp = adp_check(3, 1, 5, X) is not None
        is_scheme = verify_quotient(3, 1, 5, X)
        assert is_adp == is_scheme
        if is_adp:
            adp_hits.append(t)
    assert 1 not in adp_hits  # the plain Singer set is not a divisor here
    assert len(adp_hits) == 6


def test_exponent_orbit_dedup():
    b = singer_bundle(3, 1, 5)
    X = power_set(b.S, 4, 121)
    assert power_set(b.S, 4 * 3 % 121, 121) == X
    assert is_strong_multiplier(b.S, b.v, 3)


def test_adp_check_rejects_non_difference_set():
    with pytest.raises(ParameterError):
        adp_check(3, 1, 3, range(9))


def test_adp_check_checks_each_difference_set_once(monkeypatch):
    b = singer_bundle(3, 1, 7)
    rec = adp_power_family(3, 1, 7, 1)
    calls = []
    real = groupring.is_difference_set

    def spy(D, *params):
        calls.append(D.subset_indices())
        return real(D, *params)

    monkeypatch.setattr(groupring, "is_difference_set", spy)
    monkeypatch.setattr(constructions, "is_difference_set", spy,
                        raising=False)
    assert adp_power_family(3, 1, 7, 1) == rec
    # A in the quotient route, S^(2) in the cross route
    assert calls == [rec.A, power_set(b.S, 2, b.v)]
    G = CyclicGroup(b.v)
    S = GroupRingElement.from_indices(G, b.S)
    assert rec.A == power_set(b.S, 4, b.v)
    assert GroupRingElement.from_indices(G, rec.dual) * \
        GroupRingElement.from_indices(G, rec.A) == \
        S.power_map(-1) * S.power_map(2)
    with pytest.raises(ParameterError, match="difference set"):
        adp_check(3, 1, 7, range(9))


@pytest.mark.parametrize("entry, bound, X", [
    (lambda X: build_DX(3, 1, 3, X).D, 13, range(13)),
    (lambda X: verify_quotient(3, 1, 3, X), 13, range(13)),
    (lambda X: union_scheme(3, 1, 3, X, ()).D, 13, range(13)),
    (lambda X: [r.D for r in gmw_lift_scheme(3, 1, 1, 3, X)], 1, [0]),
    (lambda X: cyclotomic_scheme(11, 1, 3, 7, X).D, 7, [0, 3]),
], ids=["build_DX", "verify_quotient", "union_scheme", "gmw_lift_scheme",
        "cyclotomic_scheme"])
def test_every_X_entry_point_takes_one_normal_form(entry, bound, X):
    X = list(X)
    assert entry(X[::-1] + X[:1]) == entry(X)
    for outside in (-1, bound):
        with pytest.raises(ParameterError,
                           match=f"^X must lie in 0\\.\\.{bound - 1}$"):
            entry(X + [outside])


def test_scheme_from_adp_in_125_and_343():
    rec = adp_check(5, 1, 3, power_set(singer_bundle(5, 1, 3).S, 2, 31))
    s = scheme_from_adp(rec)
    assert s.provenance == "adp"
    assert s.verified_by == {"quotient", "additive"}
    assert len(s.D) == 62
    b7 = singer_bundle(7, 1, 3)
    for t in (2, -1):
        rec = adp_check(7, 1, 3, power_set(b7.S, t, 57))
        assert rec is not None
        s = scheme_from_adp(rec)
        assert len(s.D) == 171


def test_scheme_from_adp_escalates_on_fake_certificate():
    b = singer_bundle(3, 1, 5)
    bad_t = None
    for t in orbit_representatives(121, 3):
        X = power_set(b.S, t, 121)
        if not verify_quotient(3, 1, 5, X):
            bad_t = t
            break
    assert bad_t is not None
    forged = AdpRecord(p=3, e=1, l=5, A=power_set(b.S, bad_t, 121),
                       dual=None, origin="quotient")
    with pytest.raises(InternalInconsistencyError):
        scheme_from_adp(forged)


def test_adp_lift_degenerate_base():
    base = AdpRecord(p=3, e=1, l=1, A=(0,), dual=(0,), origin="quotient")
    lift1, lift2 = adp_lift(base, 3)
    b = singer_bundle(3, 1, 3)
    assert lift1.A == power_set(b.S, -1, 13)
    assert lift2.A == power_set(b.S, 2, 13)
    assert lift1.origin == "lifted"
    assert lift1.dual is not None
    big1, big2 = adp_lift(base, 5)
    b5 = singer_bundle(3, 1, 5)
    assert big1.A == power_set(b5.S, -1, 121)
    assert big2.A == power_set(b5.S, 2, 121)
    with pytest.raises(ParameterError):
        adp_lift(base, 2)
    with pytest.raises(ParameterError):
        adp_lift(base, 1)


def test_adp_lift_full_layer():
    rec = adp_half_power_family(3, 1)  # S^(2) at layer 3
    lift1, lift2 = adp_lift(rec, 3)
    assert lift1.l == 9 and lift1.v == 9841
    assert len(lift1.A) == 3 ** 6 * len(rec.A)
    assert len(lift2.A) == 6561
    assert lift1.dual is not None


def test_lift_paths_agree():
    rec = adp_half_power_family(3, 1)
    lifts = adp_lift(rec, 3)
    schemes = gmw_lift_scheme(3, 1, 3, 3, rec.A)
    assert schemes[0].X == lifts[0].A
    assert schemes[1].X == lifts[1].A


def test_validate_cyclotomic_params():
    assert validate_cyclotomic_params(11, 1, 3, 7)
    assert not validate_cyclotomic_params(3, 1, 5, 11)
    assert not validate_cyclotomic_params(11, 1, 3, 19)
    assert not validate_cyclotomic_params(11, 1, 3, 10)  # 10 does not divide 133
    assert validate_cyclotomic_params(11, 1, 3, 1)


def test_cyclotomic_scheme_singleton():
    rec = cyclotomic_scheme(11, 1, 3, 7, [0])
    assert rec.provenance == "cyclotomic"
    assert rec.verified_by == {"quotient", "additive"}
    # union of exactly 7 exponent classes modulo 14
    D = np.asarray(rec.D)
    classes = {int(c) for c in D % 14}
    assert len(classes) == 7
    counts = np.bincount(D % 14, minlength=14)
    assert set(counts[sorted(classes)]) == {1330 // 14}


def test_cyclotomic_full_residues_give_paley():
    rec = cyclotomic_scheme(11, 1, 3, 7, range(7))
    assert rec.D == tuple(range(0, 1330, 2))


def test_cyclotomic_rejections():
    with pytest.raises(PreconditionError):
        cyclotomic_scheme(3, 1, 5, 11, [0])
    with pytest.raises(ParameterError):
        cyclotomic_scheme(11, 1, 3, 7, [7])


def test_langevin_solver_known_instances():
    r = langevin_solve(3, 11)
    assert (r.l, r.h, r.a, abs(r.b)) == (5, 1, 1, 1)
    assert r.constructive
    assert r.candidate_labels == ("squares_with_zero", "nonsquares_with_zero")
    assert all(len(c) == 6 and 0 in c for c in r.candidates)
    r2 = langevin_solve(5, 19)
    assert (r2.l, r2.h, r2.a) == (9, 1, 1)
    assert r2.constructive


def test_langevin_solver_rejections():
    with pytest.raises(ParameterError):
        langevin_solve(3, 11, 2)  # order of 3 mod 121 is 5, not 55
    with pytest.raises(ParameterError):
        langevin_solve(3, 3)
    with pytest.raises(ParameterError):
        langevin_solve(3, 7)  # 7 = 7 mod 8
    with pytest.raises(ParameterError):
        langevin_solve(3, 19)  # 3 is a primitive root mod 19
    with pytest.raises(ParameterError):
        langevin_solve(11, 43)  # constructive pair, but order is 7 not 21


def test_langevin_scheme_at_243():
    res = langevin_scheme(3, 11)
    assert len(res.records) <= 1
    rec = res.record
    assert rec.provenance == "langevin"
    assert len(rec.X) == 66 and len(rec.D) == 121
    assert verify_additive(rec)


def test_langevin_translated_transversal_is_a_shift():
    base = langevin_scheme(3, 11, T=[0]).record
    moved = langevin_scheme(3, 11, T=[1]).record
    n1 = base.n1
    shifts = {delta for delta in range(n1)
              if set((np.asarray(base.D) + delta) % n1) == set(moved.D)}
    assert shifts  # translated residues lift to a multiplicative scaling


def test_langevin_transversal_validation():
    with pytest.raises(ParameterError):
        langevin_scheme(3, 11, T=[0, 1])


def test_gmw_lift_scheme_base_case():
    s1, s2 = gmw_lift_scheme(3, 1, 1, 3, [0])
    b = singer_bundle(3, 1, 3)
    assert s1.X == power_set(b.S, -1, 13)
    assert s2.X == power_set(b.S, 2, 13)
    assert s1.provenance == "gmw_lift"
    assert verify_additive(s1) and verify_additive(s2)
    assert len(s1.X) == 9  # q^(st-t) |X|


def test_gmw_lift_rejects_non_scheme_seed():
    bad = None
    for x in range(13):
        if not verify_quotient(3, 1, 3, [x]):
            bad = [x]
            break
    if bad is None:
        for x in range(1, 13):
            if not verify_quotient(3, 1, 3, [0, x]):
                bad = [0, x]
                break
    assert bad is not None
    with pytest.raises(PreconditionError):
        gmw_lift_scheme(3, 1, 3, 3, bad)
    with pytest.raises(ParameterError):
        gmw_lift_scheme(3, 1, 2, 3, [0])


def test_union_scheme_covering_pair():
    rec5 = adp_half_power_family(5, 2)  # S^(5) with its dual
    union = union_scheme(3, 1, 5, rec5.A, rec5.dual)
    assert set(rec5.A) | set(rec5.dual) == set(range(121))
    assert union.provenance == "union"
    assert len(union.X) == 41  # intersection branch
    assert verify_additive(union)


def test_union_scheme_disjoint_pair():
    rec5 = adp_half_power_family(5, 2)
    comp = sorted(set(range(121)) - set(rec5.A))
    rec = union_scheme(3, 1, 5, rec5.A, comp)
    assert rec.D == tuple(range(0, 242, 2))  # full residues: Paley


def test_union_scheme_rejections():
    S = singer_bundle(3, 1, 3).S
    with pytest.raises(PreconditionError):
        union_scheme(3, 1, 3, S, S)  # overlapping, not covering
    with pytest.raises(PreconditionError):
        union_scheme(3, 1, 3, [0, 1], [2])  # first input not a scheme


def test_strong_multiplier_checks():
    S = singer_bundle(3, 1, 3).S
    assert is_strong_multiplier(S, 13, 3)
    assert not is_strong_multiplier(S, 13, 2)
    assert is_strong_multiplier(S, 13, 1)
    with pytest.raises(ParameterError):
        is_strong_multiplier(S, 13, 13)


def test_adp_record_json():
    rec = adp_power_family(3, 1, 5, 1)
    data = rec.to_json()
    assert data["kind"] == "adp" and data["origin"] == "power"
    assert data["params"] == [121, 81, 54]
    assert data["set"] == list(rec.A) and data["dual"] == list(rec.dual)
