"""End-to-end scorecard for the package's headline guarantees.

Every test prints exactly one summary line, so scraping the log shows
the whole scorecard at a glance. Frozen counts in this file are
regression values from the first verified run of each search; the
per-module test files carry the fine-grained coverage, while this file
checks the cross-module identities those modules promise together.

The two budget-heavy classification checks (flagship class census and
the large design group orders) only run when PALEY_STRETCH is set.
"""

import itertools
import os
from contextlib import contextmanager

import numpy as np
import pytest

from paleyschemes import search
from paleyschemes.classify import (affine_link, aut_order, canonical_hash,
                                   development_profile, iso_test,
                                   make_configuration, semilinear_canonical)
from paleyschemes.constructions import (adp_check, adp_dual,
                                        adp_half_power_family, adp_lift,
                                        cyclotomic_scheme, gmw_lift_scheme,
                                        langevin_scheme, langevin_solve,
                                        power_set, scheme_from_adp,
                                        union_scheme)
from paleyschemes.fields import get_field, is_prime
from paleyschemes.groupring import (CyclicGroup, GroupRingElement,
                                    ds_quotient, is_difference_set,
                                    is_relative_difference_set)
from paleyschemes.schemes import (SchemeRecord, build_DX, certify,
                                  complement_units, dual_scheme,
                                  verify_additive, verify_dual,
                                  verify_multiplicative, verify_quotient)
from paleyschemes.search import (search_cyclotomic_unions,
                                 search_galois_invariant)
from paleyschemes.singer import gmw_components, singer_bundle

STRETCH = bool(os.environ.get("PALEY_STRETCH"))

# frozen regression values from the first verified runs
COSET_UNION_CLASSES_133 = 6
GALOIS_VALID_5_1_3 = 96
FLAGSHIP_FOUND = 7680
FLAGSHIP_SEMILINEAR_REPS = 3840
FLAGSHIP_PRODUCTS = 60
FLAGSHIP_NON_PALEY_CLASSES = 59
UNION_AUT_HISTOGRAM_49 = {2352: 2, 3528: 4}


@contextmanager
def criterion(capsys, num, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {num:02d} {label}: FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"acceptance {num:02d} {label}: pass", flush=True)


def paley_record(p, m):
    F = get_field(p, m)
    return SchemeRecord(field=F, e=1, l=m, D=tuple(range(0, F.n1, 2)),
                        provenance="paley", verified_by=frozenset())


def odd_prime_powers(limit):
    out = []
    for p in range(3, limit + 1, 2):
        if not is_prime(p):
            continue
        q, m = p, 1
        while q <= limit:
            out.append((q, p, m))
            q, m = q * p, m + 1
    return sorted(out)


# -- shared expensive artifacts -------------------------------------------------


@pytest.fixture(scope="module")
def schemes_343():
    b = singer_bundle(7, 1, 3)
    square = certify(build_DX(7, 1, 3, power_set(b.S, 2, 57)))
    inverse = certify(build_DX(7, 1, 3, power_set(b.S, -1, 57)))
    return square, inverse


@pytest.fixture(scope="module")
def suite_121():
    b = singer_bundle(3, 1, 5)
    powers = {t: adp_check(3, 1, 5, power_set(b.S, t, 121))
              for t in (2, 4, 5, 10, 20, 40)}
    assert all(r is not None for r in powers.values())
    duals = {t: adp_dual(powers[t]) for t in (4, 5, 10, 20)}
    xsets = {f"power{t}": r.A for t, r in powers.items()}
    xsets.update({f"dual{t}": r.A for t, r in duals.items()})
    return {"powers": powers, "duals": duals, "xsets": xsets}


@pytest.fixture(scope="module")
def suite_1093():
    b = singer_bundle(3, 1, 7)
    powers = {t: adp_check(3, 1, 7, power_set(b.S, t, 1093))
              for t in (2, 4, 5, 10, 14, 28, 182, 364)}
    assert all(r is not None for r in powers.values())
    duals = {t: adp_dual(powers[t]) for t in (4, 5, 10, 14, 28, 182)}
    xsets = {f"power{t}": r.A for t, r in powers.items()}
    xsets.update({f"dual{t}": r.A for t, r in duals.items()})
    return {"powers": powers, "duals": duals, "xsets": xsets}


@pytest.fixture(scope="module")
def flagship_run():
    """The flagship sweep and the X of each hit it proved by a product."""
    checked = []

    def spy(rec):
        checked.append(rec.X)
        return verify_additive(rec)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "verify_additive", spy)
        return search_galois_invariant(3, 1, 5), checked


@pytest.fixture(scope="module")
def flagship(flagship_run):
    return flagship_run[0]


# -- criteria --------------------------------------------------------------------


def test_01_quadratic_residues_verify_on_every_small_field(capsys):
    with criterion(capsys, 1, "paley baseline"):
        fields = odd_prime_powers(343)
        assert len(fields) == 78
        for _, p, m in fields:
            assert verify_additive(paley_record(p, m))


def test_02_trace_sets_have_their_stated_parameters(capsys):
    with criterion(capsys, 2, "singer identities"):
        for p, e, l in [(3, 1, 3), (3, 1, 5), (3, 1, 7), (5, 1, 3),
                        (7, 1, 3), (3, 3, 3)]:
            b = singer_bundle(p, e, l)
            q, v = b.q, b.v
            R = GroupRingElement.from_indices(CyclicGroup(b.n1), b.R)
            mm, nn, kk, ll = b.rds_params()
            assert is_relative_difference_set(R, mm, nn, kk, ll)
            Gv = CyclicGroup(v)
            S = GroupRingElement.from_indices(Gv, b.S)
            assert is_difference_set(S, *b.ds_params())
            comp = sorted(set(range(v)) - set(b.S))
            assert is_difference_set(
                GroupRingElement.from_indices(Gv, comp),
                v, (q ** (l - 1) - 1) // (q - 1),
                (q ** (l - 2) - 1) // (q - 1))
            W = b.weighing_element()
            assert W * W.power_map(-1) == \
                q ** (l - 1) * GroupRingElement.identity(Gv)


def test_03_layer_composition_reconstructs_the_big_trace_set(capsys):
    with criterion(capsys, 3, "gmw decomposition"):
        comps = gmw_components(3, 1, 3, 3)
        assert comps.v_st == 9841
        G = CyclicGroup(comps.v_st)
        rtilde = GroupRingElement.from_indices(G, comps.rtilde)
        embedded = GroupRingElement.from_indices(G, comps.embed(comps.s_sub))
        big = GroupRingElement.from_indices(G, comps.s_big)
        assert rtilde * embedded == big


def test_04_square_and_inverse_powers_give_distinct_designs(capsys,
                                                            schemes_343):
    with criterion(capsys, 4, "two designs at 343"):
        b125 = singer_bundle(5, 1, 3)
        rec125 = certify(build_DX(5, 1, 3, power_set(b125.S, 2, 31)))
        assert rec125.verified_by
        square, inverse = schemes_343
        assert square.verified_by and inverse.verified_by
        assert semilinear_canonical(square) != semilinear_canonical(inverse)
        assert not iso_test(make_configuration(square),
                            make_configuration(inverse))


def test_05_the_ten_schemes_of_order_243_and_their_intersection(capsys,
                                                                suite_121):
    with criterion(capsys, 5, "f243 suite"):
        xsets = suite_121["xsets"]
        assert len(xsets) == 10
        recs = {k: build_DX(3, 1, 5, X) for k, X in xsets.items()}
        assert all(verify_additive(r) for r in recs.values())
        forms = {k: semilinear_canonical(r) for k, r in recs.items()}
        assert len(set(forms.values())) == 10
        assert set(xsets["power5"]) | set(xsets["dual5"]) == set(range(121))
        inter = union_scheme(3, 1, 5, xsets["power5"], xsets["dual5"])
        assert verify_additive(inter)
        assert semilinear_canonical(inter) not in set(forms.values())


def test_06_the_fourteen_schemes_of_order_2187(capsys, suite_1093):
    with criterion(capsys, 6, "f2187 suite"):
        xsets = suite_1093["xsets"]
        assert len(xsets) == 14
        forms = set()
        for X in xsets.values():
            rec = build_DX(3, 1, 7, X)
            assert verify_additive(rec)
            forms.add(semilinear_canonical(rec))
        assert len(forms) == 14


def test_07_every_dividing_set_pairs_against_the_master_product(
        capsys, suite_121, suite_1093):
    with criterion(capsys, 7, "adp pairing"):
        b513 = singer_bundle(5, 1, 3)
        b713 = singer_bundle(7, 1, 3)
        records = [adp_check(5, 1, 3, power_set(b513.S, 2, 31)),
                   adp_check(7, 1, 3, power_set(b713.S, 2, 57)),
                   adp_check(7, 1, 3, power_set(b713.S, -1, 57))]
        for suite in (suite_121, suite_1093):
            records.extend(suite["powers"].values())
            records.extend(suite["duals"].values())
        assert all(r is not None and r.dual is not None for r in records)
        for rec in records:
            b = singer_bundle(rec.p, rec.e, rec.l)
            G = CyclicGroup(b.v)
            A = GroupRingElement.from_indices(G, rec.A)
            paired = GroupRingElement.from_indices(G, rec.dual)
            S = GroupRingElement.from_indices(G, b.S)
            assert A * paired == S.power_map(-1) * S.power_map(2)


def test_08_all_coset_unions_verify_and_fall_into_frozen_classes(capsys):
    with criterion(capsys, 8, "coset union census"):
        hashes = set()
        for bits in itertools.product((0, 1), repeat=7):
            X = [j for j in range(7) if bits[j]]
            rec = cyclotomic_scheme(11, 1, 3, 7, X)
            assert rec.verified_by or verify_additive(rec)
            hashes.add(canonical_hash(rec))
        assert len(hashes) >= 6
        assert len(hashes) == COSET_UNION_CLASSES_133


def test_09_quadratic_form_solver_values_and_construction(capsys):
    with criterion(capsys, 9, "quadratic solver"):
        params = langevin_solve(3, 11, 1)
        assert (params.l, params.h, params.a) == (5, 1, 1)
        assert all(len(P) == 6 for P in params.candidates)
        result = langevin_scheme(3, 11)
        assert len(result.records) <= 1
        assert len(result.records) == 1
        rec = result.record
        assert rec.n1 + 1 == 243
        assert rec.verified_by or verify_additive(rec)
        big = langevin_solve(5, 19, 1)
        assert (big.l, big.h, big.a) == (9, 1, 1)


def test_10_gray_code_engine_matches_direct_verification(capsys):
    with criterion(capsys, 10, "engine oracle agreement"):
        res = search_galois_invariant(5, 1, 3)
        found = set(res.found)
        orbits = []
        seen = set()
        for x in range(31):
            if x in seen:
                continue
            orb = set()
            y = x
            while y not in orb:
                orb.add(y)
                y = y * 5 % 31
            orbits.append(tuple(sorted(orb)))
            seen |= orb
        assert len(orbits) == 11
        valid = 0
        for bits in itertools.product((0, 1), repeat=11):
            X = tuple(sorted(itertools.chain(
                *(orbits[i] for i in range(11) if bits[i]))))
            direct = verify_additive(build_DX(5, 1, 3, X))
            assert direct == (X in found)
            valid += direct
        assert valid == len(found) == GALOIS_VALID_5_1_3


def test_11_flagship_search_contents_and_closure(capsys, flagship_run,
                                                 suite_121):
    with criterion(capsys, 11, "flagship search"):
        flagship, checked = flagship_run
        found = set(flagship.found)
        assert len(found) == FLAGSHIP_FOUND
        # one additive product per orbit of the Frobenius normalizer
        assert len(checked) == len(set(checked)) == FLAGSHIP_PRODUCTS
        for X in suite_121["xsets"].values():
            assert tuple(sorted(X)) in found
        assert tuple(sorted(langevin_scheme(3, 11).record.X)) in found
        assert () in found and tuple(range(121)) in found
        everything = set(range(121))
        for X in found:
            assert tuple(sorted(everything - set(X))) in found
            assert tuple(sorted(3 * x % 121 for x in X)) in found


@pytest.mark.skipif(not STRETCH, reason="enable with PALEY_STRETCH=1")
def test_11_stretch_flagship_classification(capsys, flagship):
    with criterion(capsys, 11, "flagship classification (stretch)"):
        reps = {}
        for X in flagship.found:
            rec = build_DX(3, 1, 5, X)
            reps.setdefault(canonical_hash(rec), rec)
        assert len(reps) == FLAGSHIP_SEMILINEAR_REPS
        paley_hash = canonical_hash(build_DX(3, 1, 5, range(121)))
        assert paley_hash in reps
        groups = {}
        for h, rec in reps.items():
            groups.setdefault(development_profile(rec), []).append((h, rec))
        # every group collapses to one class under explicit affine maps,
        # and differing profiles certify distinct classes
        for members in groups.values():
            head = members[0][1]
            for _, rec in members[1:]:
                assert affine_link(head, rec) is not None
        with_paley = [m for m in groups.values()
                      if any(h == paley_hash for h, _ in m)]
        assert len(with_paley) == 1
        assert len(groups) - 1 == FLAGSHIP_NON_PALEY_CLASSES


def test_12_subfield_lift_verifies_and_commutes(capsys):
    with criterion(capsys, 12, "lift commutation"):
        lifted = gmw_lift_scheme(3, 1, 3, 3, range(13))
        assert len(lifted) == 2
        for rec in lifted:
            assert "quotient" in rec.verified_by
            assert verify_quotient(3, 1, 9, rec.X)
        base = adp_half_power_family(3, 1)
        lifts = adp_lift(base, 3)
        schemes = gmw_lift_scheme(3, 1, 3, 3, base.A)
        for lift_rec, scheme in zip(lifts, schemes):
            assert scheme.X == lift_rec.A
            assert scheme_from_adp(lift_rec).D == scheme.D


def test_13_group_orders_match_the_affine_formula(capsys):
    with criterion(capsys, 13, "aut formula"):
        for p, m in [(5, 1), (3, 2), (13, 1), (17, 1), (5, 2), (7, 2)]:
            q = p ** m
            rec = certify(paley_record(p, m))
            got = aut_order(make_configuration(rec))
            assert got == q * (q - 1) // 2 * m
        assert aut_order(
            make_configuration(certify(paley_record(7, 1)))) == 168
        assert aut_order(
            make_configuration(certify(paley_record(11, 1)))) == 660


def test_14_residue_class_unions_at_49_and_their_groups(capsys):
    with criterion(capsys, 14, "union search aut"):
        res = search_cyclotomic_unions(7, 2, 4)
        assert len(res.found) == 6
        F = get_field(7, 2)
        paley_hash = canonical_hash(paley_record(7, 2))
        histogram = {}
        nonpaley_auts = set()
        for D in res.found:
            rec = certify(SchemeRecord(field=F, e=1, l=2, D=D,
                                       provenance="manual",
                                       verified_by=frozenset()))
            a = aut_order(make_configuration(rec))
            histogram[a] = histogram.get(a, 0) + 1
            if canonical_hash(rec) != paley_hash:
                nonpaley_auts.add(a)
        assert histogram == UNION_AUT_HISTOGRAM_49
        assert 3528 in nonpaley_auts


def test_15_design_group_orders(capsys):
    with criterion(capsys, 15, "design aut values"):
        b = singer_bundle(5, 1, 3)
        rec = certify(build_DX(5, 1, 3, power_set(b.S, 2, 31)))
        assert aut_order(make_configuration(rec)) == 3000


@pytest.mark.skipif(not STRETCH, reason="enable with PALEY_STRETCH=1")
def test_15_stretch_group_orders_at_343(capsys, schemes_343):
    with criterion(capsys, 15, "design aut at 343 (stretch)"):
        for rec in schemes_343:
            assert aut_order(make_configuration(rec)) == 3087


def test_16_property_suites(capsys, suite_121, schemes_343):
    with criterion(capsys, 16, "property suites"):
        rng = np.random.default_rng(171717)
        for p, e, l in [(3, 1, 3), (5, 1, 3), (7, 1, 3), (3, 1, 5)]:
            v = (p ** (e * l) - 1) // (p ** e - 1)
            for _ in range(1000):
                X = tuple(np.flatnonzero(rng.random(v) < 0.5).tolist())
                rec = build_DX(p, e, l, X)
                verdicts = {verify_additive(rec),
                            verify_multiplicative(rec),
                            verify_quotient(p, e, l, X, field=rec.field),
                            verify_dual(rec)}
                assert len(verdicts) == 1

        pool = [certify(build_DX(3, 1, 5, X))
                for X in suite_121["xsets"].values()]
        pool += list(schemes_343)
        pool.append(langevin_scheme(3, 11).record)
        pool += [certify(paley_record(p, m))
                 for p, m in [(3, 3), (3, 5), (7, 3), (11, 1), (19, 1)]]
        for rec in pool:
            assert rec.verified_by
            once = certify(dual_scheme(rec))
            assert dual_scheme(once).D == rec.D
            if (rec.n1 + 1) % 4 == 3:
                negated = {(d + rec.n1 // 2) % rec.n1 for d in rec.D}
                assert negated.isdisjoint(rec.D)
                assert len(negated) + len(rec.D) == rec.n1
            assert verify_additive(complement_units(rec))

        quotient_jobs = [(3, 1, 5, r) for r in suite_121["powers"].values()]
        b513 = singer_bundle(5, 1, 3)
        b713 = singer_bundle(7, 1, 3)
        quotient_jobs += [
            (5, 1, 3, adp_check(5, 1, 3, power_set(b513.S, 2, 31))),
            (7, 1, 3, adp_check(7, 1, 3, power_set(b713.S, 2, 57))),
            (7, 1, 3, adp_check(7, 1, 3, power_set(b713.S, -1, 57)))]
        for p, e, l, arec in quotient_jobs:
            b = singer_bundle(p, e, l)
            G = CyclicGroup(b.v)
            S = GroupRingElement.from_indices(G, b.S)
            numerator = S.power_map(-1) * S.power_map(2)
            A = GroupRingElement.from_indices(G, arec.A)
            quotient = ds_quotient(numerator, A, b.ds_params())
            assert quotient is not None
            assert A * quotient == numerator
            assert tuple(np.flatnonzero(quotient.coeffs).tolist()) == \
                arec.dual
