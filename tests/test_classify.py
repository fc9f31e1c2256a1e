import dataclasses
import itertools

import numpy as np
import pytest

from paleyschemes.classify import (Configuration, _clique_counts,
                                   _least_rotation, _perm_group_order,
                                   _rank_mod_p, affine_link, aut_order,
                                   canonical_hash, canonical_certificate,
                                   development_profile, fingerprint,
                                   iso_test, make_configuration, scheme_seeds,
                                   semilinear_canonical, triple_profile)
from paleyschemes.constructions import adp_check, power_set
from paleyschemes.errors import (BudgetExceededError,
                                 InternalInconsistencyError, ParameterError,
                                 PreconditionError)
from paleyschemes.fields import ZERO, FiniteField, get_field
from paleyschemes.graph6 import decode_graph6, design_to_json, encode_graph6
from paleyschemes.schemes import (SchemeRecord, build_DX, certify, frobenius,
                                  scale)
from paleyschemes.singer import singer_bundle


def paley(p, m, field=None):
    F = field if field is not None else get_field(p, m)
    rec = SchemeRecord(field=F, e=1, l=m, D=tuple(range(0, F.n1, 2)),
                       X=None, provenance="paley", verified_by=frozenset())
    return certify(rec, ("additive",))


def scheme_of_power(p, l, t):
    b = singer_bundle(p, 1, l)
    rec = build_DX(p, 1, l, power_set(b.S, t, b.v))
    return certify(rec, ("additive",))


# -- configurations ------------------------------------------------------------


def test_paley_graph_of_order_nine():
    C = make_configuration(paley(3, 2))
    assert C.kind == "srg_graph"
    assert C.params == (9, 4, 1, 2)
    assert C.matrix.sum() == 9 * 4


def test_fano_plane_from_seven():
    C = make_configuration(paley(7, 1))
    assert C.kind == "hadamard_design"
    assert C.params == (7, 3, 1)
    gram = C.matrix.T.astype(int) @ C.matrix
    off = gram[~np.eye(7, dtype=bool)]
    assert set(off.tolist()) == {1}  # any two lines meet in one point


def test_eleven_point_design_params():
    C = make_configuration(paley(11, 1))
    assert C.params == (11, 5, 2)


def test_configuration_requires_verification():
    F = get_field(5, 1)
    rec = SchemeRecord(field=F, e=1, l=1, D=(0, 2), X=None,
                       provenance="manual", verified_by=frozenset())
    with pytest.raises(PreconditionError):
        make_configuration(rec)


# -- fingerprints ---------------------------------------------------------------


def brute_rank_mod_p(m, p):
    """Rank via null space counting, feasible for tiny matrices."""
    m = np.asarray(m) % p
    rows, cols = m.shape
    solutions = 0
    for vec in itertools.product(range(p), repeat=cols):
        if not ((m @ np.asarray(vec)) % p).any():
            solutions += 1
    null_dim = round(np.log(solutions) / np.log(p))
    assert p ** null_dim == solutions
    return cols - null_dim


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_mod_p_against_null_space(p):
    rng = np.random.default_rng(11 + p)
    for _ in range(8):
        m = rng.integers(0, p, size=(5, 6))
        assert _rank_mod_p(m, p) == brute_rank_mod_p(m, p)


def brute_k4(adj):
    n = adj.shape[0]
    per = np.zeros(n, dtype=int)
    total = 0
    for quad in itertools.combinations(range(n), 4):
        if all(adj[a, b] for a, b in itertools.combinations(quad, 2)):
            total += 1
            for a in quad:
                per[a] += 1
    return total, tuple(sorted(int(x) for x in per))


def test_clique_counts_against_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(6):
        n = 10
        adj = np.zeros((n, n), dtype=np.uint8)
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.55:
                adj[i, j] = adj[j, i] = 1
        assert _clique_counts(adj) == brute_k4(adj)


def test_fingerprint_stable_under_rebuilt_field():
    default = paley(13, 1)
    other_field = FiniteField(13, 1, modulus=(6, 1))
    rebuilt = paley(13, 1, field=other_field)
    assert default.D != rebuilt.D or default.field.modulus != other_field.modulus
    C1, C2 = make_configuration(default), make_configuration(rebuilt)
    assert fingerprint(C1) == fingerprint(C2)
    assert iso_test(C1, C2)


def test_fingerprint_stable_under_relabeling():
    C = make_configuration(paley(13, 1))
    rng = np.random.default_rng(3)
    perm = rng.permutation(C.n)
    relabeled = Configuration(kind=C.kind, p=C.p, n=C.n,
                              matrix=C.matrix[np.ix_(perm, perm)],
                              params=C.params)
    assert fingerprint(C) == fingerprint(relabeled)


# -- semilinear canonical forms --------------------------------------------------


def brute_least_rotation(bits):
    n = len(bits)
    return min(tuple(bits[(i + r) % n] for i in range(n)) for r in range(n))


def test_least_rotation_against_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        bits = rng.integers(0, 2, size=n).astype(np.uint8)
        start = _least_rotation(bits)
        got = tuple(np.roll(bits, -start).tolist())
        assert got == brute_least_rotation(bits.tolist())


def test_squares_and_nonsquares_share_canonical_form():
    for p, m in [(3, 2), (3, 3), (7, 1), (13, 1)]:
        F = get_field(p, m)
        S = SchemeRecord(field=F, e=1, l=m, D=tuple(range(0, F.n1, 2)),
                         X=None, provenance="paley", verified_by=frozenset())
        N = SchemeRecord(field=F, e=1, l=m, D=tuple(range(1, F.n1, 2)),
                         X=None, provenance="paley", verified_by=frozenset())
        assert semilinear_canonical(S) == semilinear_canonical(N)


def test_singletons_share_canonical_form():
    F = get_field(3, 2)
    forms = set()
    for i in range(F.n1):
        rec = SchemeRecord(field=F, e=1, l=2, D=(i,), X=None,
                           provenance="manual", verified_by=frozenset())
        forms.add(semilinear_canonical(rec))
    assert len(forms) == 1


def test_canonical_form_is_a_class_function():
    rec = scheme_of_power(3, 5, 2)
    want = semilinear_canonical(rec)
    rng = np.random.default_rng(29)
    for _ in range(10):
        c = int(rng.integers(0, rec.n1))
        k = int(rng.integers(0, rec.field.m))
        moved = frobenius(scale(rec, c), k)
        assert semilinear_canonical(moved) == want
    assert len(canonical_hash(rec)) == 64


def test_new_125_scheme_is_not_paley_semilinearly():
    new = scheme_of_power(5, 3, 2)
    assert semilinear_canonical(new) != semilinear_canonical(paley(5, 3))


# -- graph6 ----------------------------------------------------------------------


def test_graph6_known_strings():
    k2 = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    assert encode_graph6(k2) == "A_"
    k3 = np.ones((3, 3), dtype=np.uint8) - np.eye(3, dtype=np.uint8)
    assert encode_graph6(k3) == "Bw"
    assert (decode_graph6("Bw") == k3).all()


@pytest.mark.parametrize("n", [1, 5, 62, 63, 100])
def test_graph6_round_trip(n):
    rng = np.random.default_rng(n)
    adj = np.zeros((n, n), dtype=np.uint8)
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.4:
            adj[i, j] = adj[j, i] = 1
    line = encode_graph6(adj)
    assert (decode_graph6(line) == adj).all()
    if n > 62:
        assert line.startswith("~")


def test_graph6_rejects_bad_input():
    with pytest.raises(ParameterError):
        encode_graph6(np.array([[0, 1], [0, 0]], dtype=np.uint8))
    with pytest.raises(ParameterError):
        encode_graph6(np.eye(3, dtype=np.uint8))
    with pytest.raises(ParameterError):
        decode_graph6("B")  # truncated body


def test_design_json_export():
    C = make_configuration(paley(7, 1))
    data = design_to_json(C.n, C.matrix, C.params)
    assert data["points"] == 7 and data["params"] == [7, 3, 1]
    assert len(data["blocks"]) == 7
    assert all(len(b) == 3 for b in data["blocks"])


# -- permutation group order ------------------------------------------------------


def perm(n, mapping):
    g = np.arange(n)
    for a, b in mapping.items():
        g[a] = b
    return g


def test_group_order_oracles():
    n = 5
    cycle = np.roll(np.arange(n), -1)
    swap = perm(n, {0: 1, 1: 0})
    assert _perm_group_order(n, [cycle, swap]) == 120  # symmetric group
    assert _perm_group_order(n, [cycle]) == 5
    assert _perm_group_order(n, []) == 1
    klein = [perm(4, {0: 1, 1: 0, 2: 3, 3: 2}),
             perm(4, {0: 2, 2: 0, 1: 3, 3: 1})]
    assert _perm_group_order(4, klein) == 4
    hexagon = [np.roll(np.arange(6), -1),
               np.array([0, 5, 4, 3, 2, 1])]
    assert _perm_group_order(6, hexagon) == 12  # dihedral
    a4 = [perm(4, {0: 1, 1: 2, 2: 0}), perm(4, {1: 2, 2: 3, 3: 1})]
    assert _perm_group_order(4, a4) == 12  # alternating
    split = [perm(5, {0: 1, 1: 0}), perm(5, {2: 3, 3: 4, 4: 2})]
    assert _perm_group_order(5, split) == 6  # direct product C2 x C3


# -- exact automorphism orders and isomorphism -------------------------------------


@pytest.mark.parametrize("p,m,expected", [
    (5, 1, 10),     # pentagon
    (3, 2, 72),
    (13, 1, 78),
    (17, 1, 136),
])
def test_paley_graph_aut_orders(p, m, expected):
    assert aut_order(make_configuration(paley(p, m))) == expected


@pytest.mark.parametrize("p,expected", [
    (3, 6),      # all point permutations of the trivial 3-point design
    (7, 168),
    (11, 660),
    (19, 171),
    (23, 253),
])
def test_design_aut_orders(p, expected):
    assert aut_order(make_configuration(paley(p, 1))) == expected


def test_iso_test_under_relabeling():
    C = make_configuration(paley(17, 1))
    rng = np.random.default_rng(7)
    perm17 = rng.permutation(C.n)
    relabeled = Configuration(kind=C.kind, p=C.p, n=C.n,
                              matrix=C.matrix[np.ix_(perm17, perm17)],
                              params=C.params)
    assert iso_test(C, relabeled)


def test_iso_test_kind_guard():
    g = make_configuration(paley(5, 1))
    d = make_configuration(paley(7, 1))
    with pytest.raises(ParameterError):
        iso_test(g, d)


def test_budget_is_enforced():
    # the seeded search of the 27-point Paley design visits 8 nodes
    C = make_configuration(paley(3, 3))
    with pytest.raises(BudgetExceededError) as err:
        aut_order(C, budget=3)
    assert err.value.spent > 3
    for budget in (0, -1):
        with pytest.raises(ParameterError):
            aut_order(C, budget=budget)


def test_new_125_scheme_aut_order_and_non_paley():
    new = make_configuration(scheme_of_power(5, 3, 2))
    assert aut_order(new) == 2 ** 3 * 3 * 5 ** 3
    base = make_configuration(paley(5, 3))
    assert not iso_test(new, base)


def test_dual_pair_in_125_matches_its_source():
    b = singer_bundle(5, 1, 3)
    rec = adp_check(5, 1, 3, power_set(b.S, 2, b.v))
    other = make_configuration(certify(build_DX(5, 1, 3, rec.dual),
                                       ("additive",)))
    new = make_configuration(scheme_of_power(5, 3, 2))
    assert other.params == new.params


# -- triple profiles --------------------------------------------------------------


def brute_triples(matrix):
    n = matrix.shape[0]
    hist = {}
    for x, y, z in itertools.combinations(range(n), 3):
        t = int(np.sum(matrix[x] & matrix[y] & matrix[z]))
        hist[t] = hist.get(t, 0) + 1
    return tuple(sorted(hist.items()))


def test_triple_profile_fano_exact():
    C = make_configuration(paley(7, 1))
    assert triple_profile(C) == ((0, 28), (1, 7))
    assert triple_profile(C) == brute_triples(C.matrix)


def test_triple_profile_matches_brute_force_on_eleven():
    C = make_configuration(paley(11, 1))
    assert triple_profile(C) == brute_triples(C.matrix)


def test_triple_profile_invariant_under_relabeling():
    C = make_configuration(paley(19, 1))
    rng = np.random.default_rng(5)
    pperm, bperm = rng.permutation(C.n), rng.permutation(C.n)
    relabeled = Configuration(kind=C.kind, p=C.p, n=C.n,
                              matrix=C.matrix[np.ix_(pperm, bperm)],
                              params=C.params)
    assert triple_profile(C) == triple_profile(relabeled)
    total = sum(c for _, c in triple_profile(C))
    assert total == 19 * 18 * 17 // 6


def test_triple_profile_rejects_graphs():
    with pytest.raises(ParameterError):
        triple_profile(make_configuration(paley(5, 1)))


# -- seeded searches -------------------------------------------------------------


def without_scheme(C):
    """The same configuration, built from its matrix alone: no seeds."""
    return Configuration(kind=C.kind, p=C.p, n=C.n, matrix=C.matrix,
                         params=C.params)


def test_seeds_leave_aut_order_and_certificate_alone():
    for rec in [paley(7, 1), paley(13, 1), paley(3, 3),
                scheme_of_power(5, 3, 2)]:
        assert scheme_seeds(rec)
        seeded = make_configuration(rec)
        plain = without_scheme(seeded)
        assert aut_order(seeded) == aut_order(plain)
        assert canonical_certificate(seeded) == canonical_certificate(plain)


def test_non_automorphism_seeds_are_rejected():
    rng = np.random.default_rng(11)
    for rec in [paley(13, 1), paley(7, 1)]:
        C = make_configuration(rec)
        perm = rng.permutation(C.n)
        relabeled = dataclasses.replace(C, matrix=C.matrix[np.ix_(perm, perm)])
        assert aut_order(without_scheme(relabeled)) == aut_order(C)
        with pytest.raises(InternalInconsistencyError):
            aut_order(relabeled)


# -- development profiles and affine links ----------------------------------------


def raw_record(F, D):
    return SchemeRecord(field=F, e=1, l=F.m, D=tuple(sorted(D)), X=None,
                        provenance="manual", verified_by=frozenset())


def test_development_profile_sums_to_triple_profile():
    rec = paley(3, 3)
    n = rec.n1 + 1
    rows = np.frombuffer(development_profile(rec),
                         dtype=np.int64).reshape(rec.n1, n)
    total = rows.sum(axis=0)
    expect = dict(triple_profile(make_configuration(rec)))
    # each unordered triple of the development shows up n/6 times per
    # ordered difference pair
    for t, count in enumerate(total.tolist()):
        assert expect.get(t, 0) * 6 == count * n


def shift_avoiding_zero(F, D):
    """A nonzero translate g with 0 outside D + g."""
    half = F.n1 // 2
    return next(g for g in range(1, F.n1)
                if (g + half) % F.n1 not in set(D))


def test_development_profile_invariant_under_affine_images():
    rec = scheme_of_power(3, 3, 2)
    base = development_profile(rec)
    assert development_profile(scale(frobenius(rec), 5)) == base
    F = rec.field
    g = shift_avoiding_zero(F, rec.D)
    shifted = np.asarray(F.add_array(np.asarray(rec.D), g)).tolist()
    assert development_profile(raw_record(F, shifted)) == base


def test_development_profile_follows_the_modulus():
    rec = scheme_of_power(3, 3, 2)
    F = rec.field
    G = FiniteField(3, 3, modulus=(1, 0, 2, 1))
    # g_F^17 is a root of x^3 + 2x^2 + 1, so g_G^i -> g_F^(17 i) is a field
    # isomorphism G -> F and the preimage of D is a scheme over G
    root = F.add(F.add(F.pow(17, 3), F.mul(F.dlog_of_int(2), F.pow(17, 2))), 0)
    assert root == ZERO
    inv = pow(17, -1, F.n1)
    image = certify(raw_record(G, [inv * d % F.n1 for d in rec.D]),
                    ("additive",))
    assert development_profile(image) == development_profile(rec)
    assert development_profile(raw_record(F, image.D)) != \
        development_profile(rec)


def test_development_profile_separates_power_and_inverse_at_343():
    a = scheme_of_power(7, 3, 2)
    b = scheme_of_power(7, 3, -1)
    assert development_profile(a) != development_profile(b)


def test_development_profile_rejects_graph_fields():
    with pytest.raises(ParameterError):
        development_profile(paley(13, 1))


def test_affine_link_recovers_translate_of_frobenius_image():
    rec = scheme_of_power(3, 3, 2)
    F = rec.field
    twisted = frobenius(rec)
    g = shift_avoiding_zero(F, twisted.D)
    image = np.asarray(F.add_array(np.asarray(twisted.D), g))
    other = raw_record(F, image.tolist())
    perm = affine_link(rec, other)
    assert perm is not None
    member = np.zeros(F.n1 + 1, dtype=bool)
    member[np.asarray(other.D) + 1] = True
    assert member[perm[np.asarray(rec.D) + 1]].all()


def test_affine_link_with_itself_seeds_the_aut_search():
    rec = scheme_of_power(3, 3, 2)
    perm = affine_link(rec, rec)
    assert perm is not None
    M = make_configuration(rec).matrix
    moved = np.empty_like(M)
    moved[perm, :] = M
    blocks = {col.tobytes() for col in M.T}
    assert {col.tobytes() for col in moved.T} == blocks


def test_affine_link_refuses_impossible_pairs():
    a = scheme_of_power(7, 3, 2)
    b = scheme_of_power(7, 3, -1)
    assert affine_link(a, b) is None
    assert affine_link(raw_record(get_field(3, 3), (0, 1, 2)),
                       paley(3, 3)) is None


def test_affine_link_parameter_errors():
    with pytest.raises(ParameterError):
        affine_link(paley(13, 1), paley(13, 1))
    with pytest.raises(ParameterError):
        affine_link(paley(7, 1), paley(11, 1))
    other = FiniteField(3, 3, modulus=(1, 0, 2, 1))
    with pytest.raises(ParameterError):
        affine_link(paley(3, 3), paley(3, 3, field=other))
