from dataclasses import replace

import numpy as np
import pytest

from paleyschemes.errors import InternalInconsistencyError, ParameterError
from paleyschemes.fields import ZERO, FiniteField, get_field
from paleyschemes.groupring import CyclicGroup, GroupRingElement, is_difference_set
from paleyschemes.singer import (_verify_bundle, _weighing_from_R,
                                 build_singer_bundle, gmw_components,
                                 singer_bundle)

TOWERS = [
    (3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 1, 5),
    (5, 1, 2), (5, 1, 3), (7, 1, 3), (3, 2, 2), (3, 2, 3),
]


# Independent oracle: trace-one exponents via raw polynomial arithmetic,
# no Zech tables involved.

def poly_mul_mod(a, b, mod, p):
    deg = len(mod) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    for i in range(len(out) - 1, deg - 1, -1):
        c = out[i]
        if c:
            for j in range(deg + 1):
                out[i - deg + j] = (out[i - deg + j] - c * mod[j]) % p
    out = out[:deg]
    return out + [0] * (deg - len(out))


def oracle_trace_one(field, e):
    """Exponents i with tr_{p^m/p^e}(g^i) = 1, by plain poly arithmetic."""
    p, m = field.p, field.m
    mod = list(field.modulus)
    deg = m
    if deg > 1:
        x = [0, 1] + [0] * (deg - 2)
    else:
        x = [(-mod[0]) % p]
    powers = []
    cur = [1] + [0] * (deg - 1)
    for _ in range(field.n1):
        powers.append(cur)
        cur = poly_mul_mod(cur, x, mod, p)
    assert cur == [1] + [0] * (deg - 1)

    def poly_pow(a, k):
        r = [1] + [0] * (deg - 1)
        while k:
            if k & 1:
                r = poly_mul_mod(r, a, mod, p)
            a = poly_mul_mod(a, a, mod, p)
            k >>= 1
        return r

    q = p ** e
    one = [1] + [0] * (deg - 1)
    out = []
    for i, a in enumerate(powers):
        acc = [0] * deg
        for j in range(m // e):
            t = poly_pow(a, q ** j)
            acc = [(u + w) % p for u, w in zip(acc, t)]
        if acc == one:
            out.append(i)
    return out


def test_f9_trace_one_by_hand():
    # x^2 + x + 2, g = x: tr(g^4) = tr(g^5) = tr(g^7) = 1, nothing else
    b = singer_bundle(3, 1, 2)
    assert b.R == (4, 5, 7)
    assert b.S == (0, 1, 3)
    assert b.W is None
    assert b.ds_params() == (4, 3, 2)
    assert b.rds_params() == (4, 2, 3, 1)


@pytest.mark.parametrize("p,e,l", [(3, 1, 2), (3, 1, 3), (5, 1, 2), (3, 2, 2)])
def test_trace_one_matches_poly_oracle(p, e, l):
    b = singer_bundle(p, e, l)
    assert list(b.R) == oracle_trace_one(b.field, e)


@pytest.mark.parametrize("p,e,l", TOWERS)
def test_bundle_shapes(p, e, l):
    b = singer_bundle(p, e, l)
    q = p ** e
    assert len(b.R) == q ** (l - 1)
    assert len(b.S) == q ** (l - 1)
    assert b.v == (q ** l - 1) // (q - 1)
    if l % 2 == 1:
        W = np.array(b.W)
        assert sorted(set(W.tolist())) <= [-1, 0, 1]
        assert np.count_nonzero(W == 0) == (q ** (l - 1) - 1) // (q - 1)
    else:
        assert b.W is None



# -- properties the bundle check derives instead of checking -------------------
# Oracles here count differences in plain numpy, away from the group-ring
# product that the bundle check itself runs.


def difference_counts(D, n):
    D = np.asarray(D, dtype=np.int64)
    return np.bincount(((D[:, None] - D[None, :]) % n).ravel(), minlength=n)


def is_ds(D, v, k, lam):
    expect = np.full(v, lam, dtype=np.int64)
    expect[0] = k
    return len(D) == k and np.array_equal(difference_counts(D, v), expect)


def is_singer_rds(b, R):
    """R R^(-1) = q^(l-1) + q^(l-2) (G - N) with N the multiples of v."""
    expect = np.full(b.n1, b.q ** (b.l - 2), dtype=np.int64)
    expect[::b.v] = 0
    expect[0] = b.q ** (b.l - 1)
    return np.array_equal(difference_counts(R, b.n1), expect)


@pytest.mark.parametrize("p,e,l", TOWERS)
def test_derived_bundle_properties(p, e, l):
    b = singer_bundle(p, e, l)
    q, v = b.q, b.v
    assert is_ds(b.S, *b.ds_params())
    comp = np.setdiff1d(np.arange(v), b.S)
    assert is_ds(comp, v, (q ** (l - 1) - 1) // (q - 1),
                 (q ** (l - 2) - 1) // (q - 1))
    trace_zero = np.flatnonzero(b.field.trace_exponents(e) == ZERO)
    zero_cosets = np.unique(trace_zero % v)
    assert len(zero_cosets) == (q ** (l - 1) - 1) // (q - 1)
    assert np.array_equal(zero_cosets, comp)
    if l % 2 == 1:
        W = np.array(b.W, dtype=np.int64)
        corr = np.array([W @ np.roll(W, d) for d in range(v)])
        expect = np.zeros(v, dtype=np.int64)
        expect[0] = q ** (l - 1)
        assert np.array_equal(corr, expect)
        assert int(W.sum()) ** 2 == q ** (l - 1)


# -- mutants of a bundle ------------------------------------------------------


def mutant(b, R):
    """The bundle with R replaced and S, W rebuilt from it as the builder does."""
    R = np.sort(np.asarray(list(R), dtype=np.int64))
    W = tuple(_weighing_from_R(R, b.v).tolist()) if b.l % 2 == 1 else None
    return replace(b, R=tuple(R.tolist()),
                   S=tuple(np.unique(R % b.v).tolist()), W=W)


def verify(b):
    """`_verify_bundle` on arrays of b's R, S and W, as the builder holds."""
    W = None if b.W is None else np.array(b.W, dtype=np.int64)
    _verify_bundle(b, np.array(b.R, dtype=np.int64),
                   np.array(b.S, dtype=np.int64), W)


def orbit(r, p, n):
    out = [r]
    while (nxt := out[-1] * p % n) != r:
        out.append(nxt)
    return out


def is_consistent(b, R):
    """Oracle for everything the bundle check asks of R."""
    R = list(R)
    return (len(R) == b.q ** (b.l - 1)
            and len({r % b.v for r in R}) == len(R)
            and {r * b.p % b.n1 for r in R} == set(R)
            and is_singer_rds(b, R))


@pytest.mark.parametrize("p,e,l", TOWERS)
def test_single_replacements_in_R_are_rejected(p, e, l):
    b = singer_bundle(p, e, l)
    R = set(b.R)
    free_coset = min(set(range(b.v)) - set(b.S))
    rejected = 0
    for r in b.R:
        for x in ((r + b.v) % b.n1, free_coset):
            mut = mutant(b, R - {r} | {x})
            if is_consistent(b, mut.R):
                verify(mut)
            else:
                with pytest.raises(InternalInconsistencyError):
                    verify(mut)
                rejected += 1
    assert rejected >= len(b.R)


@pytest.mark.parametrize("p,e,l", TOWERS)
def test_frobenius_stable_orbit_swaps_meet_the_rds_check(p, e, l):
    # Moving a whole p-orbit of R into the same cosets keeps |R|, the
    # distinct cosets, S and Frobenius stability, so only the RDS
    # identity can tell such a mutant from a Singer bundle.
    b = singer_bundle(p, e, l)
    R = set(b.R)
    rejected = 0
    for r in b.R:
        O = orbit(r, p, b.n1)
        if min(O) != r:
            continue
        for j in range(1, b.q - 1):
            moved = orbit((r + j * b.v) % b.n1, p, b.n1)
            if len(moved) != len(O):
                continue
            mut = mutant(b, R - set(O) | set(moved))
            assert mut.S == b.S
            if is_singer_rds(b, mut.R):
                verify(mut)
            else:
                with pytest.raises(InternalInconsistencyError,
                                   match="relative difference set"):
                    verify(mut)
                rejected += 1
    assert rejected or b.n1 == 8  # in F_9 both swaps are RDSs again


@pytest.mark.parametrize("p,e,l", TOWERS)
def test_broken_S_W_or_frobenius_is_rejected(p, e, l):
    b = singer_bundle(p, e, l)
    with pytest.raises(InternalInconsistencyError, match="projection"):
        verify(replace(b, S=b.S[1:]))
    if l % 2 == 1:
        W = list(b.W)
        W[b.S[0]] = -W[b.S[0]]
        with pytest.raises(InternalInconsistencyError, match="signed"):
            verify(replace(b, W=tuple(W)))
    r = next(r for r in b.R if len(orbit(r, p, b.n1)) > 1)
    mut = mutant(b, set(b.R) - {r} | {(r + b.v) % b.n1})
    with pytest.raises(InternalInconsistencyError, match="multiplier p"):
        verify(mut)


def test_weighing_autocorrelation_oracle():
    b = singer_bundle(3, 1, 3)
    W = np.array(b.W, dtype=np.int64)
    v = b.v
    full = np.convolve(W, W[::-1])  # index v-1 offset gives cyclic corr
    corr = np.zeros(v, dtype=np.int64)
    for k in range(len(full)):
        corr[(k - (v - 1)) % v] += full[k]
    expect = np.zeros(v, dtype=np.int64)
    expect[0] = 9
    assert np.array_equal(corr, expect)
    assert abs(sum(b.W)) == 3


def test_weighing_sign_is_exponent_parity():
    b = singer_bundle(3, 1, 5)
    W = np.array(b.W)
    for r in b.R:
        assert W[r % b.v] == (1 if r % 2 == 0 else -1)


def test_degenerate_single_layer():
    b = singer_bundle(3, 1, 1)
    assert b.v == 1
    assert b.R == (0,)
    assert b.S == (0,)
    assert b.W == (1,)


def test_bundle_is_cached():
    assert singer_bundle(3, 1, 3) is singer_bundle(3, 1, 3)


def test_alternate_modulus_still_verifies():
    F = FiniteField(3, 2, modulus=(2, 2, 1))  # x^2 + 2x + 2, also primitive
    b = build_singer_bundle(3, 1, 2, field=F)
    assert b.R != (4, 5, 7)  # different presentation
    assert len(b.R) == 3


def test_field_mismatch_rejected():
    with pytest.raises(ParameterError):
        build_singer_bundle(3, 1, 2, field=get_field(3, 3))
    with pytest.raises(ParameterError):
        build_singer_bundle(3, 1, 0)


def test_a_self_check_past_the_transform_cap_is_refused_before_the_field(
        monkeypatch):
    built = []
    real = FiniteField.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(FiniteField, "__init__", spy)
    # R * R^(-1) at 3^15 has 2 (3^15 - 1) - 1 coefficients: a 2^25 transform
    with pytest.raises(ParameterError, match="2\\^23"):
        singer_bundle(3, 1, 15)
    assert built == []


# -- GMW composition ----------------------------------------------------------

def test_gmw_small_tower_composition_bruteforce():
    c = gmw_components(3, 1, 2, 2)  # F_81 over F_9 over F_3
    assert len(c.rtilde) == 9
    assert len(c.s_sub) == 3
    assert len(c.s_big) == 27
    assert c.v_st == 40 and c.v_t == 4 and c.embed_step == 10
    counts = np.zeros(c.v_st, dtype=np.int64)
    for a in c.rtilde:
        for b in c.embed(c.s_sub):
            counts[(a + b) % c.v_st] += 1
    indicator = np.zeros(c.v_st, dtype=np.int64)
    indicator[list(c.s_big)] = 1
    assert np.array_equal(counts, indicator)


def test_gmw_sub_layer_objects():
    c = gmw_components(3, 1, 3, 2)  # F_729, middle layer F_27
    Gv = CyclicGroup(c.v_t)
    Ssub = GroupRingElement.from_indices(Gv, c.s_sub)
    assert is_difference_set(Ssub, c.v_t, 9, 6)
    W = np.array(c.w_sub, dtype=np.int64)
    Wel = GroupRingElement(Gv, W)
    prod = Wel * Wel.power_map(-1)
    expect = np.zeros(c.v_t, dtype=np.int64)
    expect[0] = 9
    assert np.array_equal(prod.coeffs, expect)


def test_gmw_big_set_agrees_with_singer():
    c = gmw_components(3, 1, 2, 2)
    assert c.s_big == singer_bundle(3, 1, 4).S


def test_gmw_frobenius_stability():
    c = gmw_components(3, 1, 3, 2)
    rt = set(c.rtilde)
    assert {(r * 3) % c.v_st for r in rt} == rt


def test_gmw_even_middle_layer_has_no_weighing():
    c = gmw_components(3, 1, 2, 2)
    assert len(c.w_sub) == 0


def test_gmw_needs_two_layers():
    with pytest.raises(ParameterError):
        gmw_components(3, 1, 2, 1)


@pytest.mark.parametrize("p,e,t,s", [
    (3, 1, 2, 2), (3, 1, 3, 2), (3, 1, 3, 3), (3, 1, 1, 3), (5, 1, 1, 3),
    (3, 2, 1, 3), (5, 1, 3, 2), (7, 1, 1, 3), (3, 1, 2, 3)])
def test_gmw_sub_layer_matches_the_scalar_trace(p, e, t, s):
    # oracle: tr_{q^t/q}(y) = y + y^q + ... + y^(q^(t-1)) for each y = g^(j u)
    # of F_{q^t}^*, by scalar field additions
    c = gmw_components(p, e, t, s)
    F, q = c.field, c.q
    u = (q ** (s * t) - 1) // (q ** t - 1)
    R_sub = []
    for j in range(q ** t - 1):
        acc = ZERO
        for i in range(t):
            acc = F.add(acc, F.pow(j * u, q ** i))
        if acc == 0:
            R_sub.append(j)
    assert c.s_sub == tuple(sorted(j % c.v_t for j in R_sub))
    if t % 2 == 1:
        assert c.w_sub == tuple(_weighing_from_R(np.array(R_sub), c.v_t))


def test_gmw_flagship_tower():
    c = gmw_components(3, 1, 3, 3)  # F_3^9, v = 9841
    assert c.v_st == 9841
    assert len(c.rtilde) == 729
    assert len(c.s_big) == 6561
    assert c.s_big == singer_bundle(3, 1, 9).S
