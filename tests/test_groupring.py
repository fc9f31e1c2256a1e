"""Group-ring arithmetic tests with brute-force oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from paleyschemes import ntt
from paleyschemes.errors import ParameterError
from paleyschemes.fields import FiniteField, get_field
from paleyschemes.groupring import (CyclicGroup, FieldAdditiveGroup,
                                    GroupRingElement, ds_quotient,
                                    is_difference_set,
                                    is_relative_difference_set)
from paleyschemes.singer import singer_bundle


def index_digits(F):
    """Row j: the base-p digits of the code of the element at coefficient
    index j, the element of exponent j - 1 (ZERO = -1)."""
    codes = np.concatenate(([0], F.codes))
    return codes[:, None] // F.p ** np.arange(F.m) % F.p


def digits_index(F, digits):
    """The coefficient index of each row of digits, taken mod p."""
    return F.powers[digits % F.p @ F.p ** np.arange(F.m)] + 1


def op_table_row(group, i):
    """Permutation j -> i + j of coefficient indices; in (F, +) the sum is
    digit-wise on the codes."""
    if isinstance(group, CyclicGroup):
        return (np.arange(group.order) + i) % group.order
    digits = index_digits(group.field)
    return digits_index(group.field, digits[i] + digits)


def invert_indices(group, idx):
    """Index of -x for the index of each x."""
    idx = np.asarray(idx, dtype=np.int64)
    if isinstance(group, CyclicGroup):
        return -idx % group.order
    return digits_index(group.field, -index_digits(group.field)[idx])


def brute_convolve(group, a, b):
    """O(n^2) reference convolution using only op_table_row."""
    n = group.order
    out = [0] * n
    for i in range(n):
        if a[i]:
            row = op_table_row(group, i)
            for j in range(n):
                if b[j]:
                    out[int(row[j])] += int(a[i]) * int(b[j])
    return out


def brute_difference_counts(group, subset):
    """Multiset of differences d1 - d2 counted per group index."""
    n = group.order
    counts = [0] * n
    inv = invert_indices(group, np.arange(n))
    for d1 in subset:
        row = op_table_row(group, int(d1))
        for d2 in subset:
            counts[int(row[int(inv[int(d2)])])] += 1
    return counts


# --------------------------------------------------------------------------
# ring axioms and convolution correctness
# --------------------------------------------------------------------------

@pytest.mark.parametrize("group", [CyclicGroup(12), CyclicGroup(13)] + [
    FieldAdditiveGroup(F) for F in (
        get_field(3, 2), get_field(5, 1), get_field(3, 1), get_field(43, 1),
        get_field(59, 1), get_field(5, 2), get_field(7, 2), get_field(11, 2),
        get_field(3, 3), get_field(5, 3), get_field(7, 3), get_field(3, 5),
        # code order follows the modulus; this one is not the default
        FiniteField(3, 3, modulus=(1, 0, 2, 1)))])
def test_convolution_matches_bruteforce(group):
    rng = np.random.default_rng(group.order)
    for _ in range(20):
        a = rng.integers(-4, 5, size=group.order)
        b = rng.integers(-4, 5, size=group.order)
        A = GroupRingElement(group, a)
        B = GroupRingElement(group, b)
        assert list((A * B).coeffs) == brute_convolve(group, a, b)


def test_additive_product_up_to_and_past_its_prime(monkeypatch):
    group = FieldAdditiveGroup(get_field(59, 2))
    a = np.zeros(group.order, dtype=np.int64)
    a[[1, 5]] = 2 ** 14, 2 ** 14 - 1
    # bound (2^15 - 1) 2^14 < 2^29: the prime lies just past 2^30, so each
    # 59-term axis sum, which would wrap int64, runs in slices of 7
    got = (GroupRingElement(group, a) * GroupRingElement(group, a)).coeffs
    assert got.tolist() == brute_convolve(group, a, a)

    def no_transform(*args):
        raise AssertionError("transform ran past the bound guard")

    monkeypatch.setattr(ntt, "_elementary_transform", no_transform)
    a[5] = 2 ** 14  # bound 2^29 needs a prime past 2^31
    with pytest.raises(ParameterError):
        GroupRingElement(group, a) * GroupRingElement(group, a)
    with pytest.raises(ParameterError):
        ntt.convolve_elementary(a, a, 59)


def sparse_element(group, rng, support=24):
    """A random element with `support` nonzero coefficients in [-4, 4]."""
    c = np.zeros(group.order, dtype=np.int64)
    c[rng.choice(group.order, size=support, replace=False)] = \
        rng.choice([-4, -3, -2, -1, 1, 2, 3, 4], size=support)
    return GroupRingElement(group, c)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_product_with_the_inverse_and_a_near_miss(p, m):
    group = FieldAdditiveGroup(get_field(p, m))
    rng = np.random.default_rng(100 * p + m)
    A = sparse_element(group, rng, support=min(24, group.order // 2))
    A_inv = A.power_map(-1)
    # b differs from A^(-1) in one coefficient, so the kernel transforms it
    near = A_inv.coeffs.copy()
    near[rng.integers(group.order)] += 1
    for b in (A_inv.coeffs, near):
        got = A * GroupRingElement(group, b)
        assert got.coeffs.tolist() == brute_convolve(group, A.coeffs, b)


def test_product_with_the_inverse_transforms_one_operand(monkeypatch):
    rows = []
    transform = ntt._elementary_transform

    def spy(x, *args):
        rows.append(int(np.prod(x.shape[:-1])))
        return transform(x, *args)

    monkeypatch.setattr(ntt, "_elementary_transform", spy)
    group = FieldAdditiveGroup(get_field(7, 3))
    A = sparse_element(group, np.random.default_rng(5))
    A * A.power_map(-1)
    assert rows == [1, 1]  # one forward, one inverse
    rows.clear()
    A * A
    assert rows == [2, 1]


@pytest.mark.parametrize("n,mag,primes", [(2, 3, 1), (13, 3, 1),
                                           (200, 10 ** 6, 2), (20011, 3, 1)])
def test_cyclic_product_with_the_inverse_transforms_one_row(monkeypatch, n,
                                                             mag, primes):
    rows, sizes = [], set()
    transform = ntt._transform

    def spy(x, p, roots, out=None):
        # one call per transform, whatever the radices of its length
        rows.append(int(np.prod(x.shape[:-1])))
        sizes.add(x.shape[-1])
        return transform(x, p, roots, out)

    monkeypatch.setattr(ntt, "_transform", spy)
    g = CyclicGroup(n)
    rng = np.random.default_rng(n)
    A = GroupRingElement(g, rng.integers(-mag, mag + 1, size=n))
    # b differs from A^(-1) in one coefficient, so both rows are transformed
    near = A.power_map(-1).coeffs.copy()
    near[rng.integers(n)] += 1
    for b, forward in ((A.power_map(-1).coeffs, 1), (near, 2)):
        rows.clear()
        got = (A * GroupRingElement(g, b)).coeffs
        assert rows == [forward, 1] * primes  # forward rows, one inverse
        lin = np.convolve(A.coeffs, b)
        want = lin[:n].copy()
        want[: n - 1] += lin[n:]
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    # 20011 takes 5 2^13 < 2^16 points, modulo 167772161 alone
    assert sizes == {{2: 4, 13: 32, 200: 512, 20011: 40960}[n]}


def test_transform_reduces_where_int64_would_wrap():
    group = FieldAdditiveGroup(get_field(3, 4))
    rng = np.random.default_rng(8)
    a = rng.integers(-2 ** 11, 2 ** 11, size=group.order)
    b = rng.integers(-2 ** 11, 2 ** 11, size=group.order)
    (a1, a_top), (b1, b_top) = ((int(np.abs(x).sum()), int(np.abs(x).max()))
                                for x in (a, b))
    P = ntt._characters(3, min(a1 * b_top, b1 * a_top).bit_length())[0]
    # the entries would pass 2^63 by the second of the four stages
    assert a_top * (3 * (P - 1)) ** 2 >= 2 ** 63
    got = GroupRingElement(group, a) * GroupRingElement(group, b)
    assert got.coeffs.tolist() == brute_convolve(group, a, b)


def test_ring_axioms_sampled():
    group = FieldAdditiveGroup(get_field(3, 2))
    rng = np.random.default_rng(99)
    I = GroupRingElement.identity(group)
    for _ in range(25):
        a, b, c = (GroupRingElement(group, rng.integers(-3, 4, size=group.order))
                   for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a  # abelian groups only, which is all we have
        assert a * I == a


def test_identity_and_allones():
    g = CyclicGroup(9)
    G = GroupRingElement.all_ones(g)
    D = GroupRingElement.from_indices(g, [1, 4, 7])
    assert (D * G).coeffs.tolist() == [3] * 9
    assert G.coeff_sum() == 9


def test_from_indices_inputs_and_rejections():
    g = CyclicGroup(9)
    expect = [0, 1, 0, 0, 1, 0, 0, 1, 0]
    for indices in ([7, 1, 4], (4, 1, 7), np.array([1, 4, 7]),
                    np.array([7, 4, 1], dtype=np.int32), {1, 4, 7},
                    (i for i in (1, 7, 4)), range(1, 9, 3)):
        assert GroupRingElement.from_indices(g, indices).coeffs.tolist() == \
            expect
    assert GroupRingElement.from_indices(g, []).coeffs.tolist() == [0] * 9
    assert GroupRingElement.from_indices(g, iter(())).coeff_sum() == 0
    for bad, message in (([1, -1], "out of range"), ([0, 9], "out of range"),
                         (np.array([3, 12]), "out of range"),
                         ([2 ** 70], "out of range"),
                         ([1, -2 ** 70], "out of range"),
                         ([2 ** 63], "out of range"),
                         ([2, 5, 2], "distinct"),
                         ((i for i in (4, 4)), "distinct"),
                         (np.array([8, 0, 8]), "distinct")):
        with pytest.raises(ParameterError, match=message):
            GroupRingElement.from_indices(g, bad)


def test_power_map_examples():
    g = CyclicGroup(6)
    D = GroupRingElement.from_indices(g, [1, 2])
    assert D.power_map(2).subset_indices() == (2, 4)
    # accumulation when t is not a unit
    E = GroupRingElement.from_indices(g, [0, 3])
    assert E.power_map(2).coeffs.tolist() == [2, 0, 0, 0, 0, 0]


def test_power_map_is_ring_homomorphism_for_units():
    g = CyclicGroup(13)
    rng = np.random.default_rng(4)
    for t in (1, 2, 5, 12):
        for _ in range(10):
            a = GroupRingElement(g, rng.integers(-3, 4, size=13))
            b = GroupRingElement(g, rng.integers(-3, 4, size=13))
            assert (a * b).power_map(t) == a.power_map(t) * b.power_map(t)
            assert a.power_map(t).coeff_sum() == a.coeff_sum()


def test_power_map_composition():
    g = CyclicGroup(20)
    rng = np.random.default_rng(8)
    a = GroupRingElement(g, rng.integers(-3, 4, size=20))
    assert a.power_map(3).power_map(7) == a.power_map(21)


def test_field_additive_power_map_is_scalar_multiple():
    F = get_field(5, 1)
    g = FieldAdditiveGroup(F)
    # indices 1+e <-> g^e; elements of F_5 are 0,1,2,3,4 with g = 2 or 3
    D = GroupRingElement.from_indices(g, [1])  # the element 1 = g^0
    doubled = D.power_map(2)
    # 2 * 1 = 2; its index is 1 + dlog(2)
    assert doubled.subset_indices() == (1 + F.dlog_of_int(2),)
    tripled = D.power_map(5)  # 5 = 0 in F_5: everything collapses to zero elt
    assert tripled.subset_indices() == (0,)


def test_group_mismatch_raises():
    a = GroupRingElement.identity(CyclicGroup(4))
    b = GroupRingElement.identity(CyclicGroup(5))
    with pytest.raises(ParameterError):
        a * b


def test_overflow_escalates_to_exact():
    g = CyclicGroup(3)
    big = 2 ** 40
    a = GroupRingElement(g, np.array([big, big, big], dtype=np.int64))
    prod = a * a
    assert prod.coeffs[0] == 3 * big * big  # > 2^63, must not wrap


def test_ntt_matches_schoolbook(monkeypatch):
    rng = np.random.default_rng(123)
    for n, m in [(1, 1), (5, 9), (64, 64), (200, 133), (1000, 1000)]:
        a = rng.integers(-10 ** 6, 10 ** 6, size=n)
        b = rng.integers(-10 ** 6, 10 ** 6, size=m)
        want = np.convolve(a, b)
        got = ntt.convolve_exact(a, b)
        assert [int(x) for x in got] == [int(x) for x in want]
    # magnitudes whose coefficient bound needs exactly one, two and three
    # primes, and a length past 20000; the oracle stays inside int64
    primes_used = []
    conv_mod = ntt._conv_mod

    def spy(a, b, p, size):
        primes_used.append(p)
        return conv_mod(a, b, p, size)

    monkeypatch.setattr(ntt, "_conv_mod", spy)
    for n, m, mag, primes in [(300, 500, 10 ** 2, 1), (200, 133, 10 ** 3, 1),
                              (200, 133, 10 ** 6, 2), (100, 100, 10 ** 8, 3),
                              (20011, 20011, 2, 1)]:
        a = rng.integers(-mag, mag, size=n)
        b = rng.integers(-mag, mag, size=m)
        primes_used.clear()
        got = ntt.convolve_exact(a, b)
        assert len(primes_used) == primes
        assert got.dtype == np.int64
        assert np.array_equal(got, np.convolve(a, b))


def test_one_prime_result_is_centred_just_inside_half_the_prime():
    """Coefficients at and next to +-(P - 1)/2 for P = 998244353, the one
    prime the bound asks for, against exact Python integers."""
    P = ntt._PRIMES[0]
    B = P // 4  # (1, -1) times b has coefficients b_k - b_(k-1)
    a = np.array([1, -1])
    b = np.array([B, -B, B, B - 1, -B, 0, -(B - 1), B])
    assert 2 * (2 * B) < P  # |a|_1 |b|_inf: one prime
    want = [sum(int(a[i]) * int(b[k - i]) for i in range(len(a))
                if 0 <= k - i < len(b)) for k in range(len(a) + len(b) - 1)]
    assert {P // 2, -(P // 2), P // 2 - 1, -(P // 2 - 1)} <= set(want)
    got = ntt.convolve_exact(a, b)
    assert got.dtype == np.int64
    assert got.tolist() == want


def loop_transform(x, p, roots):
    """The Stockham NTT with one concatenation per stage, in int64: the
    oracle for `ntt._transform`."""
    roots = roots.astype(np.int64)
    size = x.shape[-1]
    x = x.astype(np.int64).reshape(*x.shape[:-1], 1, size)
    while x.shape[-2] < size:
        m, half = x.shape[-2], x.shape[-1] // 2
        even = x[..., :half]
        odd = x[..., half:] * roots[::size // (2 * m), None] % p
        s, d = even + odd - p, even - odd
        x = np.concatenate((s + ((s >> 63) & p), d + ((d >> 63) & p)), axis=-2)
    return x.reshape(*x.shape[:-2], size)


def test_transform_matches_the_concatenating_oracle():
    rng = np.random.default_rng(17)
    for p in ntt._PRIMES:
        for k in range(13):
            size = 1 << k
            roots = ntt._roots(p, size)
            for shape in [(size,), (2, size)]:
                for x in (rng.integers(0, p, size=shape),
                          np.zeros(shape, dtype=np.int64),
                          np.full(shape, p - 1)):
                    x = x.astype(np.uint64)
                    before = x.copy()
                    got = ntt._transform(x, p, roots)
                    assert got.shape == shape and got.dtype == np.uint64
                    assert np.array_equal(got, loop_transform(x, p, roots))
                    assert np.array_equal(x, before)
    # entries grow by p per lazy stage, so 998244353 reduces them before
    # stage 19: 2^19 is the shortest transform that does
    p, size = ntt._PRIMES[0], 1 << 19
    roots = ntt._roots(p, size)
    for x in (rng.integers(0, p, size=size), np.full(size, p - 1)):
        x = x.astype(np.uint64)
        assert np.array_equal(ntt._transform(x, p, roots),
                              loop_transform(x, p, roots))


def test_transform_reduces_between_stages_below_2_31():
    # 2013265921 = 15 2^27 + 1, primitive root 31: entries below (k + 1) p
    # after k lazy stages could pass 2^64 from stage 4 on, so the rule
    # reduces them there; the oracle's int64 products stay exact below 2^31
    p = 2013265921
    assert 4 * p * (p - 1) < 2 ** 64 <= (5 * p - 1) * (p - 1)
    rng = np.random.default_rng(31)
    for k in range(8, 13):
        size = 1 << k
        w = pow(31, (p - 1) // size, p)
        roots = np.array([pow(w, j, p) for j in range(size // 2)],
                         dtype=np.uint64)
        for x in (rng.integers(0, p, size=size), np.full(size, p - 1)):
            x = x.astype(np.uint64)
            assert np.array_equal(ntt._transform(x, p, roots),
                                  loop_transform(x, p, roots))


def test_transform_at_five_times_a_power_of_two_matches_the_dft():
    """The radix-5 stage and the radix-2 stages after it, against the
    matrix w^(jk) in Python integers; `out` = x writes the result back."""
    p = ntt._PRIMES[-1]
    rng = np.random.default_rng(5)
    for k in range(6):
        size = 5 << k
        roots = ntt._roots(p, size)
        w = pow(ntt._GEN, (p - 1) // size, p)
        dft = np.array([[pow(w, i * j, p) for j in range(size)]
                        for i in range(size)], dtype=object)
        for shape in [(size,), (2, size)]:
            for x in (rng.integers(0, p, size=shape),
                      np.full(shape, p - 1)):
                x = x.astype(np.uint64)
                want = (x.astype(object) @ dft.T % p).astype(np.uint64)
                before = x.copy()
                assert np.array_equal(ntt._transform(x, p, roots), want)
                assert np.array_equal(x, before)
                assert ntt._transform(x, p, roots, out=x) is x
                assert np.array_equal(x, want)


def test_every_product_to_300_coefficients_is_exact():
    # n = 3 runs at 8 points, not 5 = 2n - 1; from n = 5 on the lengths
    # 5 2^k take their turn with the powers of two
    rng = np.random.default_rng(300)
    for n in range(1, 301):
        a = rng.integers(-4, 5, size=n)
        inv = np.concatenate((a[:1], a[:0:-1]))
        b = rng.integers(-4, 5, size=rng.integers(1, 301))
        for b in (inv, b):
            got = ntt.convolve_exact(a, b)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.convolve(a, b))


@pytest.mark.parametrize("n,size", [(19531, 40960), (9841, 20480),
                                    (78124, 163840), (19682, 40960)])
def test_certify_lengths_match_the_power_of_two_path(n, size):
    """The route and bundle products of 5^7 and 3^9 at 5 2^k points modulo
    167772161 against the power of two modulo 998244353."""
    rng = np.random.default_rng(n)
    a = rng.integers(0, 2, size=n)
    P = ntt._PRIMES[0]
    two = ntt.transform_size(2 * n - 1)
    for b, inverse in ((np.concatenate((a[:1], a[:0:-1])), True),
                       (rng.integers(-1, 2, size=n), False)):
        bound = int(a.sum())
        assert ntt._plan(2 * n - 1, bound) == ((ntt._PRIMES[-1],), size)
        want = ntt._crt([ntt._conv_mod(a, None if inverse else b, P, two)],
                        (P,))
        assert np.array_equal(ntt.convolve_exact(a, b), want)


def test_every_planned_length_is_one_its_primes_support():
    """A length the prime has no root of unity for returns wrong
    coefficients without an error, so every length at each boundary
    2^k +- 1 and 5 2^k +- 1 up to 2^23 must divide p - 1 of each prime,
    and exceed out_len when it is 5 2^k (odd out_len = 2n - 1 of an
    inverse product needs an even length)."""
    ends = sorted({c << k for c in (1, 5) for k in range(24)
                   if c << k <= 1 << 23})
    lengths = sorted({e + d for e in ends for d in (-1, 0, 1)
                      if 1 <= e + d <= 1 << 23})
    fives = 0
    for out_len in lengths:
        # one prime of each kind, then two and three primes
        for bound in (1, 10 ** 8, 4 * 10 ** 8, 10 ** 12, 10 ** 20):
            primes, size = ntt._plan(out_len, bound)
            assert out_len <= size <= 1 << 23
            assert all((p - 1) % size == 0 for p in primes)
            assert math.prod(primes) > 2 * bound
            if size % 5 == 0:
                fives += 1
                assert size > out_len and primes == (167772161,)
                assert size < ntt.transform_size(out_len)
    assert fives > 0


def test_bundle_check_at_5_7_holds_few_bytes_per_point():
    """R R^(-1) over Z_78124, the 5^7 bundle's self-check, at 163840
    points: numpy's buffers are traced, and the peak after a warm-up
    call stays below 9 MiB (14.1 MiB at 2^18 points, with a ping-pong
    pair and a scratch buffer beside each transform's input)."""
    R = np.zeros(5 ** 7 - 1, dtype=np.int64)
    R[list(singer_bundle(5, 1, 7).R)] = 1
    inv = np.concatenate((R[:1], R[:0:-1]))
    ntt.convolve_exact(R, inv)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ntt.convolve_exact(R, inv)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2 ** 20


def test_ntt_refuses_lengths_past_its_roots_of_unity(monkeypatch):
    def no_transform(*args):
        raise AssertionError("transform ran past the size guard")

    monkeypatch.setattr(ntt, "_conv_mod", no_transform)
    a = np.zeros(2 ** 22 + 1, dtype=np.int64)  # padded length 2^24
    with pytest.raises(ParameterError):
        ntt.convolve_exact(a, a)


def test_ntt_refuses_bounds_past_its_primes(monkeypatch):
    def no_transform(*args):
        raise AssertionError("transform ran past the bound guard")

    monkeypatch.setattr(ntt, "_conv_mod", no_transform)
    a = np.full(2, 2 ** 45, dtype=np.int64)  # bound 2^91 > prod(primes) / 2
    with pytest.raises(ParameterError):
        ntt.convolve_exact(a, a)
    with pytest.raises(ParameterError):
        GroupRingElement(CyclicGroup(2), a) * GroupRingElement(CyclicGroup(2), a)


def test_cyclic_product_past_20000_is_the_folded_linear_product():
    n = 20011
    rng = np.random.default_rng(n)
    a = rng.integers(0, 2, size=n)
    b = rng.integers(-1, 2, size=n)
    lin = np.convolve(a, b)
    want = lin[:n].copy()
    want[: n - 1] += lin[n:]
    g = CyclicGroup(n)
    got = (GroupRingElement(g, a) * GroupRingElement(g, b)).coeffs
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


# --------------------------------------------------------------------------
# difference sets
# --------------------------------------------------------------------------

def test_quadratic_residues_mod_7():
    g = CyclicGroup(7)
    D = GroupRingElement.from_indices(g, [1, 2, 4])
    prod = D * D.power_map(-1)
    assert prod.coeffs.tolist() == [3, 1, 1, 1, 1, 1, 1]
    assert is_difference_set(D, 7, 3, 1)
    assert not is_difference_set(GroupRingElement.from_indices(g, [1, 2, 3]), 7, 3, 1)


def test_difference_set_parameter_sanity():
    g = CyclicGroup(7)
    D = GroupRingElement.from_indices(g, [1, 2, 4])
    with pytest.raises(ParameterError):
        is_difference_set(D, 7, 3, 2)  # k(k-1) != lam(v-1)


def test_full_group_is_a_difference_set():
    g = CyclicGroup(5)
    G = GroupRingElement.all_ones(g)
    assert is_difference_set(G, 5, 5, 5)


def test_difference_set_matches_bruteforce_on_random_subsets():
    rng = np.random.default_rng(2026)
    groups = [CyclicGroup(n) for n in range(2, 32)]
    groups += [FieldAdditiveGroup(get_field(3, 2)),
               FieldAdditiveGroup(get_field(5, 2)),
               FieldAdditiveGroup(get_field(3, 3))]
    checked = 0
    for g in groups:
        v = g.order
        for _ in range(7):
            k = int(rng.integers(1, v + 1))
            subset = rng.choice(v, size=k, replace=False)
            counts = brute_difference_counts(g, subset)
            D = GroupRingElement.from_indices(g, subset)
            consistent = [lam for lam in range(k + 1)
                          if k * (k - 1) == lam * (v - 1)]
            for lam in consistent:
                brute_verdict = (counts[0] == k
                                 and all(c == lam for c in counts[1:]))
                assert is_difference_set(D, v, k, lam) == brute_verdict
            if not consistent:
                with pytest.raises(ParameterError):
                    is_difference_set(D, v, k, k % (v - 1) if v > 1 else 0)
            checked += 1
    assert checked >= 200


def test_relative_difference_set_singer_like():
    # a (4,2,4,2)-RDS in Z_8 relative to {0,4}: quadratic-ish example
    g = CyclicGroup(8)
    # D = {0,1,3} is not one; build one from the field construction instead:
    # trace-one elements of F_9 over F_3 in Z_8 relative to F_3^* = {0,4}
    F = get_field(3, 2)
    te = F.trace_exponents(1)
    D = GroupRingElement.from_indices(g, np.flatnonzero(te == 0))
    assert is_relative_difference_set(D, 4, 2, 3, 1)


def test_relative_difference_set_degenerate_params():
    g = CyclicGroup(4)
    D = GroupRingElement.all_ones(g)
    with pytest.raises(ParameterError):
        is_relative_difference_set(D, 1, 4, 4, 4)
    additive = FieldAdditiveGroup(get_field(3, 2))
    with pytest.raises(ParameterError):  # N = <m> needs a cyclic group
        is_relative_difference_set(
            GroupRingElement.from_indices(additive, [1, 2, 3]), 3, 3, 3, 1)


# --------------------------------------------------------------------------
# exact quotient
# --------------------------------------------------------------------------

def _paley_ds(v):
    return GroupRingElement.from_indices(
        CyclicGroup(v), sorted({pow(a, 2, v) for a in range(1, v)}))


def test_ds_quotient_recovers_known_factor():
    A = _paley_ds(11)  # (11,5,2) difference set
    g = A.group
    Q = GroupRingElement.from_indices(g, [0, 2, 7])
    P = Q * A
    got = ds_quotient(P, A, (11, 5, 2))
    assert got == Q


def test_ds_quotient_rejects_non_multiples():
    A = _paley_ds(11)
    g = A.group
    P = GroupRingElement.from_indices(g, [0, 1])
    assert ds_quotient(P, A, (11, 5, 2)) is None


def test_ds_quotient_requires_difference_set():
    g = CyclicGroup(11)
    bad = GroupRingElement.from_indices(g, [0, 1, 2, 3, 4])
    P = GroupRingElement.identity(g)
    with pytest.raises(ParameterError):
        ds_quotient(P, bad, (11, 5, 2))


def test_ds_quotient_random_products_roundtrip():
    A = _paley_ds(19)  # (19,9,4)
    g = A.group
    rng = np.random.default_rng(55)
    for _ in range(20):
        q = rng.integers(0, 3, size=19)
        Q = GroupRingElement(g, q)
        assert ds_quotient(Q * A, A, (19, 9, 4)) == Q
