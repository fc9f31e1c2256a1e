"""Field-layer tests against a small independent polynomial oracle.

The oracle below does plain coefficient-vector arithmetic modulo the
defining polynomial, with no code tables, so table bugs cannot hide.
The code tables are also compared with a reference construction that
shares nothing with the shift-register build: x^i as coefficient rows
times powers of the companion matrix.
"""

import numpy as np
import pytest

from paleyschemes import fields
from paleyschemes.errors import InternalInconsistencyError, ParameterError
from paleyschemes.fields import ZERO, FiniteField, get_field


# --------------------------------------------------------------------------
# oracle helpers (deliberately naive)
# --------------------------------------------------------------------------

def poly_mul_mod(a, b, modulus, p):
    m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for top in range(len(prod) - 1, m - 1, -1):
        c = prod[top]
        if c:
            for j in range(m + 1):
                prod[top - m + j] = (prod[top - m + j] - c * modulus[j]) % p
    out = prod[:m] + [0] * max(0, m - len(prod))
    return [c % p for c in out]


def poly_powers_of_x(modulus, p, count):
    m = len(modulus) - 1
    x = [0, 1][:m] + [0] * max(0, m - 2)
    if m == 1:
        x = [(-modulus[0]) % p]
    cur = [1] + [0] * (m - 1)
    out = [cur]
    for _ in range(count - 1):
        cur = poly_mul_mod(cur, x, modulus, p)
        out.append(cur)
    return out


def naive_is_primitive(modulus, p):
    m = len(modulus) - 1
    n1 = p ** m - 1
    pw = poly_powers_of_x(modulus, p, n1 + 1)
    one = [1] + [0] * (m - 1)
    first = next((i for i in range(1, n1 + 1) if pw[i] == one), None)
    return first == n1


def naive_smallest_primitive(p, m):
    best = None
    for code in range(p ** m):
        coeffs = []
        t = code
        for _ in range(m):
            coeffs.append(t % p)
            t //= p
        coeffs.append(1)
        # skip polynomials with x as a factor quickly
        if coeffs[0] == 0:
            continue
        if naive_is_primitive(coeffs, p):
            best = tuple(coeffs)
            break
    return best


# --------------------------------------------------------------------------
# default modulus selection
# --------------------------------------------------------------------------

def test_default_modulus_f9():
    F = get_field(3, 2)
    assert F.modulus == (2, 1, 1)  # x^2 + x + 2


def test_default_modulus_f27():
    F = get_field(3, 3)
    assert F.modulus == (1, 2, 0, 1)  # x^3 + 2x + 1


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2), (7, 2), (11, 1), (13, 1)])
def test_default_modulus_matches_naive_enumeration(p, m):
    F = get_field(p, m)
    assert F.modulus == naive_smallest_primitive(p, m)


@pytest.mark.parametrize("p,m,modulus", [
    (3, 9, (1, 0, 1, 2, 0, 0, 0, 0, 0, 1)),
    (5, 7, (2, 3, 0, 0, 0, 0, 0, 1)),
    (3, 11, (1, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (3, 12, (2, 2, 2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 1)),
])
def test_default_modulus_pinned(p, m, modulus):
    assert get_field(p, m).modulus == modulus


def every_tested_field():
    """Every odd prime power up to 343, and the larger fields the suite
    builds (3^5 ... 3^15, 5^4 ... 5^7, 7^4, 7^5, 11^3, 13^3, 59^2)."""
    out = [(p, m) for p in range(3, 344, 2) if fields.is_prime(p)
           for m in range(1, 6) if p ** m <= 343]
    out += [(3, m) for m in range(6, 16)] + [(5, m) for m in range(4, 8)]
    return out + [(7, 4), (7, 5), (11, 3), (13, 3), (59, 2)]


def test_default_modulus_filters_do_not_move_the_choice():
    """The norm and root filters only skip candidates that are not
    primitive: the first primitive candidate of the plain loop wins."""
    import itertools
    for p, m in every_tested_field():
        plain = next(tail[::-1] + (1,)
                     for tail in itertools.product(range(p), repeat=m)
                     if fields._is_primitive(tail[::-1] + (1,), p))
        assert fields._default_modulus(p, m) == plain, (p, m)


def monic_polynomials(p, m):
    for code in range(p ** m):
        yield [code // p ** j % p for j in range(m)] + [1]


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2),
                                 (5, 3), (7, 2), (11, 1)])
def test_supplied_modulus_accepted_iff_primitive(p, m):
    """Every monic modulus: accepted iff primitive, then exact tables."""
    for modulus in monic_polynomials(p, m):
        if not naive_is_primitive(modulus, p):
            with pytest.raises(ParameterError):
                FiniteField(p, m, modulus=modulus)
            continue
        F = FiniteField(p, m, modulus=modulus)
        pw = poly_powers_of_x(modulus, p, F.n1)
        code = {tuple(v): i for i, v in enumerate(pw)}
        for i, v in enumerate(pw):
            one_plus = tuple([(v[0] + 1) % p] + v[1:])
            assert F.add(i, 0) == code.get(one_plus, ZERO)
        for t in range(1, p):
            assert F.dlog_of_int(t) == code[tuple([t] + [0] * (m - 1))]


def test_construction_is_deterministic():
    a = FiniteField(3, 3)
    b = FiniteField(3, 3)
    assert a.modulus == b.modulus
    assert np.array_equal(a.codes, b.codes)


def test_rejects_bad_characteristic():
    with pytest.raises(ParameterError):
        FiniteField(4, 2)
    with pytest.raises(ParameterError):
        FiniteField(2, 3)
    with pytest.raises(ParameterError):
        FiniteField(9, 1)


def test_rejects_imprimitive_modulus(monkeypatch):
    # x^2 + 1 is irreducible over F_3 but x has order 4, not 8
    with pytest.raises(ParameterError):
        FiniteField(3, 2, modulus=[1, 0, 1])
    # past a wrong primitivity verdict, the table build's own check is a bug
    monkeypatch.setattr(fields, "_is_primitive", lambda modulus, p: True)
    with pytest.raises(InternalInconsistencyError):
        FiniteField(3, 2, modulus=[1, 0, 1])


def test_rejects_oversized_field():
    # the cap is checked before any table is built
    with pytest.raises(ParameterError, match="exceeds the cap"):
        FiniteField(3, 16)


# --------------------------------------------------------------------------
# addition vs polynomial oracle
# --------------------------------------------------------------------------

def test_f9_one_plus_g_example():
    F = get_field(3, 2)
    assert F.add(0, 1) == 7  # g^0 + g^1 = g^7


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2), (7, 1), (11, 1), (3, 5)])
def test_zech_addition_matches_polynomials(p, m):
    """Addition in log form, g^a + g^b = g^(a + Z(b - a)) for the Zech
    logarithm Z, against the polynomial oracle."""
    F = get_field(p, m)
    pw = poly_powers_of_x(F.modulus, p, F.n1)
    code = {tuple(v): i for i, v in enumerate(pw)}
    rng = np.random.default_rng(7 * p + m)
    for _ in range(1000):
        a, b = rng.integers(0, F.n1, size=2)
        s = [(pw[a][j] + pw[b][j]) % p for j in range(m)]
        expect = ZERO if all(c == 0 for c in s) else code[tuple(s)]
        assert F.add(int(a), int(b)) == expect


@pytest.mark.parametrize("p,m", [(3, 3), (11, 1), (5, 4)])
def test_code_sum_of_arrays_agrees_with_scalar_add(p, m):
    F = get_field(p, m)
    rng = np.random.default_rng(5)
    a = rng.integers(-1, F.n1, size=500)
    b = rng.integers(-1, F.n1, size=500)
    code = np.concatenate(([0], F.codes))  # exponent + 1 -> code
    got = F.powers[F.code_sum(code[a + 1], code[b[:, None] + 1])]
    assert got.shape == (500, 500)
    for i in range(len(a)):
        assert got[i, i] == F.add(int(a[i]), int(b[i]))
        assert got[i, -1 - i] == F.add(int(a[-1 - i]), int(b[i]))


def test_additive_inverses():
    F = get_field(3, 3)
    for a in range(F.n1):
        assert F.add(a, F.neg(a)) == ZERO
    assert F.neg(ZERO) == ZERO


def test_zero_is_absorbing_and_neutral():
    F = get_field(5, 2)
    assert F.add(ZERO, 11) == 11
    assert F.add(11, ZERO) == 11
    assert F.mul(ZERO, 11) == ZERO
    assert F.add(ZERO, ZERO) == ZERO


# --------------------------------------------------------------------------
# traces, squares, Frobenius
# --------------------------------------------------------------------------

def test_trace_examples_f27():
    F = get_field(3, 3)
    assert F.rel_trace(1, 1) == ZERO           # tr(g) = 0
    assert F.rel_trace(1, 2) == F.dlog_of_int(2)  # tr(g^2) = 2


def test_trace_is_linear_over_subfield():
    F = get_field(3, 3)  # tr to F_3
    rng = np.random.default_rng(11)
    step = F.subfield_step(1)
    for _ in range(200):
        x, y = (int(v) for v in rng.integers(0, F.n1, size=2))
        tx, ty = F.rel_trace(1, x), F.rel_trace(1, y)
        assert F.rel_trace(1, F.add(x, y)) == F.add(tx, ty)
        c = int(rng.integers(0, F.p - 1)) * step  # element of F_3^*
        assert F.rel_trace(1, F.mul(c, x)) == F.mul(c, tx)


def test_trace_exponents_vectorized_matches_scalar():
    F = get_field(3, 3)
    te = F.trace_exponents(1)
    for a in range(F.n1):
        assert te[a] == F.rel_trace(1, a)


@pytest.mark.parametrize("p,m,e", [
    (3, 1, 1), (3, 4, 1), (3, 4, 2), (5, 2, 1), (5, 3, 1), (5, 4, 2),
    (7, 3, 1), (3, 6, 1), (3, 6, 2), (3, 6, 3), (13, 2, 2), (10007, 1, 1)])
def test_trace_digit_map_matches_the_scalar_trace(p, m, e):
    F = get_field(p, m)
    te = F.trace_exponents(e)
    assert te.shape == (F.n1,)
    assert te.tolist() == [F.rel_trace(e, a) for a in range(F.n1)]


@pytest.mark.parametrize("p,m,e", [(5, 7, 1), (3, 9, 1), (3, 9, 3)])
def test_trace_digit_map_matches_the_scalar_trace_sampled(p, m, e):
    F = get_field(p, m)
    te = F.trace_exponents(e)
    for a in np.random.default_rng(p * m + e).integers(0, F.n1, size=500):
        assert te[a] == F.rel_trace(e, int(a))


@pytest.mark.parametrize("p,m", [(3, 1), (3, 3), (5, 2), (7, 3),
                                 (3, 5), (5, 4)])
def test_codes_are_the_coefficient_codes_and_invert_powers(p, m):
    F = get_field(p, m)
    assert not F.codes.flags.writeable
    assert np.array_equal(F.powers[F.codes], np.arange(F.n1))
    assert np.array_equal(F.codes[F.powers[1:]], np.arange(1, F.order))
    if F.order <= 125:
        base = p ** np.arange(m)
        pw = poly_powers_of_x(F.modulus, p, F.n1)
        assert F.codes.tolist() == [int(np.dot(v, base)) for v in pw]


def reference_tables(p, modulus):
    """(codes, powers) with x^0, ..., x^(q-2) as int64 coefficient rows
    times powers of the companion matrix C: a block of rows by doubling,
    then the block times C^start for each start, 2^14 rows at a time."""
    m = len(modulus) - 1
    n1 = p ** m - 1
    C = np.eye(m, m, 1, dtype=np.int64)
    C[-1] = [(-c) % p for c in modulus[:m]]
    rows, step = np.eye(1, m, dtype=np.int64), C  # step = C^len(rows)
    while len(rows) < min(n1, 1 << 14):
        rows = np.concatenate((rows, rows @ step % p))
        step = step @ step % p
    codes = np.empty(n1, dtype=np.int32)
    shift = np.eye(m, dtype=np.int64)  # C^start
    base = p ** np.arange(m, dtype=np.int64)
    for start in range(0, n1, len(rows)):
        block = rows @ shift % p @ base
        codes[start:start + len(rows)] = block[:n1 - start]
        shift = shift @ step % p
    powers = np.full(p ** m, ZERO, dtype=np.int32)
    powers[codes] = np.arange(n1, dtype=np.int32)
    return codes, powers


def assert_reference_tables(F):
    codes, powers = reference_tables(F.p, F.modulus)
    assert F.codes.dtype == codes.dtype and F.powers.dtype == powers.dtype
    assert F.codes.tobytes() == codes.tobytes()
    assert F.powers.tobytes() == powers.tobytes()


@pytest.mark.parametrize("p,m,digits", [
    (3, 9, np.uint8), (5, 7, np.uint8),        # past 2^14 elements
    (3, 7, np.uint8), (11, 4, np.uint16), (101, 3, np.uint16),
    (9973, 1, np.uint32), (65537, 1, np.uint64)])
def test_tables_match_the_reference_construction(monkeypatch, p, m, digits):
    """Byte-identical tables on every digit dtype the build picks."""
    seen = []
    real = fields._top_coefficients

    def spy(modulus, p, count, dtype):
        seen.append(dtype)
        return real(modulus, p, count, dtype)

    monkeypatch.setattr(fields, "_top_coefficients", spy)
    assert_reference_tables(FiniteField(p, m))
    assert seen == [digits]


@pytest.mark.parametrize("p,m,modulus", [(3, 5, (1, 0, 1, 2, 2, 1)),
                                         (5, 3, (2, 4, 4, 1))])
def test_tables_match_the_reference_under_a_supplied_modulus(p, m, modulus):
    F = FiniteField(p, m, modulus=modulus)
    assert F.modulus != get_field(p, m).modulus
    assert_reference_tables(F)


def test_tables_match_the_reference_at_3_13():
    assert_reference_tables(FiniteField(3, 13))


def test_tower_trace_composition():
    F = FiniteField(3, 6)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = int(rng.integers(0, F.n1))
        t = F.rel_trace(2, x)  # down to F_9
        # push the F_9 value down to F_3 by hand: tr_{9/3}(t) = t + t^3
        inner = F.add(t, F.frobenius(t, 1))
        assert inner == F.rel_trace(1, x)


def test_squares_f7():
    F = get_field(7, 1)
    squares = sorted({pow(a, 2, 7) for a in range(1, 7)})
    got = sorted(t for t in range(1, 7) if F.is_square(F.dlog_of_int(t)))
    want = sorted(F_t for F_t in squares)
    assert [2 in squares] == [F.is_square(F.dlog_of_int(2))]
    assert got == want
    with pytest.raises(ParameterError):
        F.is_square(ZERO)


def test_square_exponent_parity_consistency():
    F = get_field(3, 5)
    rng = np.random.default_rng(13)
    for _ in range(300):
        a = int(rng.integers(0, F.n1))
        # a is a square iff some y has 2*dlog(y) = a mod n1; n1 is even
        assert F.is_square(a) == (a % 2 == 0)


def test_frobenius_fixes_prime_field_and_composes():
    F = get_field(3, 3)
    for t in range(1, 3):
        e = F.dlog_of_int(t)
        assert F.frobenius(e, 1) == e
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = int(rng.integers(0, F.n1))
        assert F.frobenius(F.frobenius(a, 1), 2) == F.frobenius(a, 3)
        assert F.frobenius(a, F.m) == a


def test_frobenius_is_additive():
    F = get_field(3, 3)
    rng = np.random.default_rng(19)
    for _ in range(200):
        x, y = (int(v) for v in rng.integers(-1, F.n1, size=2))
        assert F.frobenius(F.add(x, y), 1) == F.add(F.frobenius(x, 1), F.frobenius(y, 1))



# --------------------------------------------------------------------------
# linear maps vs scalar arithmetic
# --------------------------------------------------------------------------

@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 3), (5, 3), (7, 2),
                                 (3, 5)])
def test_linear_map_matches_scalar_arithmetic(p, m):
    """linear_map(A) sends g^i to sum_k d_k L(x^k), for d the digits of g^i
    and L(x^k) the element with digits A[k]; x^k is g^k."""
    F = get_field(p, m)
    rng = np.random.default_rng(14)
    done = 0
    while done < 3:
        A = rng.integers(0, p, (m, m))
        rows = [int(F.powers[int(A[k] @ p ** np.arange(m))]) for k in range(m)]
        try:
            got = F.linear_map(A)
        except ParameterError:
            continue  # singular: checked below
        want = []
        for i in range(F.n1):
            acc = ZERO
            for k in range(m):
                d = int(F.codes[i]) // p ** k % p
                if d:
                    acc = F.add(acc, F.mul(F.dlog_of_int(d), rows[k]))
            want.append(acc)
        assert got.tolist() == want
        assert sorted(want) == list(range(F.n1))
        done += 1
    # the identity, and x -> x^p, whose row k is the digits of x^(p k)
    assert F.linear_map(np.eye(m, dtype=int)).tolist() == list(range(F.n1))
    frob = [[int(F.codes[p * k % F.n1]) // p ** j % p for j in range(m)]
            for k in range(m)]
    assert F.linear_map(frob).tolist() == [F.frobenius(i)
                                           for i in range(F.n1)]


def test_linear_map_refuses_singular_and_misshapen_matrices():
    F = get_field(3, 3)
    with pytest.raises(ParameterError, match="singular"):
        F.linear_map([[1, 0, 0], [2, 0, 0], [0, 0, 1]])
    with pytest.raises(ParameterError, match="3 x 3"):
        F.linear_map(np.eye(2, dtype=int))
