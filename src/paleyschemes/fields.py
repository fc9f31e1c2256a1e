"""Finite fields F_{p^m} of odd characteristic in discrete-log form.

A field element is an integer exponent e standing for g^e, where g is the
residue of x modulo the (primitive) defining polynomial; the zero element is
the sentinel ZERO = -1.  Multiplication is exponent addition.

Addition has one representation, the code: the integer sum c_i p^i over an
element's coefficients on x^0, ..., x^(m-1).  Code order is the coordinate
order of (F, +) = (Z_p)^m, so a sum is the digit-wise sum mod p of two
codes (`code_sum`), with no carry, and an F_p-linear map such as a relative
trace is a map on base-p digits (`linear_map`, `trace_exponents`; Lidl &
Niederreiter, *Finite Fields*, ch. 2).  The field keeps both directions
between exponents and codes, `codes` (exponent -> code) and `powers` (code
-> exponent), both read-only; they are its only per-element tables, and
there is no Zech table.  Every operation is exact integer arithmetic.

The modulus and the tables both come from C, the companion matrix of
"multiply by x" over F_p.  A monic f is primitive iff C^(q-1) = I and
C^((q-1)/r) != I for each prime r | q-1 (Lidl & Niederreiter, Thm 3.16;
full order implies irreducibility); this one test serves default and
supplied moduli, and the default search runs it only on candidates whose
constant term and roots in F_p allow a primitive root.  The tables come
from one shift-register sequence, the top coefficients of x^0, x^1, ...:
it is extended by jumps read off C^(2^k), one m x m squaring each, and
every lower digit is read off it, so the build is O(m q) passes over
narrow unsigned integers (Lidl & Niederreiter, ch. 8; Golomb, *Shift
Register Sequences*, 1967).
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import InternalInconsistencyError, ParameterError

ZERO = -1

# fits the int32 tables and keeps the m x m int64 products of C exact
# (m (p-1)^2 < 2^63), in the primitivity test and the table build's jumps
MAX_FIELD_ORDER = 3 ** 15


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_divisors(n) == [n]


def _reduce(t: np.ndarray, p: int, scratch: np.ndarray) -> None:
    """t mod p in place as t - (t // p) p, for unsigned t, through
    `scratch` of t's shape: numpy divides unsigned integers by a scalar
    as a multiply and shift, several times faster than its remainder,
    except on short arrays, where one call costs less than three."""
    if t.size < 1024:
        np.remainder(t, p, out=t)
        return
    np.floor_divide(t, p, out=scratch)
    np.multiply(scratch, p, out=scratch)
    np.subtract(t, scratch, out=t)


def _companion(modulus: Sequence[int], p: int) -> np.ndarray:
    """Matrix of a -> x*a mod f on little-endian coefficient row vectors."""
    m = len(modulus) - 1
    C = np.eye(m, m, 1, dtype=np.int64)
    C[-1] = [(-c) % p for c in modulus[:m]]
    return C


def _mat_pow(C: np.ndarray, k: int, p: int) -> np.ndarray:
    out = np.eye(len(C), dtype=np.int64)
    while k:
        if k & 1:
            out = out @ C % p
        C = C @ C % p
        k >>= 1
    return out


def _top_coefficients(modulus: Sequence[int], p: int, count: int,
                      dtype: np.dtype) -> np.ndarray:
    """s[i], the coefficient of x^(m-1) in x^i mod f, for i < count.

    s is a linear recurring sequence with characteristic polynomial f
    (Lidl & Niederreiter, ch. 8).  Row m - 1 of C^N holds x^(N + m - 1) =
    sum a_j x^j, so s[i + N + m - 1] = sum a_j s[i + j]: from s on
    [0, N + m - 1), one jump gives the next N terms, and N doubles with
    one squaring of C^N.  The terms before N = 8 come one at a time from
    x^m = -sum f_j x^j.  `dtype` holds m (p - 1)^2, a jump's sum before
    it is reduced.
    """
    m = len(modulus) - 1
    seed = [0] * (m - 1) + [1]
    while len(seed) < min(count, m + 7):
        seed.append(-sum(map(operator.mul, modulus, seed[-m:])) % p)
    s = np.empty(count, dtype=dtype)
    scratch = np.empty(count, dtype=dtype)
    s[:len(seed)] = seed
    N, jump, done = 4, _companion(modulus, p), len(seed)
    for _ in range(2):  # C^4; each jump squares first
        jump = jump @ jump % p
    while done < count:
        N, jump = 2 * N, jump @ jump % p
        new, a = min(N, count - done), jump[-1].tolist()
        out, tmp = s[done:done + new], scratch[:new]
        np.multiply(s[:new], a[0], out=out)
        for j in range(1, m):
            if a[j]:
                np.multiply(s[j:j + new], a[j], out=tmp)
                out += tmp
        _reduce(out, p, tmp)
        done += new
    return s


def _code_table(modulus: Sequence[int], p: int, n1: int) -> np.ndarray:
    """The code sum c_k p^k of x^i mod f for each i < n1, as int32.

    Digit k - 1 of x^i is digit k of x^(i+1) plus f_k s[i] (mod p), for
    s the top digits, so s on [0, n1 + m - 1) gives every digit; a zero
    f_k makes it a shift.  The code is formed by Horner's rule from the
    top digit.  The digits are held in the narrowest unsigned dtype that
    holds m (p - 1)^2 + p.
    """
    m = len(modulus) - 1
    dtype = np.min_scalar_type(m * (p - 1) ** 2 + p)
    s = _top_coefficients(modulus, p, n1 + m - 1, dtype)
    codes = s[:n1].astype(np.int32)
    # digit k - 1 goes to the buffer that does not hold digit k, and is
    # reduced through the other one, where digit k is spent
    digit, bufs, free = s, (np.empty_like(s), np.empty_like(s)), 0
    for k in range(m - 1, 0, -1):
        n = n1 + k - 1  # digit k - 1 is needed on [0, n)
        if modulus[k]:
            out = bufs[free][:n]
            np.multiply(s[:n], modulus[k], out=out)
            out += digit[1:n + 1]
            _reduce(out, p, bufs[1 - free][:n])
            digit, free = out, 1 - free
        else:
            digit = digit[1:]
        codes *= p
        codes += digit[:n1]
    return codes


def _is_primitive(modulus: Sequence[int], p: int) -> bool:
    """True iff x has order p^m - 1 modulo the monic `modulus`."""
    m = len(modulus) - 1
    n1 = p ** m - 1
    C = _companion(modulus, p)
    eye = np.eye(m, dtype=np.int64)
    return (np.array_equal(_mat_pow(C, n1, p), eye)
            and not any(np.array_equal(_mat_pow(C, n1 // r, p), eye)
                        for r in _prime_divisors(n1)))


def _is_primitive_root(c: int, p: int) -> bool:
    """True iff c generates the units mod the prime p."""
    return c % p != 0 and all(pow(c, (p - 1) // r, p) != 1
                              for r in _prime_divisors(p - 1))


def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic primitive polynomial of degree m.

    Candidates are ordered by the integer tuple (c_{m-1}, ..., c_0)
    ascending; the first primitive one wins.  The choice is deterministic,
    so two runs always build identical tables.  Two necessary conditions
    go before the primitivity test: the norm (-1)^m c_0 of a root must
    generate F_p^*, as the norm of a primitive element does, and for
    m >= 2 the polynomial has no root in F_p.
    """
    points = np.arange(p, dtype=np.int64)
    for tail in itertools.product(range(p), repeat=m):
        coeffs = tail[::-1] + (1,)
        if not _is_primitive_root((-1) ** m * coeffs[0], p):
            continue
        if m >= 2:
            value = np.zeros(p, dtype=np.int64)
            for c in (1,) + tail:  # Horner, top coefficient first
                value = (value * points + c) % p
            if not value.all():
                continue
        if _is_primitive(coeffs, p):
            return coeffs
    raise ParameterError(f"no primitive polynomial of degree {m} over F_{p}")


def _check_field(p: int, m: int) -> None:
    """Refuse p and m unless F_{p^m} is a field this module builds, without
    building it: p an odd prime, m >= 1 and p^m within the order cap."""
    if not is_prime(p) or p == 2:
        raise ParameterError(f"p = {p} is not an odd prime")
    if m < 1:
        raise ParameterError(f"extension degree m = {m} must be >= 1")
    if p ** m > MAX_FIELD_ORDER:
        raise ParameterError(
            f"field order {p}^{m} exceeds the cap {MAX_FIELD_ORDER}")


class FiniteField:
    """Immutable F_{p^m} with its exponent <-> code tables."""

    def __init__(self, p: int, m: int, modulus: Optional[Sequence[int]] = None):
        _check_field(p, m)
        self.p = p
        self.m = m
        self.order = p ** m
        self.n1 = self.order - 1  # size of the multiplicative group

        if modulus is None:
            modulus = _default_modulus(p, m)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ParameterError(
                    f"modulus must be monic of degree {m} (got {modulus})")
            if not _is_primitive(modulus, p):
                raise ParameterError(
                    f"supplied modulus {modulus} is not primitive over F_{p}")
        self.modulus = tuple(modulus)

        self._build_tables()

    # -- construction ------------------------------------------------------

    def _build_tables(self) -> None:
        p, n1 = self.p, self.n1
        # codes[exponent] = code = sum c_k p^k over the coefficients of the
        # element, and powers[code] = exponent; both are kept, because
        # code order is the coordinate order of (F, +) = (Z_p)^m
        codes = _code_table(self.modulus, p, n1)
        codes.setflags(write=False)
        self.codes = codes

        powers = np.full(self.order, ZERO, dtype=np.int32)
        powers[codes] = np.arange(n1, dtype=np.int32)
        if (powers[1:] == ZERO).any():
            raise InternalInconsistencyError(
                f"powers of x repeat modulo the primitive {self.modulus}")
        powers.setflags(write=False)
        self.powers = powers
        # the constant -1 has code p - 1
        if codes[n1 // 2] != p - 1:
            raise InternalInconsistencyError(
                "table self-check failed: -1 is not g^{(q-1)/2}")

    # -- scalar ops --------------------------------------------------------

    def code_sum(self, x, y):
        """Code of the sum of the elements of codes x and y (integers or
        arrays): their base-p digits added mod p, with no carry."""
        p, out, stride = self.p, 0, 1
        for _ in range(self.m):
            # x // stride is the digit of x at stride plus a multiple of p
            out = out + (x // stride + y // stride) % p * stride
            stride *= p
        return out

    def add(self, a: int, b: int) -> int:
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        return int(self.powers[self.code_sum(int(self.codes[a]),
                                             int(self.codes[b]))])

    def neg(self, a: int) -> int:
        if a == ZERO:
            return ZERO
        return (a + self.n1 // 2) % self.n1

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == ZERO or b == ZERO:
            return ZERO
        return (a + b) % self.n1

    def pow(self, a: int, k: int) -> int:
        if a == ZERO:
            if k <= 0:
                raise ParameterError("0^k undefined for k <= 0")
            return ZERO
        return (a * k) % self.n1

    def frobenius(self, a: int, k: int = 1) -> int:
        """x -> x^{p^k}."""
        if a == ZERO:
            return ZERO
        return (a * pow(self.p, k, self.n1)) % self.n1

    def is_square(self, a: int) -> bool:
        if a == ZERO:
            raise ParameterError("is_square is undefined at 0")
        return a % 2 == 0

    def subfield_step(self, e: int) -> int:
        """Exponent step of the subfield F_{p^e} inside this field."""
        if self.m % e != 0:
            raise ParameterError(f"F_{self.p}^{e} is not a subfield layer")
        return self.n1 // (self.p ** e - 1)

    def rel_trace(self, e: int, a: int) -> int:
        """Relative trace to F_q, q = p^e: sum of a^{q^i} for i < m/e."""
        if self.m % e != 0:
            raise ParameterError(f"no trace layer: {e} does not divide {self.m}")
        q = self.p ** e
        layers = self.m // e
        acc = ZERO
        for i in range(layers):
            acc = self.add(acc, self.pow(a, pow(q, i, self.n1)) if a != ZERO else ZERO)
        if acc != ZERO and acc % self.subfield_step(e) != 0:
            raise ParameterError("trace landed outside the target subfield")
        return acc

    def _digit_table(self, t: np.ndarray) -> np.ndarray:
        """code -> code of the F_p-linear map with digit matrix t, as int32.

        Digit k of the image of the code with digits c_j is sum_j c_j t_jk
        mod p.  Each such digit is tabulated over all codes one input digit
        at a time, so no array is wider than one int32 per element.
        """
        p = self.p
        table = np.zeros(self.order, dtype=np.int32)
        for k in np.flatnonzero(t.any(axis=0)):
            digit = np.zeros(1, dtype=np.int32)
            for c in t[:, k]:
                # digit at d p^j + i is digit at i plus d c, mod p; the
                # table spans the values the digit holds so far, so it is
                # never longer than the next digit (for m = 1, p is large)
                values = np.arange(min(p, len(digit)))
                plus = (np.arange(p)[:, None] * c + values) % p
                digit = np.take(plus.astype(np.int32), digit, axis=1).ravel()
            table += digit * np.int32(p ** k)
        return table

    def linear_map(self, A) -> np.ndarray:
        """Exponent permutation of the F_p-linear map with digit matrix A.

        Row k of the m x m matrix A holds the digits of the image of x^k,
        so the code with digits d goes to the code with digits d A mod p;
        entry i of the result is the exponent of the image of g^i.  One
        gather through `codes` and `powers` reads the digit table in
        exponent order.  A matrix that is singular mod p is refused.
        """
        A = np.asarray(A, dtype=np.int64)
        if A.shape != (self.m, self.m):
            raise ParameterError(f"a linear map of F_{self.p}^{self.m} needs "
                                 f"an {self.m} x {self.m} digit matrix")
        table = self._digit_table(A % self.p)
        if not table[1:].all():
            raise ParameterError("the digit matrix is singular mod p")
        return self.powers[table[self.codes]]

    def trace_exponents(self, e: int) -> np.ndarray:
        """dlog of tr_{p^m/p^e}(g^i) for every i (-1 for 0), as a digit map.

        The trace is F_p-linear: its digit matrix has the digits of the
        code of tr(x^j) as row j, and one gather through `codes` and
        `powers` reads its digit table in exponent order.
        """
        if self.m % e != 0:
            raise ParameterError(f"no trace layer: {e} does not divide {self.m}")
        p, m = self.p, self.m
        tau = [self.rel_trace(e, j) for j in range(m)]  # tr(x^j)
        tau_codes = np.array([0 if b == ZERO else self.codes[b] for b in tau])
        acc = self.powers[self._digit_table(
            tau_codes[:, None] // p ** np.arange(m) % p)[self.codes]]
        step = self.subfield_step(e)
        bad = (acc != ZERO) & (acc // step * step != acc)
        if bad.any():
            raise ParameterError("trace landed outside the target subfield")
        return acc

    # -- misc ---------------------------------------------------------------

    def dlog_of_int(self, t: int) -> int:
        """dlog of the prime-field element t (t = 0 maps to ZERO)."""
        return int(self.powers[t % self.p])  # the code of t is t

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteField)
                and self.p == other.p and self.m == other.m
                and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, m={self.m}, modulus={list(self.modulus)})"


@lru_cache(maxsize=None)
def get_field(p: int, m: int) -> FiniteField:
    """Shared default-modulus field instance (immutable, safe to cache)."""
    return FiniteField(p, m)
