"""Finite fields F_{p^m} of odd characteristic in discrete-log form.

A field element is an integer exponent e standing for g^e, where g is the
residue of x modulo the (primitive) defining polynomial; the zero element is
the sentinel ZERO = -1.  Multiplication is exponent addition, and addition
goes through a Zech logarithm table Z with g^{Z(i)} = 1 + g^i, so every
operation is exact integer arithmetic.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError

ZERO = -1

DEFAULT_MAX_ORDER = int(os.environ.get("PALEY_MAX_FIELD_ORDER", 3 ** 15))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _x_order_is_maximal(modulus: Sequence[int], p: int) -> bool:
    """True iff x generates the full unit group modulo `modulus`.

    This single check subsumes irreducibility: if the modulus were reducible
    the unit group of Z_p[x]/(f) would be strictly smaller than p^m - 1, so
    x could not have order p^m - 1.
    """
    m = len(modulus) - 1
    if modulus[0] % p == 0:  # x divides f, hopeless
        return False
    n1 = p ** m - 1
    x_scalar = (-modulus[0]) % p  # residue of x when m == 1
    cur = [1] + [0] * (m - 1)     # poly encoded little-endian, reduced mod f
    seen_one_at = None
    for i in range(1, n1 + 1):
        if m > 1:
            # multiply by x: shift and reduce by f
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                for j in range(m):
                    cur[j] = (cur[j] - lead * modulus[j]) % p
        else:
            cur = [cur[0] * x_scalar % p]
        if all(c == 0 for c in cur[1:]) and cur[0] == 1:
            seen_one_at = i
            break
    return seen_one_at == n1


def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic primitive polynomial of degree m.

    Candidates are ordered by the integer tuple (c_{m-1}, ..., c_0)
    ascending; the first primitive one wins.  The choice is deterministic,
    so two runs always build identical tables.
    """
    # Ascending `code` enumerates the tuples (c_{m-1}, ..., c_0) in
    # lexicographic order when c_0 is taken as the least significant digit.
    for code in range(p ** m):
        coeffs = []
        t = code
        for _ in range(m):
            coeffs.append(t % p)
            t //= p
        coeffs.append(1)  # monic
        if _x_order_is_maximal(coeffs, p):
            return tuple(coeffs)
    raise ParameterError(f"no primitive polynomial of degree {m} over F_{p}")


class FiniteField:
    """Immutable F_{p^m} with Zech-logarithm addition tables."""

    def __init__(self, p: int, m: int, modulus: Optional[Sequence[int]] = None,
                 max_order: Optional[int] = None):
        if not is_prime(p) or p == 2:
            raise ParameterError(f"p = {p} is not an odd prime")
        if m < 1:
            raise ParameterError(f"extension degree m = {m} must be >= 1")
        cap = DEFAULT_MAX_ORDER if max_order is None else max_order
        if p ** m > cap:
            raise ParameterError(
                f"field order {p}^{m} exceeds the configured cap {cap}")
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
            if not _x_order_is_maximal(modulus, p):
                raise ParameterError(
                    f"supplied modulus {modulus} is not primitive over F_{p}")
        self.modulus = tuple(modulus)

        self._build_tables()
        self._dlog_small = self._dlogs_of_prime_field()

    # -- construction ------------------------------------------------------

    def _build_tables(self) -> None:
        p, m, n1 = self.p, self.m, self.n1
        powers = np.zeros(p ** m, dtype=np.int32)  # poly code -> exponent
        codes = np.zeros(n1, dtype=np.int32)       # exponent -> poly code
        powers[:] = ZERO
        cur = [0] * m
        cur[0] = 1  # g^0 = 1
        pm = [int(c) for c in self.modulus[:m]]
        base = [p ** i for i in range(m)]
        for i in range(n1):
            code = 0
            for j in range(m):
                code += cur[j] * base[j]
            if powers[code] != ZERO:
                raise ParameterError("modulus is not primitive (cycle)")
            powers[code] = i
            codes[i] = code
            # multiply by x
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                for j in range(m):
                    cur[j] = (cur[j] - lead * pm[j]) % p
        if any(c != 0 for c in cur[1:]) or cur[0] != 1:
            raise ParameterError("modulus is not primitive (order defect)")

        # Zech table: zech[i] = dlog(1 + g^i), ZERO sentinel when 1+g^i = 0.
        c0 = codes % p
        plus_one = codes - c0 + (c0 + 1) % p
        self.zech = powers[plus_one].astype(np.int32)

        sentinels = np.flatnonzero(self.zech == ZERO)
        if len(sentinels) != 1 or sentinels[0] != n1 // 2:
            raise ParameterError(
                "Zech table self-check failed: -1 is not g^{(q-1)/2}")

    def _dlogs_of_prime_field(self) -> np.ndarray:
        """dlog of the elements 1..p-1 of the prime subfield."""
        out = np.full(self.p, ZERO, dtype=np.int64)
        e = 0  # dlog(1)
        out[1] = 0
        for t in range(2, self.p):
            e = self.add(e, 0)
            out[t] = e
        return out

    # -- scalar ops --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        z = int(self.zech[(b - a) % self.n1])
        if z == ZERO:
            return ZERO
        return (a + z) % self.n1

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

    # -- vector ops --------------------------------------------------------

    def add_array(self, a, b) -> np.ndarray:
        """Element-wise field addition of exponent arrays (ZERO = -1)."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        a, b = np.broadcast_arrays(a, b)
        out = np.empty(a.shape, dtype=np.int64)
        az = a == ZERO
        bz = b == ZERO
        out[az] = b[az]
        out[bz] = a[bz]
        both = ~(az | bz)
        if both.any():
            aa = a[both]
            bb = b[both]
            z = self.zech[(bb - aa) % self.n1].astype(np.int64)
            res = (aa + z) % self.n1
            res[z == ZERO] = ZERO
            out[both] = res
        return out

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

    def trace_exponents(self, e: int) -> np.ndarray:
        """dlog of tr_{p^m/p^e}(g^i) for every i, vectorized (-1 for 0)."""
        if self.m % e != 0:
            raise ParameterError(f"no trace layer: {e} does not divide {self.m}")
        q = self.p ** e
        layers = self.m // e
        exps = np.arange(self.n1, dtype=np.int64)
        acc = exps.copy()
        for i in range(1, layers):
            acc = self.add_array(acc, (exps * pow(q, i, self.n1)) % self.n1)
        step = self.subfield_step(e)
        bad = (acc != ZERO) & (acc % step != 0)
        if bad.any():
            raise ParameterError("trace landed outside the target subfield")
        return acc

    # -- misc ---------------------------------------------------------------

    def dlog_of_int(self, t: int) -> int:
        """dlog of the prime-field element t (t = 0 maps to ZERO)."""
        t %= self.p
        if t == 0:
            return ZERO
        return int(self._dlog_small[t])

    def descriptor(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

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


def field_from_descriptor(desc: dict) -> FiniteField:
    return FiniteField(int(desc["p"]), int(desc["m"]), desc.get("modulus"))
