"""Exact integer convolution via number-theoretic transforms.

Three NTT-friendly primes and a CRT lift give exact linear convolutions for
coefficient magnitudes up to ~7.8e25, far beyond anything the package
produces.  Used only above the schoolbook size threshold; correctness is
cross-checked against schoolbook convolution in the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

# p = c * 2^k + 1 with generator 3 in every case
_PRIMES = (998244353, 167772161, 469762049)
_GEN = 3
# 998244353 - 1 = 119 * 2^23: no root of unity of any longer power-of-two
# order exists, and a longer transform returns wrong coefficients
_MAX_SIZE = 1 << 23


def _ntt(a: np.ndarray, p: int, invert: bool) -> np.ndarray:
    n = len(a)
    a = a % p
    # bit reversal
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            a[i], a[j] = a[j], a[i]
    length = 2
    while length <= n:
        w = pow(_GEN, (p - 1) // length, p)
        if invert:
            w = pow(w, p - 2, p)
        half = length // 2
        ws = np.empty(half, dtype=np.int64)
        cur = 1
        for i in range(half):
            ws[i] = cur
            cur = cur * w % p
        blocks = a.reshape(-1, length)
        u = blocks[:, :half].copy()
        v = blocks[:, half:] * ws % p
        blocks[:, :half] = (u + v) % p
        blocks[:, half:] = (u - v) % p
        length <<= 1
    if invert:
        n_inv = pow(n, p - 2, p)
        a = a * n_inv % p
    return a


def _conv_mod(a: np.ndarray, b: np.ndarray, p: int, size: int) -> np.ndarray:
    fa = np.zeros(size, dtype=np.int64)
    fb = np.zeros(size, dtype=np.int64)
    fa[: len(a)] = a % p
    fb[: len(b)] = b % p
    fa = _ntt(fa, p, False)
    fb = _ntt(fb, p, False)
    return _ntt(fa * fb % p, p, True)


def convolve_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact linear convolution of integer vectors (possibly negative)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    out_len = len(a) + len(b) - 1
    size = 1
    while size < out_len:
        size <<= 1
    if size > _MAX_SIZE:
        raise ParameterError(
            f"NTT length {size} exceeds 2^23, the longest transform "
            f"the primes support")
    p1, p2, p3 = _PRIMES
    r1 = _conv_mod(a, b, p1, size)[:out_len]
    r2 = _conv_mod(a, b, p2, size)[:out_len]
    r3 = _conv_mod(a, b, p3, size)[:out_len]
    # CRT: combine r1, r2 into a residue mod p1*p2 (fits in int64), then
    # lift with p3 in exact Python integers.
    inv12 = pow(p1, p2 - 2, p2)
    t12 = (r2 - r1) * inv12 % p2
    m12 = p1 * p2
    x12 = r1 + t12 * p1  # < p1*p2 ~ 1.7e17, int64-safe
    inv3 = pow(m12 % p3, p3 - 2, p3)
    t3 = (r3 - x12 % p3) * inv3 % p3
    big = x12.astype(object) + t3.astype(object) * m12
    modulus = m12 * p3
    half = modulus // 2
    big = np.where(big > half, big - modulus, big)
    return big
