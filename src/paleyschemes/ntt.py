"""Exact integer convolution via number-theoretic transforms.

The package's two product kernels, one per group kind.  Every output
coefficient is at most min(|a|_1 |b|_inf, |b|_1 |a|_inf) in size.

`convolve_exact` is the linear (hence, folded, the cyclic) product.  It
runs modulo the fewest primes whose product exceeds twice the bound (one
for most products; some of `ds_quotient`'s, of bound about k^2, need two
at 3^11), and the CRT recovers each coefficient exactly.  The transform
length is the power of two 2^k at or above the output length, or, when
167772161 = 5 2^25 + 1 alone covers the bound, the least 5 2^k above it
where that is shorter (1.6x shorter at best); a power of two runs modulo
998244353 first, whose roots of unity stop at 2^23.  The transform is a
Stockham NTT on uint64 words, natural order in and out: one radix-5
stage for a length 5 2^k (Pollard, *The fast Fourier transform in a
finite field*, Math. Comp. 25, 1971), then radix-2 stages, each written
into the other of two buffers, one of them the caller's.  The stages
are lazy: a twiddle product is reduced as t - (t // p) p, sums and
differences are not, and the entries are reduced again only before a
stage whose twiddle product could pass 2^64 (for 998244353, entries stay
below 19p between reductions; for 167772161, below 25p, so they are
never reduced between stages).  Output is int64 below 2^62 and Python
integers past it.  A bound past three primes (~3.9e25) or a power-of-two
length past 2^23 raises `ParameterError` before any transform runs.  The
cyclic product A * A^(-1) takes one forward transform: an exact compare
spots b = (a0, a_(n-1), ..., a_1), which is a0 (1 - x^n) + x^n a(1/x),
the transform of a(1/x) at k is a's at -k, and the pointwise product,
the same at k and -k, is formed on half the points.

`convolve_elementary` is the product over (Z_p)^m: the characters of that
group are x -> w^(j.x) for w of order p, so the transform is the p x p
matrix w^(jk) applied along each of the m coordinates (Pollard, op.
cit.).  It runs modulo one prime P = 1 (mod p) above twice the bound, so
the centred residues are the coefficients; a bound that would need
P >= 2^31 raises `ParameterError` before any transform runs.  The
transform of x -> a(-x) at k is that of a at -k, so a product
A * A^(-1), which is what the defining identity asks for, takes one
forward transform: an exact compare spots b = a(-x), and any other b is
transformed itself.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from .errors import ParameterError
from .fields import _reduce, is_prime

# p = c * 2^k + 1 with generator 3 in every case, largest first; the last,
# 5 * 2^25 + 1, also has roots of unity of order 5 * 2^k
_PRIMES = (998244353, 469762049, 167772161)
_GEN = 3
# 998244353 - 1 = 119 * 2^23: no root of unity of any longer power-of-two
# order exists, and a longer transform returns wrong coefficients
_MAX_SIZE = 1 << 23
# int64 output below this, so sums of a few products cannot wrap
INT64_SAFE = 2 ** 62
# the elementary kernel's one prime stays below this, so the product of
# two residues fits int64
_ELEMENTARY_LIMIT = 2 ** 31


def _norms(x: np.ndarray) -> tuple[int, int]:
    """Exact (|x|_1, |x|_inf) as Python integers."""
    top = max(int(x.max(initial=0)), -int(x.min(initial=0)))
    if top * len(x) >= 2 ** 63:
        x = x.astype(object)
    return int(np.abs(x).sum()), top


@functools.lru_cache(maxsize=8)
def _roots(p: int, size: int) -> np.ndarray:
    """w^k mod p for k < size/2, w a primitive size-th root of unity."""
    w = pow(_GEN, (p - 1) // size, p)
    roots = np.ones(max(size // 2, 1), dtype=np.uint64)
    k = 1
    while k < len(roots):
        n = min(k, len(roots) - k)
        roots[k:k + n] = roots[:n] * pow(w, k, p) % p
        k += n
    roots.setflags(write=False)
    return roots


def _radix5(x: np.ndarray, p: int, u: int, dst: np.ndarray) -> None:
    """The length-5 transforms of the stride-(size/5) subsequences of each
    row of x, u a primitive fifth root of unity: the 5 x 5 matrix u^(jk)
    applied along the (5, size/5) view, into dst.  A sum of four products
    and an entry of x stays below 5p^2 < 2^64 and is reduced once; row 0,
    a plain sum, is left below 5p."""
    lead, size = x.shape[:-1], x.shape[-1]
    xs = x.reshape(*lead, 5, size // 5)
    ys = dst.reshape(*lead, 5, size // 5)
    t = ys[..., 0, :]  # written last, so it is the scratch row until then
    for k in range(1, 5):
        y = ys[..., k, :]
        np.multiply(xs[..., 1, :], pow(u, k, p), out=y)
        for j in range(2, 5):
            np.multiply(xs[..., j, :], pow(u, j * k, p), out=t)
            y += t
        y += xs[..., 0, :]
        _reduce(y, p, t)
    np.add(xs[..., 0, :], xs[..., 1, :], out=t)
    for j in range(2, 5):
        t += xs[..., j, :]


def _transform(x: np.ndarray, p: int, roots: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """NTT of each row of x, of length 2^k or 5 2^k, in Stockham form,
    natural order in and out: row j of the (m, size/m) view holds the
    length-m transforms at frequency j of the stride-(size/m)
    subsequences, so no bit reversal is needed.

    x holds uint64 residues in [0, p).  The result goes to `out`, a new
    array when it is None; x is written only when `out` is x.  The stages
    take turns writing `out` and one spare buffer.  A length 5 2^k starts
    with one radix-5 stage (`_radix5`), after which m = 5.  Each radix-2
    stage writes its sums and differences straight into the two halves
    of the other buffer, lazily (Harvey, *Faster arithmetic for
    number-theoretic transforms*, JSC 60, 2014): the twiddle product t,
    formed in the differences' half, is reduced to [0, p) through the
    sums' half, and even + t and even + p - t go unreduced, so the entry
    bound grows by p per stage.  The entries are reduced only before a
    stage whose twiddle product could pass 2^64, and at the end.  Once
    the frequency axis is the longer one, one transpose puts it innermost
    in memory, so no stage loops over short rows; the last stage, with
    rows of one, leaves natural order.
    """
    lead, size = x.shape[:-1], x.shape[-1]
    if out is None:
        out = np.empty(x.shape, dtype=np.uint64)
    if size == 1:
        np.copyto(out, x)
        return out
    bufs = (np.empty(x.shape, dtype=np.uint64), out)  # the spare first
    src, m, top = x, 1, p  # entries of src are below top
    k, flipped = 0, False
    if size % 5 == 0:
        _radix5(x, p, int(roots[size // 5]), bufs[0])
        src, m, top, k = bufs[0], 5, 5 * p, 1
    while m < size:
        half = size // (2 * m)
        if (top - 1) * (p - 1) >= 2 ** 64:
            # src is a buffer here (x, below p, never needs this)
            _reduce(src, p, bufs[k])
            top = p
        if half < m and not flipped:
            np.copyto(bufs[k].reshape(*lead, 2 * half, m),
                      src.reshape(*lead, m, 2 * half).swapaxes(-1, -2))
            src, k, flipped = bufs[k], 1 - k, True
        if flipped:
            rows = src.reshape(*lead, 2 * half, m).swapaxes(-1, -2)
            dst = bufs[k].reshape(*lead, half, 2, m).swapaxes(-1, -3)
            s, d = dst[..., 0, :], dst[..., 1, :]
        else:
            rows = src.reshape(*lead, m, 2 * half)
            dst = bufs[k].reshape(*lead, 2, m, half)
            s, d = dst[..., 0, :, :], dst[..., 1, :, :]
        even, odd = rows[..., :half], rows[..., half:]
        np.multiply(odd, roots[::half, None], out=d)
        _reduce(d, p, s)
        np.add(even, d, out=s)
        np.subtract(even, d, out=d)
        np.add(d, p, out=d)  # wraps back: even + p - t >= 1
        src, m, top, k = bufs[k], 2 * m, top + p, 1 - k
    if src is out:
        _reduce(out, p, bufs[k])
    else:  # t - (t // p) p, written into out
        np.floor_divide(src, p, out=out)
        np.multiply(out, p, out=out)
        np.subtract(src, out, out=out)
    return out


def _conv_mod(a: np.ndarray, b: Optional[np.ndarray], p: int,
              size: int) -> np.ndarray:
    """a * b mod p as int64, its len(a) + len(b) - 1 coefficients.  For b
    None the product is a * a^(-1), a^(-1) = (a0, a_(n-1), ..., a_1),
    which takes one forward transform.  Each transform is written back
    into the one input buffer."""
    roots = _roots(p, size)
    n = len(a)
    out_len = 2 * n - 1 if b is None else n + len(b) - 1
    x = np.zeros((1 if b is None else 2, size), dtype=np.uint64)
    x[0, :n] = a % p
    if b is not None:
        x[1, :len(b)] = b % p
    _transform(x, p, roots, out=x)
    f = x[0]
    if b is None:
        # a(1/x) at k is a at -k, so the product at k and at -k is
        # f(k) f(-k); size is even, as size > out_len = 2n - 1
        h = size // 2
        f[0], f[h] = int(f[0]) ** 2 % p, int(f[h]) ** 2 % p
        np.multiply(f[1:h], f[:h:-1], out=f[1:h])
        _reduce(f[1:h], p, f[h + 1:])
        f[:h:-1] = f[1:h]
    else:
        f *= x[1]
        _reduce(f, p, x[1])
    # the forward transform at -k is size times the inverse at k
    _transform(f, p, roots, out=f)
    if b is None:
        # f(j) is size times the coefficient of a(x) a(1/x) at -j, and at
        # j by symmetry; a^(-1) = a0 (1 - x^n) + x^n a(1/x)
        y = np.concatenate((f[size - n:], f[:n - 1]))
        c = np.asarray(a % p, dtype=np.uint64)
        c *= int(c[0]) * size % p
        _reduce(c, p, f[:n])  # size a0 a
        y[:n] += c
        y[n:] += p - c[:n - 1]
    else:
        y = np.concatenate((f[:1], f[:size - out_len:-1]))
    np.multiply(y, pow(size, -1, p), out=y)
    _reduce(y, p, f[:out_len])
    # the CRT subtracts residues, which must not wrap
    return y.view(np.int64)


def _crt(residues: list, primes: tuple) -> np.ndarray:
    """Centred value modulo prod(primes) of each coefficient (Garner)."""
    x, modulus = residues[0], primes[0]
    for r, p in zip(residues[1:], primes[1:]):
        if modulus * p >= 2 ** 63:
            x = x.astype(object)
        x = x + (r - x % p) * pow(modulus, -1, p) % p * modulus
        modulus *= p
    # a value past modulus / 2 stands for a negative coefficient; x is
    # fresh (the residues are), so int64 values are centred in place
    if x.dtype == object:
        return np.where(x > modulus // 2, x - modulus, x)
    x -= (x > modulus // 2) * modulus
    return x


def transform_size(out_len: int) -> int:
    """The power-of-two transform length for `out_len` output coefficients;
    past 2^23 it raises `ParameterError`."""
    size = 1 << (out_len - 1).bit_length()
    if size > _MAX_SIZE:
        raise ParameterError(
            f"NTT length {size} exceeds 2^23, the longest transform "
            f"the primes support")
    return size


def _plan(out_len: int, bound: int) -> tuple[tuple, int]:
    """(primes, length) for `out_len` coefficients of size at most
    `bound`: the fewest primes whose product exceeds twice the bound, at
    the power-of-two length, unless 167772161 alone covers the bound and
    the least 5 2^k above out_len is shorter.  That length is even, as
    the symmetric product of A * A^(-1) needs."""
    size = transform_size(out_len)
    primes = next((_PRIMES[:k] for k in range(1, len(_PRIMES) + 1)
                   if math.prod(_PRIMES[:k]) > 2 * bound), None)
    if primes is None:
        raise ParameterError(
            f"coefficient bound {bound} exceeds the range of the NTT primes")
    five = 5 << (out_len // 5).bit_length()
    if 2 * bound < _PRIMES[-1] and five < size:
        return _PRIMES[-1:], five
    return primes, size


def convolve_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact linear convolution of integer vectors (possibly negative)."""
    a, b = np.asarray(a), np.asarray(b)
    out_len = len(a) + len(b) - 1
    inverse = (len(a) == len(b) > 1 and a[0] == b[0]
               and np.array_equal(b[1:], a[:0:-1]))
    a1, a_top = _norms(a)
    b1, b_top = (a1, a_top) if inverse else _norms(b)
    bound = min(a1 * b_top, b1 * a_top)
    primes, size = _plan(out_len, bound)
    lin = _crt([_conv_mod(a, None if inverse else b, p, size)
                for p in primes], primes)
    return lin.astype(np.int64, copy=False) if bound < INT64_SAFE else lin


@functools.lru_cache(maxsize=16)
def _characters(p: int, bits: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(P, W, W_inv) for coefficients below 2^bits in size.

    P is the smallest prime = 1 (mod p) above 2^(bits+1); W[j, k] = w^(jk)
    and W_inv[j, k] = w^(-jk) mod P for a w of order p.
    """
    P = (2 ** (bits + 1) // p + 1) * p + 1
    while P < _ELEMENTARY_LIMIT and not is_prime(P):
        P += p
    if P >= _ELEMENTARY_LIMIT:
        raise ParameterError(
            f"coefficient bound of {bits} bits needs a prime past 2^31 for "
            f"the transform over (Z_{p})^m")
    # any w != 1 with w^p = 1 has order p, as p is prime
    w = next(w for t in range(2, P) if (w := pow(t, (P - 1) // p, P)) != 1)
    powers = np.ones(p, dtype=np.int64)  # w^k mod P
    k = 1
    while k < p:
        n = min(k, p - k)
        powers[k:k + n] = powers[:n] * pow(w, k, P) % P
        k += n
    jk = np.outer(np.arange(p), np.arange(p)) % p
    W, W_inv = powers[jk], powers[-jk % p]
    W.setflags(write=False)
    W_inv.setflags(write=False)
    return P, W, W_inv


@functools.lru_cache(maxsize=16)
def _negation(p: int, q: int) -> np.ndarray:
    """neg[c] is the code of -x for x of code c: each base-p digit of c
    negated mod p."""
    codes = np.arange(q, dtype=np.int64)
    neg = np.zeros(q, dtype=np.int64)
    stride = 1
    while stride < q:
        neg += (-(codes // stride) % p) * stride
        stride *= p
    neg.setflags(write=False)
    return neg


def _elementary_transform(x: np.ndarray, W: np.ndarray, P: int,
                          top: int) -> np.ndarray:
    """W applied mod P along every base-p coordinate of each row of x,
    whose entries are at most `top` in size.

    A row of length p^m holds the element sum c_i p^i at that index, so
    the coordinate c_i is the axis of stride p^i in the (.., p, p^i) view.
    A stage multiplies the entry bound by p (P - 1); the entries are
    reduced mod P only before a stage that could wrap int64.  When even
    reduced entries could (P past 2^30), the axis sum runs in slices of
    `chunk` rows, reduced between slices.
    """
    p = len(W)
    lead, q = x.shape[:-1], x.shape[-1]
    stride = q
    while stride > 1:
        stride //= p
        x = x.reshape(*lead, -1, p, stride)
        if top * p * (P - 1) >= 2 ** 63:
            x, top = x % P, P - 1
        if top * p * (P - 1) < 2 ** 63:
            x, top = W @ x, top * p * (P - 1)
            continue
        chunk = (2 ** 63 - 1) // (P - 1) ** 2
        y = W[:, :chunk] @ x[..., :chunk, :] % P
        for s in range(chunk, p, chunk):
            y += W[:, s:s + chunk] @ x[..., s:s + chunk, :] % P
        x, top = y, -(-p // chunk) * (P - 1)
    return x.reshape(*lead, q) % P


def convolve_elementary(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact product in Z[(Z_p)^m] of vectors of length p^m, each indexed
    by the codes sum c_i p^i of the group elements (possibly negative).

    When b is a^(-1), b(x) = a(-x), its transform at k is a's at -k, so
    one forward transform serves both operands."""
    a, b = np.asarray(a), np.asarray(b)
    neg = _negation(p, len(a))
    inverse = np.array_equal(b, a[neg])
    a1, a_top = _norms(a)
    b1, b_top = (a1, a_top) if inverse else _norms(b)
    P, W, W_inv = _characters(p, min(a1 * b_top, b1 * a_top).bit_length())
    if inverse:
        fa = _elementary_transform(a.astype(np.int64), W, P, a_top)
        fb = fa[neg]
    else:
        fa, fb = _elementary_transform(np.stack((a, b)).astype(np.int64),
                                       W, P, max(a_top, b_top))
    y = _elementary_transform(fa * fb % P, W_inv, P, P - 1)
    y = y * pow(len(a), -1, P) % P
    return np.where(y > P // 2, y - P, y)
