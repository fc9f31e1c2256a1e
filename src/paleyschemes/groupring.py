"""Exact integer group-ring arithmetic over the two group kinds in play.

Supported groups: cyclic Z_n, and the additive group of a finite field.
Coefficient vectors are numpy int64, or Python integers for a product
whose coefficient bound passes 2^62.  Each group kind has one exact
product kernel in `ntt`, which raises `ParameterError` past its range
rather than return a wrong answer:

- a cyclic product is one `ntt.convolve_exact` folded mod n;
- a product over (F_{p^m}, +) reorders both operands by the code
  sum c_i p^i of each element's coordinates, where the group is (Z_p)^m,
  and runs `ntt.convolve_elementary`, a character transform modulo one
  prime P = 1 (mod p); for m = 1 the group is Z_p and the cyclic kernel
  runs instead.

Coefficient indexing for field-additive groups is fixed:
index 0 is the zero field element and index 1 + i is g^i.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from . import ntt
from .errors import ParameterError
from .fields import ZERO, FiniteField


class CyclicGroup:
    """Z_n written additively; coefficient index = group element."""

    kind = "cyclic"

    def __init__(self, n: int):
        if n < 1:
            raise ParameterError(f"cyclic group order must be positive, got {n}")
        self.order = n

    def power_indices(self, idx, t: int):
        return (np.asarray(idx, dtype=np.int64) * (t % self.order)) % self.order

    def __eq__(self, other):
        return isinstance(other, CyclicGroup) and other.order == self.order

    def __hash__(self):
        return hash(("cyclic", self.order))

    def __repr__(self):
        return f"CyclicGroup({self.order})"


class FieldAdditiveGroup:
    """(F_{p^m}, +); index 0 is the zero element, index 1+e is g^e."""

    kind = "field_additive"

    def __init__(self, field: FiniteField):
        self.field = field
        self.order = field.order

    # Since ZERO = -1, coefficient index = exponent + 1 in both directions.

    def power_indices(self, idx, t: int):
        # g^t in an additive group is the scalar multiple t*g
        F = self.field
        t_exp = F.dlog_of_int(t % F.p)
        e = np.asarray(idx, dtype=np.int64) - 1
        if t_exp == ZERO:
            return np.zeros_like(e)
        return np.where(e == ZERO, ZERO, (e + t_exp) % F.n1) + 1

    def __eq__(self, other):
        return isinstance(other, FieldAdditiveGroup) and other.field == self.field

    def __hash__(self):
        return hash(("field_additive", self.field))

    def __repr__(self):
        return f"FieldAdditiveGroup({self.field!r})"


def _conv_cyclic(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    lin = ntt.convolve_exact(a, b)
    out = lin[:n].copy()
    out[: len(lin) - n] += lin[n:]
    return out


def _conv_additive(a: np.ndarray, b: np.ndarray, field: FiniteField) -> np.ndarray:
    """Product in Z[(F, +)]: in code order the group is (Z_p)^m, and for
    m = 1 it is Z_p itself."""
    at = field.powers + 1  # code -> coefficient index
    a, b = a[at], b[at]
    if field.m == 1:
        by_code = _conv_cyclic(a, b, field.p)
    else:
        by_code = ntt.convolve_elementary(a, b, field.p)
    out = np.empty_like(by_code)
    out[at] = by_code
    return out


class GroupRingElement:
    """Element of Z[G] as a dense integer coefficient vector."""

    def __init__(self, group, coeffs):
        if isinstance(coeffs, np.ndarray) and coeffs.dtype == object:
            arr = coeffs.copy()
        else:
            arr = np.array(coeffs, dtype=np.int64)
        if arr.shape != (group.order,):
            raise ParameterError(
                f"coefficient vector has length {arr.shape}, group order {group.order}")
        arr.setflags(write=False)
        self.group = group
        self.coeffs = arr

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, group):
        c = np.zeros(group.order, dtype=np.int64)
        c[0] = 1
        return cls(group, c)

    @classmethod
    def all_ones(cls, group):
        return cls(group, np.ones(group.order, dtype=np.int64))

    @classmethod
    def from_indices(cls, group, indices: Iterable[int]):
        c = np.zeros(group.order, dtype=np.int64)
        if not isinstance(indices, (list, tuple, np.ndarray)):
            indices = list(indices)
        # range check before the int64 cast, which overflows past 2^63
        idx = np.asarray(indices)
        if len(idx) and (idx.min() < 0 or idx.max() >= group.order):
            raise ParameterError("subset index out of range")
        idx = idx.astype(np.int64, copy=False)
        c[idx] = 1
        if c.sum() != len(idx):
            raise ParameterError("subset indices must be distinct")
        return cls(group, c)

    # -- ring structure --------------------------------------------------------

    def _check_group(self, other: "GroupRingElement"):
        if self.group != other.group:
            raise ParameterError("group mismatch in group-ring operation")

    def __add__(self, other):
        self._check_group(other)
        return GroupRingElement(self.group, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_group(other)
        return GroupRingElement(self.group, self.coeffs - other.coeffs)

    def __rmul__(self, scalar: int):
        if not isinstance(scalar, (int, np.integer)):
            return NotImplemented
        return GroupRingElement(self.group, self.coeffs * int(scalar))

    def __mul__(self, other):
        if isinstance(other, (int, np.integer)):
            return GroupRingElement(self.group, self.coeffs * int(other))
        if isinstance(other, GroupRingElement):
            return self.convolve(other)
        return NotImplemented

    def __neg__(self):
        return GroupRingElement(self.group, -self.coeffs)

    def convolve(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check_group(other)
        g = self.group
        if g.kind == "cyclic":
            return GroupRingElement(g, _conv_cyclic(self.coeffs, other.coeffs, g.order))
        return GroupRingElement(g, _conv_additive(self.coeffs, other.coeffs, g.field))

    def power_map(self, t: int) -> "GroupRingElement":
        """A^{(t)} = sum a_g g^t (accumulating when t is not a unit)."""
        g = self.group
        out = np.zeros(g.order, dtype=self.coeffs.dtype)
        idx = np.flatnonzero(self.coeffs)
        if len(idx):
            tgt = g.power_indices(idx, t)
            np.add.at(out, tgt, self.coeffs[idx])
        return GroupRingElement(g, out)

    # -- queries ---------------------------------------------------------------

    def coeff_sum(self) -> int:
        return int(self.coeffs.sum())

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.coeffs)

    def is_zero_one(self) -> bool:
        return bool(np.all((self.coeffs == 0) | (self.coeffs == 1)))

    def subset_indices(self) -> tuple[int, ...]:
        if not self.is_zero_one():
            raise ParameterError("element is not a 0/1 subset indicator")
        return tuple(int(i) for i in self.support())

    def scalar_divisible(self, d: int) -> bool:
        if d == 0:
            raise ParameterError("division by zero")
        return bool(np.all(self.coeffs % d == 0))

    def exact_scalar_div(self, d: int) -> "GroupRingElement":
        if not self.scalar_divisible(d):
            raise ParameterError(f"coefficients not divisible by {d}")
        return GroupRingElement(self.group, self.coeffs // d)

    def __eq__(self, other):
        return (isinstance(other, GroupRingElement)
                and self.group == other.group
                and bool(np.all(self.coeffs == other.coeffs)))

    def __hash__(self):
        return hash((self.group, self.coeffs.tobytes()
                     if self.coeffs.dtype != object else tuple(self.coeffs)))

    def __repr__(self):
        nz = np.count_nonzero(self.coeffs)
        return f"GroupRingElement({self.group!r}, support={nz})"


# -- difference set machinery ----------------------------------------------------


def is_difference_set(D: GroupRingElement, v: int, k: int, lam: int) -> bool:
    """D D^{(-1)} = (k - lam) + lam * G, with parameter sanity enforced."""
    if D.group.order != v:
        raise ParameterError(f"group order {D.group.order} != v = {v}")
    if k * (k - 1) != lam * (v - 1):
        raise ParameterError(
            f"inconsistent difference-set parameters ({v},{k},{lam})")
    if not D.is_zero_one():
        raise ParameterError("difference set candidate must be a 0/1 subset")
    if D.coeff_sum() != k:
        return False
    prod = D.convolve(D.power_map(-1))
    expect = np.full(v, lam, dtype=np.int64)
    expect[0] = k
    return bool(np.all(prod.coeffs == expect))


def is_relative_difference_set(D: GroupRingElement, m: int, n: int, k: int,
                               lam: int) -> bool:
    """D D^{(-1)} = k + lam (G - N) in G = Z_mn, relative to N = <m>.

    The cyclic group Z_mn has exactly one subgroup of order n,
    N = {0, m, ..., (n - 1) m}, so the parameters fix the forbidden
    subgroup.
    """
    g = D.group
    if not isinstance(g, CyclicGroup):
        raise ParameterError("relative difference sets are checked in Z_mn")
    if m * n != g.order:
        raise ParameterError(f"m*n = {m*n} != group order {g.order}")
    if m < 2:
        raise ParameterError("relative parameters degenerate: m must be >= 2")
    if not D.is_zero_one():
        raise ParameterError("candidate must be a 0/1 subset")
    if D.coeff_sum() != k:
        return False
    prod = D.convolve(D.power_map(-1))
    expect = np.full(g.order, lam, dtype=np.int64)
    expect[::m] = 0
    expect[0] = k
    return bool(np.all(prod.coeffs == expect))


def ds_quotient(P: GroupRingElement, A: GroupRingElement,
                params: tuple[int, int, int]) -> Optional[GroupRingElement]:
    """Exact quotient P / A when A is a (v,k,lam)-difference set.

    Since A A^{(-1)} = m + lam G with m = k - lam and k^2 = m + lam v, the
    inverse of A in the rational group algebra is
    A^{(-1)} (1 - (lam/k^2) G) / m, which collapses to the integer test:
    k (P * A^{(-1)}) - lam sigma(P) G must be divisible by m k coordinatewise.
    The candidate quotient is re-multiplied against A; only Q with Q A = P
    is returned, otherwise None.
    """
    v, k, lam = params
    if not is_difference_set(A, v, k, lam):
        raise ParameterError(f"A is not a ({v},{k},{lam}) difference set")
    if P.group != A.group:
        raise ParameterError("group mismatch between P and A")
    m = k - lam
    t = k * P.convolve(A.power_map(-1)) - (lam * P.coeff_sum()) * GroupRingElement.all_ones(P.group)
    if not t.scalar_divisible(m * k):
        return None
    Q = t.exact_scalar_div(m * k)
    if Q.convolve(A) != P:
        return None
    return Q
