"""Singer difference sets, relative difference sets, and weighing vectors.

Everything is built from trace computations inside one big field and then
projected; multi-layer objects are never assembled from separately built
small fields, because the discrete-log presentations would not match.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import ntt
from .errors import InternalInconsistencyError, ParameterError
from .fields import FiniteField, get_field
from .groupring import (CyclicGroup, GroupRingElement,
                        is_relative_difference_set)


@dataclass(frozen=True)
class SingerBundle:
    """Trace-one data of the layer F_{q^l} / F_q, q = p^e."""

    p: int
    e: int
    l: int
    field: FiniteField
    R: tuple[int, ...]        # trace-one exponents in Z_{q^l - 1}
    S: tuple[int, ...]        # projection to Z_v, v = (q^l-1)/(q-1)
    W: Optional[tuple[int, ...]]  # signed projection, l odd only
    verified: bool

    @property
    def q(self) -> int:
        return self.p ** self.e

    @property
    def v(self) -> int:
        return (self.q ** self.l - 1) // (self.q - 1)

    @property
    def n1(self) -> int:
        return self.q ** self.l - 1

    def ds_params(self) -> tuple[int, int, int]:
        q, l = self.q, self.l
        return (self.v, q ** (l - 1), q ** (l - 2) * (q - 1))

    def rds_params(self) -> tuple[int, int, int, int]:
        q, l = self.q, self.l
        return (self.v, q - 1, q ** (l - 1), q ** (l - 2))

    def weighing_element(self) -> GroupRingElement:
        if self.W is None:
            raise ParameterError("weighing vector exists only for odd l")
        return GroupRingElement(CyclicGroup(self.v), np.array(self.W, dtype=np.int64))


def _residues(R: np.ndarray, v: int) -> np.ndarray:
    """The distinct residues of R mod v, sorted (a bincount, which unlike
    np.unique does not import numpy.ma)."""
    return np.flatnonzero(np.bincount(R % v, minlength=v))


def _weighing_from_R(R: np.ndarray, v: int) -> np.ndarray:
    W = np.zeros(v, dtype=np.int64)
    W[R % v] = 1 - 2 * (R % 2)
    return W


def _verify_bundle(b: SingerBundle, R: np.ndarray, S: np.ndarray,
                   W: Optional[np.ndarray]) -> None:
    """Check the one identity the bundle of tower b rests on, on the arrays
    R, S and W that b's tuples hold; the rest follows.

    The runtime checks are: |R| = q^(l-1); the trace-one elements lie in
    distinct cosets of N = <v> (the order-(q-1) subgroup) and S is their
    projection; W is the signed projection of R (odd l); R is stable
    under x -> p*x; and, for l >= 2, the relative difference-set
    identity R R^(-1) = q^(l-1) + q^(l-2) (G - N) in Z[Z_n1].  The other
    classical properties are consequences, so they are not re-checked
    (Pott, Finite Geometry and Character Theory, LNM 1601, ch. 2;
    Arasu, Dillon, Leung & Ma, JCTA 94, 2001):

    * S is a (v, q^(l-1), q^(l-2)(q-1)) difference set: the projection
      Z_n1 -> Z_v sends G to (q-1) G_v, N to q-1 and, the cosets being
      distinct, R to S, so it carries the RDS identity to
      S S^(-1) = q^(l-1) - q^(l-2)(q-1) + q^(l-2)(q-1) G_v.
    * The complement of S is a difference set, as the complement of any
      difference set is.
    * For odd l, v is odd and q-1 is even (p is odd, since FiniteField
      rejects p = 2), so x -> (-1)^x (x mod v) is a ring map
      Z[Z_n1] -> Z[Z_v] that commutes with the involution.  It sends R
      to W and both G and N to 0, hence W W^(-1) = q^(l-1), and the
      augmentation gives (sum W)^2 = q^(l-1).
    * The number of trace-zero cosets is v - |R|.
    * p*S = S mod v is the projection of p*R = R mod n1.
    """
    q, l, v, n1 = b.q, b.l, b.v, b.n1
    if len(R) != q ** (l - 1):
        raise InternalInconsistencyError("trace-one set has wrong size")
    if len(S) != len(R) or not np.array_equal(S, _residues(R, v)):
        raise InternalInconsistencyError(
            "S is not the coset-distinct projection of R")
    W_ok = (np.array_equal(W, _weighing_from_R(R, v)) if l % 2 == 1
            else W is None)
    if not W_ok:
        raise InternalInconsistencyError("W is not the signed projection of R")
    # sorted, in range and closed under the multiplier p in one compare
    if not np.array_equal(np.sort(R * b.p % n1), R):
        raise InternalInconsistencyError("R is not stable under the multiplier p")

    if l >= 2:
        Rel = GroupRingElement.from_indices(CyclicGroup(n1), R)
        if not is_relative_difference_set(Rel, *b.rds_params()):
            raise InternalInconsistencyError(
                "trace-one set is not a relative difference set")


def check_transform_cap(p: int, e: int, l: int) -> None:
    """Raise `ParameterError` if the bundle self-check of the tower, the
    product R * R^(-1) in Z_n1 (l >= 2), needs a transform past the NTT's
    longest.  It reads p, e and l alone, so it runs before any field is
    built; a tower with e < 1 is left to the callers' own checks."""
    if e >= 1 and l >= 2:
        ntt.transform_size(2 * ((p ** e) ** l - 1) - 1)


def build_singer_bundle(p: int, e: int, l: int,
                        field: Optional[FiniteField] = None,
                        verify: bool = True) -> SingerBundle:
    if l < 1:
        raise ParameterError(f"layer degree l = {l} must be >= 1")
    q = p ** e
    if verify:
        check_transform_cap(p, e, l)
    if field is None:
        field = get_field(p, e * l)
    elif field.p != p or field.m != e * l:
        raise ParameterError("field does not match the requested tower")
    v = (q ** l - 1) // (q - 1)
    te = field.trace_exponents(e)
    R = np.flatnonzero(te == 0).astype(np.int64)  # trace exactly 1
    S = _residues(R, v)
    if len(S) != len(R):
        raise InternalInconsistencyError("projection lost elements")
    W = _weighing_from_R(R, v) if l % 2 == 1 else None
    bundle = SingerBundle(p=p, e=e, l=l, field=field,
                          R=tuple(R.tolist()), S=tuple(S.tolist()),
                          W=None if W is None else tuple(W.tolist()),
                          verified=verify)
    if verify:
        _verify_bundle(bundle, R, S, W)
    return bundle


@lru_cache(maxsize=None)
def singer_bundle(p: int, e: int, l: int) -> SingerBundle:
    """Cached, verified bundle over the shared default-modulus field."""
    return build_singer_bundle(p, e, l)


# -- GMW layer composition ----------------------------------------------------


@dataclass(frozen=True)
class GmwComponents:
    """Objects of the tower F_q <= F_{q^t} <= F_{q^{st}}, all in one field."""

    p: int
    e: int
    t: int
    s: int
    field: FiniteField
    rtilde: tuple[int, ...]        # in Z_{v_st}
    s_sub: tuple[int, ...]         # in Z_{v_t}, embedded presentation
    w_sub: tuple[int, ...]         # weighing vector of the sub-layer (t odd)
    s_big: tuple[int, ...]         # in Z_{v_st}

    @property
    def q(self) -> int:
        return self.p ** self.e

    @property
    def v_t(self) -> int:
        return (self.q ** self.t - 1) // (self.q - 1)

    @property
    def v_st(self) -> int:
        return (self.q ** (self.s * self.t) - 1) // (self.q - 1)

    @property
    def embed_step(self) -> int:
        return self.v_st // self.v_t

    def embed(self, X) -> np.ndarray:
        """Index map Z_{v_t} -> Z_{v_st}, j -> j * (v_st / v_t)."""
        return (np.asarray(sorted(X), dtype=np.int64) * self.embed_step) % self.v_st

    def rtilde_rds_params(self) -> tuple[int, int, int, int]:
        q, t, s = self.q, self.t, self.s
        return ((q ** (s * t) - 1) // (q ** t - 1), (q ** t - 1) // (q - 1),
                q ** (s * t - t), q ** (s * t - 2 * t) * (q - 1))


def gmw_components(p: int, e: int, t: int, s: int) -> GmwComponents:
    """The verified layers of the tower over the default field F_{q^(st)}."""
    if s < 2:
        raise ParameterError(f"need at least two layers, got s = {s}")
    q = p ** e
    field = get_field(p, e * s * t)
    n1 = field.n1
    v_st = (q ** (s * t) - 1) // (q - 1)
    v_t = (q ** t - 1) // (q - 1)
    u = (q ** (s * t) - 1) // (q ** t - 1)  # subfield exponent step; = v_st/v_t

    # relative trace-one set of the top layer, projected to Z_{v_st}
    te_top = field.trace_exponents(e * t)
    R_top = np.flatnonzero(te_top == 0).astype(np.int64)
    rtilde = _residues(R_top, v_st)
    if len(rtilde) != len(R_top):
        raise InternalInconsistencyError("top-layer projection lost elements")

    # the middle layer's Singer set, off the trace-one set R of the tower:
    # for r in R_top and y in F_{q^t}, tr_{q^(st)/q}(y g^r) = tr_{q^t/q}(y),
    # as tr_{q^(st)/q^t}(g^r) = 1; so g^(j u) has trace one iff j u + r in R
    big = singer_bundle(p, e, s * t)
    in_R = np.bincount(big.R, minlength=n1)
    R_sub = np.flatnonzero(in_R[(np.arange(q ** t - 1) * u + R_top[0]) % n1])
    s_sub = _residues(R_sub, v_t)
    if len(s_sub) != len(R_sub):
        raise InternalInconsistencyError("sub-layer projection lost elements")
    w_sub = _weighing_from_R(R_sub, v_t) if t % 2 == 1 else np.zeros(0, np.int64)

    comps = GmwComponents(p=p, e=e, t=t, s=s, field=field,
                          rtilde=tuple(rtilde.tolist()),
                          s_sub=tuple(s_sub.tolist()),
                          w_sub=tuple(w_sub.tolist()),
                          s_big=big.S)
    _verify_gmw(comps)
    return comps


def _verify_gmw(c: GmwComponents) -> None:
    G = CyclicGroup(c.v_st)
    Rt = GroupRingElement.from_indices(G, c.rtilde)
    Semb = GroupRingElement.from_indices(G, c.embed(c.s_sub))
    Sbig = GroupRingElement.from_indices(G, c.s_big)
    if Rt * Semb != Sbig:
        raise InternalInconsistencyError("layer composition identity failed")
    m, n, k, lam = c.rtilde_rds_params()
    if not is_relative_difference_set(Rt, m, n, k, lam):
        raise InternalInconsistencyError(
            "top-layer projection is not a relative difference set")
    # trace composition: tr_{q^{st}/q} = tr_{q^t/q} after tr_{q^{st}/q^t}
    F = c.field
    rng = np.random.default_rng(0)
    q = c.q
    for x in rng.integers(0, F.n1, size=32):
        inner = F.rel_trace(c.e * c.t, int(x))
        acc = inner
        for i in range(1, c.t):
            acc = F.add(acc, F.pow(inner, pow(q, i, F.n1)))
        if acc != F.rel_trace(c.e, int(x)):
            raise InternalInconsistencyError("trace tower composition failed")
