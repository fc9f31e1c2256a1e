"""Configurations of schemes and their isomorphism machinery.

A scheme over a field of order 1 mod 4 yields a strongly regular Cayley
graph; over a field of order 3 mod 4 it yields a Hadamard 2-design. Three
layers of comparison are provided, from cheapest to most precise:

  1. semilinear canonical forms, exact for equivalence under the maps
     x -> c x^(p^k) (a computable subgroup of all additive automorphisms),
  2. isomorphism invariants that certify non-isomorphism, read off the
     scheme a configuration carries: the fingerprint of a graph (full
     p-rank, 4-cliques from one vertex) and the development profile of
     a design, its triple counts,
  3. canonical certificates from individualization-refinement, which
     decide configuration isomorphism outright. The same search gives
     the exact automorphism group order, as the product of the orbit
     sizes along its first path. A configuration built from a bare
     matrix, with no scheme, has only this layer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .errors import (BudgetExceededError, InternalInconsistencyError,
                     ParameterError, PreconditionError)
from .fields import ZERO, FiniteField
from .schemes import SchemeRecord, _D_array

DEFAULT_NODE_BUDGET = 1_000_000

# refuse to materialize matrices for orders past this point
MAX_CONFIGURATION_ORDER = 4096


@dataclass(eq=False)
class Configuration:
    """A concrete graph or design built from a scheme."""

    kind: str                 # "srg_graph" or "hadamard_design"
    n: int
    matrix: np.ndarray        # adjacency, or point x block incidence
    params: tuple[int, ...]
    _ir: Optional[tuple[bytes, int]] = field(default=None, repr=False)
    _rec: Optional[SchemeRecord] = field(default=None, repr=False)


def _check_order(F: FiniteField) -> None:
    if F.n1 + 1 > MAX_CONFIGURATION_ORDER:
        raise ParameterError(f"order {F.n1 + 1} is past the configuration cap")


def _point_codes(F: FiniteField) -> np.ndarray:
    """Codes in point order: the zero element, then g^0, g^1, ..."""
    return np.insert(F.codes, 0, 0)  # int32, as the codes


def _difference_matrix(rec: SchemeRecord, blocks: np.ndarray) -> np.ndarray:
    """entry[x, j] = 1 iff x - blocks[j], a digit sum of codes, is in D.

    Column j is the incidence of the block D + blocks[j], x over the points.
    """
    F = rec.field
    _check_order(F)
    code = _point_codes(F)
    negs = np.where(blocks == ZERO, ZERO, (blocks + F.n1 // 2) % F.n1)
    member = np.zeros(F.order, dtype=np.uint8)  # D in code order
    member[F.codes[_D_array(rec)]] = 1
    return member[F.code_sum(code[:, None], code[negs + 1])]


def make_configuration(rec: SchemeRecord) -> Configuration:
    """Build the Cayley graph or the development design of a scheme.

    The identities are checked with float64 products through BLAS, which
    are exact: every entry is at most the order, at most 4096 < 2^53. A
    design needs no separate check for repeated blocks: M M^T =
    (k - lambda) I + lambda J with column sums k gives M^T M = (k - lambda)
    I + lambda J (see `fingerprint`), so two blocks meet in lambda < k
    points and differ.
    """
    if not rec.verified_by:
        raise PreconditionError("configuration wants a verified scheme")
    M = _difference_matrix(rec, np.arange(ZERO, rec.n1))  # all points
    order = M.shape[0]
    k = (order - 1) // 2
    A = M.astype(np.float64)
    eye = np.eye(order)
    if order % 4 == 1:
        if (M != M.T).any():
            raise InternalInconsistencyError(
                "graph configuration needs D = -D, but D is not symmetric")
        lam, mu = (order - 5) // 4, (order - 1) // 4
        expect = k * eye + lam * A + mu * (1 - eye - A)
        if (A @ A != expect).any():
            raise InternalInconsistencyError(
                f"adjacency is not strongly regular ({order},{k},{lam},{mu})")
        return Configuration(kind="srg_graph", n=order,
                             matrix=M, params=(order, k, lam, mu), _rec=rec)
    lam = (order - 3) // 4
    expect = (k - lam) * eye + lam
    if (A @ A.T != expect).any() or (M.sum(axis=0) != k).any():
        raise InternalInconsistencyError(
            f"incidence is not a 2-({order},{k},{lam}) design")
    return Configuration(kind="hadamard_design", n=order,
                         matrix=M, params=(order, k, lam), _rec=rec)


# -- fingerprints ------------------------------------------------------------


def fingerprint(C: Configuration) -> tuple:
    """Cheap isomorphism invariant; unequal values certify non-isomorphism.

    A graph gives (p-rank, number of 4-cliques, sorted 4-cliques per
    vertex), a design (p-rank, sorted histogram of the off-diagonal
    block intersection sizes, ()). Every part is read off the scheme the
    configuration carries, with the values the n x n matrix would give;
    a configuration without a scheme raises `PreconditionError`.

    - The p-rank is n, for graphs and designs alike. Entry [x, y] is 1
      iff x - y lies in D, so the matrix is the regular representation
      of D in F_p[(F, +)]: column y is D + y. (F, +) is a p-group, so
      F_p[(F, +)] is a local ring whose maximal ideal is the
      augmentation ideal, and an element outside it is a unit. The
      augmentation of D is |D| = (q - 1)/2 = -1/2 mod p, not 0, so D
      is a unit and the matrix is invertible over F_p. Brouwer & van
      Eijl (J. Algebraic Combin. 1, 1992) compare graphs by p-rank.
    - The translations x -> x + t are automorphisms of the Cayley graph,
      so every vertex lies on the same number c of 4-cliques: the
      triangles of the graph induced on the neighbourhood of vertex 0,
      c = sum((B B) o B) / 6 for that k x k block B. The total is n c / 4.
      The float64 product is exact: the sum is at most k^3 < 2^53.
    - Every pair of blocks of a design meets in lambda points, so the
      profile is ((lambda, n(n - 1)),), a function of the parameters.
      `make_configuration` checked M M^T = (k - lambda) I + lambda J and
      column sums k, so JM = kJ and M^T J = kJ. Then k MJ = M M^T J =
      (k - lambda + lambda n) J = k^2 J, as lambda (n - 1) = k (k - 1),
      so MJ = kJ. M is invertible because k > lambda, and M^(-1) J =
      J / k. So M^T M = M^(-1) (M M^T) M = (k - lambda) I + lambda
      M^(-1) J M = (k - lambda) I + lambda J.
    """
    if C._rec is None:
        raise PreconditionError("fingerprint wants a configuration of a scheme")
    if C.kind == "hadamard_design":
        return (C.n, ((C.params[2], C.n * (C.n - 1)),), ())
    nb = np.flatnonzero(C.matrix[0])
    B = C.matrix[np.ix_(nb, nb)].astype(np.float64)
    six_c = int(((B @ B) * B).sum())
    if six_c % 6 or C.n * (six_c // 6) % 4:
        raise InternalInconsistencyError(
            "4-clique tally of a vertex-transitive graph is not "
            "divisible by 6, or n c by 4")
    c = six_c // 6
    return (C.n, C.n * c // 4, (c,) * C.n)


# -- development designs without the incidence matrix --------------------------

def _triple_table(rec: SchemeRecord) -> np.ndarray:
    """T[x, y] = #{a in D : a + x in D and a + y in D}, padded element ids.

    The k blocks through point 0 are D - a for a in D, and x lies on
    D - a iff a + x is in D. So T = M_0 M_0^T for the pencil M_0, the
    difference matrix at those k columns only. The float64 product runs
    through BLAS and is exact: every entry is at most k.
    """
    minus_D = (_D_array(rec) + rec.n1 // 2) % rec.n1
    pencil = _difference_matrix(rec, minus_D).astype(np.float64)
    return (pencil @ pencil.T).astype(np.int32)


def _profile_rows(T: np.ndarray) -> np.ndarray:
    """Sorted histograms of T[u, w] over w not in {0, u}, one per u >= 1,
    all from one bincount with row u - 1 offset by (u - 1) n."""
    n = T.shape[0]
    u = np.arange(1, n)
    rows = np.bincount((T[1:] + (u - 1)[:, None] * n).ravel(),
                       minlength=(n - 1) * n).reshape(n - 1, n)
    rows[u - 1, T[u, 0]] -= 1
    rows[u - 1, T[u, u]] -= 1
    return rows[np.lexsort(rows.T[::-1])]


def development_profile(rec: SchemeRecord) -> bytes:
    """Sorted per-difference triple count histograms of the development.

    For a nonzero u, row u is the histogram over w of the number
    N(0, u, w) of blocks of dev(D) containing {0, u, w}. In any design,
    the histogram over z of N(x, y, z), taken over all ordered pairs of
    distinct points, is a multiset preserved by isomorphism. In a
    development, translating by -x gives N(x, y, z) = N(0, y - x, z - x),
    so the histogram of the pair (x, y) is row y - x, and the multiset is
    n copies of the rows. The sorted rows therefore are an isomorphism
    invariant of the design, under every relabeling and not just affine
    maps. They come from one k-column matrix product, with no incidence
    matrix of the whole design, and summed they give the triple counts.
    """
    if (rec.field.n1 + 1) % 4 != 3:
        raise ParameterError("development profile is defined for designs")
    return _profile_rows(_triple_table(rec)).tobytes()


def affine_link(rec1: SchemeRecord, rec2: SchemeRecord) -> Optional[np.ndarray]:
    """Explicit affine equivalence between two designs over one field.

    Searches for L in GL(m, p) and a translate c with L(D1) + c = D2;
    translates of D2 develop to the same blocks, so a hit makes the two
    configurations isomorphic. The return value is the corresponding
    point permutation in configuration order, which carries the blocks
    of the first design onto those of the second, or None when the
    exhaustive scan proves no affine link exists.

    The scan works in code coordinates, where (F, +) = (Z_p)^m: code j
    has the digits of j in base p as its coefficients on x^0 ... x^(m-1),
    and F.powers[j] + 1 is its point. The span of x^0 ... x^(k-1) is the
    codes below p^k, so a partial map L is the k x m matrix of the digit
    rows of its basis images, code j < p^k goes to digits(j) L mod p, and
    addition is digit-wise mod p. Candidates for L(x^k) are bucketed by
    their triple count row (N(Lu, Lw) = N(u, w) holds for every linear L,
    whatever the translate) and must match the triple counts on the span
    so far; the live translates c are those with L(y) + c in D2 exactly
    when y is in D1 on the span, so the tree stays narrow. A found map is
    re-verified by direct image comparison before it is returned.
    """
    F = rec1.field
    if rec2.field != F:
        raise ParameterError("affine links need a common field and modulus")
    if (F.n1 + 1) % 4 != 3:
        raise ParameterError("affine links are defined for designs")
    if len(rec1.D) != len(rec2.D):
        return None
    T1 = _triple_table(rec1)
    T2 = _triple_table(rec2)
    if _profile_rows(T1).tobytes() != _profile_rows(T2).tobytes():
        return None

    p, m, n = F.p, F.m, F.n1 + 1
    point = F.powers.astype(np.int64) + 1      # code -> point
    code = np.empty(n, dtype=np.int64)
    code[point] = np.arange(n)
    base = p ** np.arange(m)
    digits = np.arange(n)[:, None] // base % p  # row j: digits of code j
    m1 = np.zeros(n, dtype=bool)
    m1[_D_array(rec1) + 1] = True
    m2 = np.zeros(n, dtype=bool)
    m2[_D_array(rec2) + 1] = True
    in1, in2 = m1[point], m2[point]            # membership in code order

    buckets: dict[bytes, list[int]] = {}
    for g in range(1, n):
        buckets.setdefault(np.bincount(T2[g], minlength=n).tobytes(),
                           []).append(g)

    def survivors(alive: np.ndarray, img: np.ndarray,
                  want: np.ndarray) -> np.ndarray:
        """The translates c in alive with y + c in D2 exactly where want is
        set, for the rows y of the image digits img."""
        # at most min(n^2, 2^20) digit sums at once, n x m for one row
        rows = max(1, min(n * n, 1 << 20) // (len(want) * m))
        keep = []
        for start in range(0, len(alive), rows):
            c = digits[alive[start:start + rows], None]
            keep.append((in2[(img + c) % p @ base] == want).all(axis=1))
        return alive[np.concatenate(keep)]

    def extend(L: np.ndarray, alive: np.ndarray) -> Optional[np.ndarray]:
        k = len(L)
        if k == m:
            image = (digits @ L + digits[alive[0]]) % p @ base
            perm = np.empty(n, dtype=np.int64)
            perm[point] = point[image]
            if not np.array_equal(m2[perm], m1) or \
                    len(np.unique(perm)) != n:
                raise InternalInconsistencyError(
                    "affine link survived the scan but fails re-verification")
            return perm
        span = p ** k
        src = point[:span]
        dst = point[digits[:span, :k] @ L % p @ base]
        b = point[span]                        # the point of x^k
        g = np.array(buckets.get(np.bincount(T1[b], minlength=n).tobytes(),
                                 []), dtype=np.int64)
        taken = np.zeros(n, dtype=bool)
        taken[dst] = True
        g = g[~taken[g] & (T2[g, g] == T1[b, b])
              & (T2[g[:, None], dst] == T1[b, src]).all(axis=1)]
        for x in g:
            grown = np.vstack([L, digits[code[x]]])
            ok = survivors(alive, digits[span:p * span, :k + 1] @ grown % p,
                           in1[span:p * span])
            if len(ok):
                hit = extend(grown, ok)
                if hit is not None:
                    return hit
        return None

    # code 0 is the point 0, which goes to c itself
    return extend(np.zeros((0, m), dtype=np.int64),
                  np.flatnonzero(in2 == in1[0]))


# -- semilinear canonical form ------------------------------------------------


def _least_rotation(s: np.ndarray) -> int:
    """Start index of the lexicographically least rotation of a 0/1 string.

    Prefix doubling (Karp, Miller & Rosenberg, STOC 1972): rank[i] orders
    the cyclic substrings of length `step` that start at i, and the pair
    (rank[i], rank[i + step]) orders those of length 2 step. Once step
    reaches n, the ranks order the rotations themselves.
    """
    n = len(s)
    rank = np.asarray(s, dtype=np.int64)
    step = 1
    while step < n:
        key = rank * (n + 1) + np.roll(rank, -step)
        rank = np.unique(key, return_inverse=True)[1]
        step *= 2
    return int(np.argmin(rank))


def semilinear_canonical(rec: SchemeRecord) -> bytes:
    """Packed least bit string of D over all maps x -> c x^(p^k).

    Scaling rotates the exponent string and the field automorphisms
    multiply exponents, so the orbit is scanned as (number of field
    automorphisms) least-rotation problems.
    """
    n1 = rec.n1
    D = _D_array(rec)
    best = None
    for k in range(rec.field.m):
        mult = pow(rec.p, k, n1)
        bits = np.zeros(n1, dtype=np.uint8)
        bits[(D * mult) % n1] = 1
        start = _least_rotation(bits)
        rotated = np.roll(bits, -start)
        packed = np.packbits(rotated).tobytes()
        if best is None or packed < best:
            best = packed
    return best


def canonical_hash(rec: SchemeRecord) -> str:
    return hashlib.sha256(semilinear_canonical(rec)).hexdigest()


# -- individualization-refinement ---------------------------------------------


def _refine(adj: np.ndarray, order: np.ndarray, starts: np.ndarray,
            active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equitable refinement, counting only against the cells that split.

    The partition is one vertex order with the ascending start positions
    of its cells, 0 first; `adj` is symmetric. Each round takes the
    vertices of the non-singleton cells and counts their neighbours in
    the active cells, given by start position. A cell is cut where the
    count row changes, so its pieces stay in its place, in lexicographic
    order of their rows, each piece ascending; singleton cells are left
    as they are. The rounds stop when no cell splits.

    After a round the partition is equitable with respect to the cells
    the round started from. So against a cell that was not cut, and
    against the union of the pieces of a cut cell, all vertices of a
    cell have the same count, and the next round counts against the
    pieces of the cut cells only. It leaves out the last piece of each:
    its count is the cell's total less the pieces before it, so it
    never decides the order of two rows. The count rows of a cell thus
    order and cut it exactly as the rows against every cell would. The
    first round counts against `active`: every cell at the root, and at
    a child of an equitable partition, whose target cell was cut into
    {x} and the rest, the start of {x} alone.

    A count is at most its cell's size, below 2^b for the largest active
    cell, so a row is read as base 2^b digits, f = 52 // b to a word.
    One float64 product of digit weights with the adjacency rows of the
    active cells gives the words, exactly, as every partial sum is below
    2^52; the words order the rows as the digits do. One lexsort keyed
    on (cell, words, vertex) sorts the vertices.
    """
    n = order.size
    key = np.min_scalar_type(n)
    order = order.copy()
    head = np.zeros(n, dtype=bool)              # True where a cell starts
    head[starts] = True
    act = np.zeros(n, dtype=bool)               # True where an active one does
    act[active] = True
    while True:
        single = head.copy()
        single[:-1] &= head[1:]
        pos = (~single).nonzero()[0]
        if pos.size == 0:
            break
        cell_of = head.cumsum(dtype=key)
        cell_of -= 1
        cols = act[head][cell_of].nonzero()[0]
        digit = head[cols].cumsum() - 1         # active cell of each column
        b = int(np.bincount(digit).max()).bit_length()
        f = 52 // b
        place = 2.0 ** (b * (f - 1 - digit % f))
        weights = np.zeros((int(digit[-1]) // f + 1, cols.size))
        weights[digit // f, np.arange(cols.size)] = place
        verts = order[pos]
        words = weights @ adj[order[cols]][:, verts]
        cells = cell_of[pos]
        sort = np.lexsort((verts, *words[::-1], cells))
        order[pos] = verts[sort]
        words = words[:, sort]
        cells = cells[sort]
        cut = (words[:, 1:] != words[:, :-1]).any(axis=0)
        cut &= cells[1:] == cells[:-1]
        new = pos[1:][cut]
        if new.size == 0:
            break
        cell = cell_of[new]
        # every piece of a cut cell but the last: the cell's old start,
        # and each new start with a later one in the same cell
        act[:] = False
        act[head.nonzero()[0][cell]] = True
        act[new[:-1][cell[:-1] == cell[1:]]] = True
        head[new] = True
    return order, head.nonzero()[0]


# leaves are compared on this many rows before the whole certificate
_HEAD_ROWS = 32


class _IRSearch:
    """Canonical labeling and automorphism group order from one search.

    The certificate is the lexicographically least packed adjacency
    matrix over all leaves of the tree; automorphisms fall out of leaf
    collisions and prune sibling branches through their orbits. A
    configuration built from a scheme seeds in the automorphisms its
    scheme already has; they only enlarge the orbits used for pruning,
    so the certificate and the group order are the same as for an
    unseeded run, just reached much sooner.

    A node holds its partition as one vertex order with cell starts. Its
    target is the first of the smallest non-singleton cells, and the
    child for x puts x first in the target and cuts it after x. The
    parent is equitable, so the child's refinement starts from the new
    cell {x} alone (see `_refine`); only the root counts against every
    cell. The orbits that prune siblings are labelled by their least
    vertex, with array passes over the generators (see `_orbits`).

    The group order is read off the first path, the nodes entered before
    the first leaf, each the first child of the one above (McKay &
    Piperno, JSC 60, 2014). Say the node with prefix v_0 ... v_(i-1)
    tries v_i first. Once all its children are explored or pruned, it
    reads the orbit of v_i under the generators found so far that fix
    the prefix pointwise. |Aut| is the product of these readings: by
    orbit-stabilizer along Aut >= Aut_(v_0) >= Aut_(v_0, v_1) >= ...,
    it is enough that each reading is the whole orbit of v_i under the
    automorphisms fixing the prefix, and that the automorphisms fixing
    the whole first path are trivial.

    Every seed and recorded generator preserves the root cells, and
    refinement commutes with automorphisms, so an automorphism fixing a
    prefix maps the subtree of a child onto the subtree of its image,
    certificates included. An individualized vertex keeps its position
    in the final order, so a leaf whose certificate equals the first
    leaf's yields a generator that fixes the prefix the two leaves share
    and maps v_i to that leaf's choice at level i. By induction on the
    pruning rule, each explored node whose subtree holds a leaf with the
    first certificate explores such a leaf: a pruned child is the image
    of an explored sibling under a found automorphism fixing the prefix,
    which carries the leaf along. So every child in the orbit of v_i is
    reached by a found generator, directly or through the sibling that
    pruned it. The automorphisms fixing the whole first path fix the
    discrete partition of the first leaf, so they are trivial.
    """

    def __init__(self, adj: np.ndarray, cells: list[np.ndarray], budget: int,
                 seed: Iterable[np.ndarray] = ()):
        self.adj = adj
        self.n = adj.shape[0]
        self.budget = budget
        self.spent = 0
        self.gens: list[np.ndarray] = []
        self.gen_keys: set[bytes] = set()
        # each generator and its inverse, one row each
        self.moves = np.empty((0, self.n), dtype=np.int64)
        self.order = 1
        self.first: Optional[tuple[bytes, np.ndarray]] = None
        self.best: Optional[tuple[bytes, np.ndarray]] = None
        self.root = np.concatenate(cells).astype(np.int64)
        self.root_starts = np.cumsum([0] + [len(c) for c in cells[:-1]])
        for g in seed:
            self._record_automorphism(np.asarray(g, dtype=np.int64))

    def run(self) -> tuple[bytes, int]:
        """The certificate and |Aut|."""
        self._explore(self.root, self.root_starts, self.root_starts, [])
        return self.best[0], self.order

    def _explore(self, order: np.ndarray, starts: np.ndarray,
                 active: np.ndarray, prefix: list[int]) -> None:
        self.spent += 1
        if self.spent > self.budget:
            raise BudgetExceededError(
                f"isomorphism search visited {self.spent} nodes",
                spent=self.spent)
        on_first_path = self.first is None
        order, starts = _refine(self.adj, order, starts, active)
        sizes = np.concatenate((starts[1:], [self.n])) - starts
        if sizes.max() == 1:
            self._leaf(order)
            return
        t = int(np.argmin(np.where(sizes > 1, sizes, self.n + 1)))
        lo, hi = int(starts[t]), int(starts[t] + sizes[t])
        target = order[lo:hi]
        child_starts = np.concatenate((starts[:t + 1], [lo + 1],
                                       starts[t + 1:]))
        child_active = starts[t:t + 1]
        explored: list[int] = []
        stamp = -1
        for x in target.tolist():
            if explored:
                if stamp != len(self.gens):
                    orbit = self._orbits(prefix).tolist()
                    stamp = len(self.gens)
                    seen = {orbit[y] for y in explored}
                if orbit[x] in seen:
                    continue
            child = np.concatenate((order[:lo], [x], target[target != x],
                                    order[hi:]))
            self._explore(child, child_starts, child_active, prefix + [x])
            explored.append(x)
            if stamp == len(self.gens):
                seen.add(orbit[x])
        if on_first_path:
            orbit = self._orbits(prefix)
            self.order *= int(np.count_nonzero(orbit == orbit[target[0]]))

    def _orbits(self, prefix: list[int]) -> np.ndarray:
        """The least vertex of each orbit under the found generators that
        fix the prefix, one label per vertex.

        Each pass lowers every label to the least label among its images
        and preimages under those generators, then jumps each label to
        the label of the vertex it names. A label only ever names a
        vertex of the same orbit, no larger than the vertex it labels,
        so the passes end, and at their end the labels are constant on
        orbits and fix themselves: each is its orbit's least vertex.
        """
        label = np.arange(self.n)
        moves = self.moves
        if prefix:
            pref = np.asarray(prefix)
            moves = moves[(moves[:, pref] == pref).all(axis=1)]
        if moves.shape[0] == 0:
            return label
        while True:
            lower = np.minimum(label, label[moves].min(axis=0))
            lower = lower[lower]
            if (lower == label).all():
                return label
            label = lower

    def _leaf(self, order: np.ndarray) -> None:
        if self.first is not None:
            # the first rows pack to a prefix of the certificate, as
            # their bit count is a multiple of 8; most leaves differ
            # from the first leaf and rank after the best one there
            head = np.packbits(self.adj[order[:_HEAD_ROWS]][:, order])
            head = head.tobytes()
            if (head != self.first[0][:len(head)]
                    and head > self.best[0][:len(head)]):
                return
        cert = np.packbits(self.adj[order][:, order]).tobytes()
        if self.first is None:
            self.first = (cert, order)
            self.best = (cert, order)
            return
        for anchor_cert, anchor_order in (self.first, self.best):
            if cert == anchor_cert:
                g = np.empty(self.n, dtype=np.int64)
                g[anchor_order] = order
                self._record_automorphism(g)
        if cert < self.best[0]:
            self.best = (cert, order)

    def _record_automorphism(self, g: np.ndarray) -> None:
        key = g.tobytes()
        if key in self.gen_keys or (g == np.arange(self.n)).all():
            return
        if (self.adj[g][:, g] != self.adj).any():
            raise InternalInconsistencyError(
                "a seed or leaf collision is not an automorphism")
        inverse = np.empty_like(g)
        inverse[g] = np.arange(self.n)
        self.gen_keys.add(key)
        self.gens.append(g)
        self.moves = np.vstack((self.moves, g, inverse))


def _ir_inputs(C: Configuration) -> tuple[np.ndarray, list[np.ndarray]]:
    if C.kind == "srg_graph":
        return C.matrix, [np.arange(C.n)]
    big = np.zeros((2 * C.n, 2 * C.n), dtype=np.uint8)
    big[:C.n, C.n:] = C.matrix
    big[C.n:, :C.n] = C.matrix.T
    return big, [np.arange(C.n), np.arange(C.n, 2 * C.n)]


def _seed_point_maps(C: Configuration) -> list[np.ndarray]:
    """The scheme's seeds as IR vertex permutations; none without a scheme.

    Each seed maps point i to seed[i]. Graphs take them directly. For a
    design, column j of the incidence matrix is the block D + x_j for
    the point x_j, and every seed g is additive with g(D) = D (see
    `scheme_seeds`), so g carries the block D + x_j onto D + g(x_j):
    its block map is its point map. The search checks every seed
    against the adjacency matrix.
    """
    if C._rec is None:
        return []
    seeds = scheme_seeds(C._rec)
    if C.kind == "srg_graph":
        return seeds
    return [np.concatenate((g, C.n + g)) for g in seeds]


def scheme_seeds(rec: SchemeRecord) -> list[np.ndarray]:
    """Known automorphisms of the configuration of a scheme, as point maps.

    Translations by a field basis always qualify. On top of those the
    maps x -> c x^(p^k) with c D^(p^k) = D are scanned, for graphs and
    designs alike. A small generating set of the hits is returned; the
    refinement search of the scheme's configuration starts from these.

    A design would also keep its block set under a map with
    c D^(p^k) = D + s, since translates develop to the same blocks, but
    for q > 3 that forces s = 0. The image c D^(p^k) is again a skew
    Hadamard difference set, so for a nontrivial additive character chi
    both chi(D) and chi(D + s) = chi(s) chi(D) are (-1 +- sqrt(-q)) / 2:
    D u -D = F* gives real part -1/2, the difference set gives modulus
    sqrt((q + 1) / 4). Hence Re(chi(D) (chi(s) - 1)) = 0. With
    chi(s) = e^(i theta) this is cos(theta) +- sqrt(q) sin(theta) = 1,
    so chi(s) = 1 or tan^2(theta / 2) = q. Now theta = 2 pi j / p, and
    tan^2(pi j / p) = (1 - cos theta) / (1 + cos theta) has the degree
    (p - 1) / 2 of cos(2 pi j / p) over Q, so it is rational only at
    p = 3, where it is 3: an integer power of p only at q = 3. So
    chi(s) = 1 for every chi, and s = 0. At q = 3 the map x -> -x sends
    D = {1} to D + 1 and is left out; the search finds it anyway.
    """
    F = rec.field
    n1 = F.n1
    code = _point_codes(F)  # x^t has code p^t: translate by adding it
    seeds = [F.powers[F.code_sum(code, F.p ** t)].astype(np.int64) + 1
             for t in range(F.m)]
    member = np.zeros(n1, dtype=bool)
    member[_D_array(rec)] = True
    D = np.flatnonzero(member)
    j = np.arange(n1, dtype=np.int64)
    for k in range(F.m):
        # D maps into D under a bijection iff onto D. The hits at k = 0
        # are a subgroup of Z_n1, generated by its least c > 0, and those
        # at k > 0 a coset of it, so the first hit at each k suffices.
        base = D * pow(F.p, k, n1)
        c = next((c for c in range(1 if k == 0 else 0, n1)
                  if member[(base + c) % n1].all()), None)
        if c is not None:
            img = (j * pow(F.p, k, n1) + c) % n1
            seeds.append(np.concatenate(([0], img + 1)))
    return seeds


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise ParameterError(f"node budget must be at least 1, not {budget}")


def _ir_result(C: Configuration, budget: int) -> tuple[bytes, int]:
    _check_budget(budget)
    if C._ir is None:
        adj, cells = _ir_inputs(C)
        search = _IRSearch(adj, cells, budget, seed=_seed_point_maps(C))
        cert, order = search.run()
        header = f"{C.kind}|{C.params}|".encode()
        C._ir = (header + cert, order)
    return C._ir


def canonical_certificate(C: Configuration,
                          budget: int = DEFAULT_NODE_BUDGET) -> bytes:
    return _ir_result(C, budget)[0]


def aut_order(C: Configuration, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Exact automorphism group order.

    The order is read off the same search that gives the certificate: the
    product of the first-path orbit sizes of `_IRSearch`, with no second
    pass over the generators. For designs this is the point-permutation
    group: blocks are distinct, so block images are forced by point
    images and the color-preserving group of the incidence graph is
    exactly the design group. A scheme's configuration is searched from
    its scheme_seeds, which changes no answer.
    """
    return _ir_result(C, budget)[1]


def iso_test(C1: Configuration, C2: Configuration,
             budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Parameters first, then one invariant, then the certificate.

    Two graphs of schemes compare fingerprints. Two designs of schemes
    compare development profiles: a design's fingerprint is a function
    of its parameters. A configuration without a scheme goes straight
    to the certificate.
    """
    _check_budget(budget)
    if C1.kind != C2.kind:
        raise ParameterError(f"kind mismatch: {C1.kind} vs {C2.kind}")
    if C1.params != C2.params:
        return False
    if C1._rec is not None and C2._rec is not None:
        if C1.kind == "srg_graph":
            if fingerprint(C1) != fingerprint(C2):
                return False
        elif development_profile(C1._rec) != development_profile(C2._rec):
            return False
    return canonical_certificate(C1, budget) == canonical_certificate(C2, budget)
