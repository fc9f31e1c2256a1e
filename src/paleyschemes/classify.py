"""Configurations of schemes and their isomorphism machinery.

A scheme over a field of order 1 mod 4 yields a strongly regular Cayley
graph; over a field of order 3 mod 4 it yields a Hadamard 2-design. Three
layers of comparison are provided, from cheapest to most precise:

  1. semilinear canonical forms, exact for equivalence under the maps
     x -> c x^(p^k) (a computable subgroup of all additive automorphisms),
  2. fingerprints, isomorphism invariants that certify non-isomorphism
     (designs get a second, deeper tier from triple point counts),
  3. canonical certificates from individualization-refinement, which
     decide configuration isomorphism outright and give exact
     automorphism group orders.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .errors import (BudgetExceededError, InternalInconsistencyError,
                     ParameterError, PreconditionError)
from .fields import ZERO, FiniteField
from .schemes import SchemeRecord

DEFAULT_NODE_BUDGET = 1_000_000

# refuse to materialize matrices for orders past this point
MAX_CONFIGURATION_ORDER = 4096


@dataclass(eq=False)
class Configuration:
    """A concrete graph or design built from a scheme."""

    kind: str                 # "srg_graph" or "hadamard_design"
    p: int
    n: int
    matrix: np.ndarray        # adjacency, or point x block incidence
    params: tuple[int, ...]
    _ir: Optional[tuple[bytes, int]] = field(default=None, repr=False)
    _triple: Optional[tuple] = field(default=None, repr=False)
    _rec: Optional[SchemeRecord] = field(default=None, repr=False)


def _difference_matrix(rec: SchemeRecord) -> np.ndarray:
    """entry[x, y] = 1 iff x - y lands in D, over all field elements.

    Element order: the zero element first, then g^0, g^1, ...
    """
    F = rec.field
    n1 = F.n1
    elems = np.concatenate(([ZERO], np.arange(n1, dtype=np.int64)))
    negs = elems.copy()
    negs[1:] = (negs[1:] + n1 // 2) % n1
    diff = F.add_array(elems[:, None], negs[None, :])
    member = np.zeros(n1 + 1, dtype=np.uint8)
    member[np.asarray(rec.D, dtype=np.int64) + 1] = 1  # shift: ZERO -> 0
    return member[diff + 1]


def make_configuration(rec: SchemeRecord) -> Configuration:
    """Build the Cayley graph or the development design of a scheme."""
    if not rec.verified_by:
        raise PreconditionError("configuration wants a verified scheme")
    order = rec.n1 + 1
    if order > MAX_CONFIGURATION_ORDER:
        raise ParameterError(f"order {order} is past the configuration cap")
    M = _difference_matrix(rec)
    k = (order - 1) // 2
    if order % 4 == 1:
        if (M != M.T).any():
            raise InternalInconsistencyError(
                "graph configuration needs D = -D, but D is not symmetric")
        lam, mu = (order - 5) // 4, (order - 1) // 4
        A = M.astype(np.int64)
        sq = A @ A
        expect = (k * np.eye(order, dtype=np.int64)
                  + lam * A + mu * (1 - np.eye(order, dtype=np.int64) - A))
        if (sq != expect).any():
            raise InternalInconsistencyError(
                f"adjacency is not strongly regular ({order},{k},{lam},{mu})")
        return Configuration(kind="srg_graph", p=rec.p, n=order,
                             matrix=M, params=(order, k, lam, mu), _rec=rec)
    lam = (order - 3) // 4
    A = M.astype(np.int64)
    gram = A @ A.T
    expect = (k - lam) * np.eye(order, dtype=np.int64) + lam
    if (gram != expect).any() or (M.sum(axis=0) != k).any():
        raise InternalInconsistencyError(
            f"incidence is not a 2-({order},{k},{lam}) design")
    if len({tuple(col) for col in M.T}) != order:
        raise InternalInconsistencyError("design has repeated blocks")
    return Configuration(kind="hadamard_design", p=rec.p, n=order,
                         matrix=M, params=(order, k, lam), _rec=rec)


# -- fingerprints ------------------------------------------------------------


def _rank_mod_p(matrix: np.ndarray, p: int) -> int:
    m = (matrix.astype(np.int64)) % p
    rows, cols = m.shape
    rank = 0
    row = 0
    for col in range(cols):
        pivots = np.flatnonzero(m[row:, col])
        if pivots.size == 0:
            continue
        piv = row + int(pivots[0])
        if piv != row:
            m[[row, piv]] = m[[piv, row]]
        m[row] = m[row] * pow(int(m[row, col]), -1, p) % p
        hits = np.flatnonzero(m[:, col])
        hits = hits[hits != row]
        if hits.size:
            m[hits] = (m[hits] - np.outer(m[hits, col], m[row])) % p
        rank += 1
        row += 1
        if row == rows:
            break
    return rank


def _clique_counts(adj: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """Number of 4-cliques, global and per vertex (sorted)."""
    n = adj.shape[0]
    per_vertex = np.zeros(n, dtype=np.int64)
    total = 0
    rows, colsidx = np.nonzero(np.triu(adj, 1))
    for u, v in zip(rows, colsidx):
        common = np.flatnonzero(adj[u] & adj[v])
        if common.size < 2:
            continue
        sub = adj[np.ix_(common, common)]
        inside = sub.sum(axis=1).astype(np.int64)
        edges_inside = int(inside.sum()) // 2
        total += edges_inside
        per_vertex[u] += edges_inside
        per_vertex[v] += edges_inside
        per_vertex[common] += inside
    # every 4-clique is met once per base edge, i.e. six times
    if total % 6 or (per_vertex % 6).any():
        raise InternalInconsistencyError("4-clique tally is not divisible by 6")
    return total // 6, tuple(sorted(int(x) // 6 for x in per_vertex))


def fingerprint(C: Configuration) -> tuple:
    """Cheap isomorphism invariant; unequal values certify non-isomorphism."""
    rank = _rank_mod_p(C.matrix, C.p)
    if C.kind == "srg_graph":
        total, spectrum = _clique_counts(C.matrix)
        return (rank, total, spectrum)
    gram = C.matrix.T.astype(np.int64) @ C.matrix
    off = gram[~np.eye(C.n, dtype=bool)]
    sizes, counts = np.unique(off, return_counts=True)
    profile = tuple((int(s), int(c)) for s, c in zip(sizes, counts))
    return (rank, profile, ())


def triple_profile(C: Configuration) -> tuple:
    """Multiset of block counts over point triples of a design.

    The design axioms pin every pair of points to exactly lambda common
    blocks, so pair-based invariants cannot tell two designs with the same
    parameters apart. Triples are not pinned, and how often each triple
    count occurs is preserved by any isomorphism. Quadratic in points per
    point, far below a canonical certificate.
    """
    if C.kind != "hadamard_design":
        raise ParameterError("triple profile is defined for designs")
    if C._triple is None:
        n = C.n
        Ni = C.matrix.astype(np.int32)
        acc = np.zeros(int(C.params[1]) + 1, dtype=np.int64)
        for x in range(n - 2):
            sub = Ni[x + 1:, np.flatnonzero(C.matrix[x])]
            through = sub @ sub.T            # blocks holding x, y, and z
            rows, cols = np.triu_indices(n - x - 1, 1)
            acc += np.bincount(through[rows, cols], minlength=acc.size)
        C._triple = tuple((i, int(c)) for i, c in enumerate(acc.tolist()) if c)
    return C._triple


# -- development designs without the incidence matrix --------------------------

# Keyed on the whole field, modulus included: the table depends on it.
_ADD_TABLE_CACHE: dict[FiniteField, np.ndarray] = {}


def _add_table(F) -> np.ndarray:
    """Padded addition table: entry [x+1, y+1] is the id of x + y, ZERO at 0."""
    if F not in _ADD_TABLE_CACHE:
        elems = np.concatenate(([ZERO], np.arange(F.n1, dtype=np.int64)))
        _ADD_TABLE_CACHE[F] = F.add_array(elems[:, None], elems[None, :]) + 1
    return _ADD_TABLE_CACHE[F]


def _triple_table(F, D) -> np.ndarray:
    """T[x, y] = #{a in D : a + x in D and a + y in D}, padded element ids.

    One 0/1 matrix product; float64 keeps it exact (entries stay far
    below 2^53) and runs through BLAS.
    """
    table = _add_table(F)
    n = table.shape[0]
    m = np.zeros(n, dtype=np.float64)
    m[np.asarray(D, dtype=np.int64) + 1] = 1.0
    S = m[table]
    masked = S * m[:, None]
    return np.rint(masked.T @ S).astype(np.int32)


def _profile_rows(T: np.ndarray) -> np.ndarray:
    n = T.shape[0]
    rows = np.zeros((n - 1, n), dtype=np.int64)
    for u in range(1, n):
        h = np.bincount(T[u], minlength=n)
        h[T[u, 0]] -= 1
        h[T[u, u]] -= 1
        rows[u - 1] = h
    return rows[np.lexsort(rows.T[::-1])]


def development_profile(rec: SchemeRecord) -> bytes:
    """Sorted per-difference triple count histograms of the development.

    For a nonzero u, row u is the histogram over w of the number of
    blocks of dev(D) containing {0, u, w}. Translating D leaves every
    count alone and any affine equivalence permutes the rows, so the
    sorted list is an isomorphism invariant of the design. It refines
    triple_profile (the sum of all rows) at the same one-matrix-product
    cost, with no incidence matrix in sight.
    """
    if (rec.field.n1 + 1) % 4 != 3:
        raise ParameterError("development profile is defined for designs")
    return _profile_rows(_triple_table(rec.field, rec.D)).tobytes()


def affine_link(rec1: SchemeRecord, rec2: SchemeRecord) -> Optional[np.ndarray]:
    """Explicit affine equivalence between two designs over one field.

    Searches for L in GL(m, p) and a translate c with L(D1) + c = D2;
    translates of D2 develop to the same blocks, so a hit makes the two
    configurations isomorphic. The return value is the corresponding
    point permutation in configuration order, which carries the blocks
    of the first design onto those of the second, or None when the
    exhaustive scan proves no affine link exists.

    Candidate basis images are bucketed by their triple count row
    (N(Lu, Lw) = N(u, w) holds for every linear L, whatever the
    translate), and surviving translates are tracked alongside the
    span, so the tree stays narrow. A found map is re-verified by
    direct image comparison before it is returned.
    """
    F = rec1.field
    if rec2.field != F:
        raise ParameterError("affine links need a common field and modulus")
    if (F.n1 + 1) % 4 != 3:
        raise ParameterError("affine links are defined for designs")
    if len(rec1.D) != len(rec2.D):
        return None
    table = _add_table(F)
    n = table.shape[0]
    T1 = _triple_table(F, rec1.D)
    T2 = _triple_table(F, rec2.D)
    if _profile_rows(T1).tobytes() != _profile_rows(T2).tobytes():
        return None

    m2 = np.zeros(n, dtype=bool)
    m2[np.asarray(rec2.D, dtype=np.int64) + 1] = True
    m1 = np.zeros(n, dtype=bool)
    m1[np.asarray(rec1.D, dtype=np.int64) + 1] = True
    shifted2 = m2[table]                       # [c, y] = (y + c) in D2

    buckets: dict[bytes, list[int]] = {}
    for g in range(1, n):
        buckets.setdefault(np.bincount(T2[g], minlength=n).tobytes(),
                           []).append(g)

    # spans of the basis prefix, in a fixed construction order
    deg = F.m
    span = np.array([0], dtype=np.int64)
    new_src: list[np.ndarray] = []
    for b in range(1, deg + 1):
        chunk = []
        mult = b
        while mult != 0:                       # k b for k = 1 .. p-1
            chunk.append(table[span, mult])
            mult = int(table[mult, b])
        new_src.append(np.concatenate(chunk))
        span = np.concatenate([span, new_src[-1]])
    if len(set(span.tolist())) != n:
        raise InternalInconsistencyError("basis prefix failed to span")
    prefix = []
    sofar = 1
    for c in new_src:
        prefix.append(span[:sofar])
        sofar += len(c)
    want = [m1[c] for c in new_src]
    row_keys = [np.bincount(T1[b], minlength=n).tobytes()
                for b in range(1, deg + 1)]

    def extend(level: int, img_span: np.ndarray, in_img: np.ndarray,
               alive: np.ndarray) -> Optional[np.ndarray]:
        if level == deg:
            c = int(np.flatnonzero(alive)[0])
            full = np.empty(n, dtype=np.int64)
            full[span] = img_span
            perm = table[full, c]
            if not np.array_equal(m2[perm], m1) or \
                    len(set(perm.tolist())) != n:
                raise InternalInconsistencyError(
                    "affine link survived the scan but fails re-verification")
            return perm
        b = level + 1
        src_pref = prefix[level]
        for g in buckets.get(row_keys[level], ()):
            if in_img[g]:
                continue
            if T2[g, g] != T1[b, b]:
                continue
            if not np.array_equal(T2[g, img_span], T1[b, src_pref]):
                continue
            chunk = []
            mult = g
            while mult != 0:
                chunk.append(table[img_span, mult])
                mult = int(table[mult, g])
            grown = np.concatenate(chunk)
            ok = alive & (shifted2[:, grown] == want[level]).all(axis=1)
            if not ok.any():
                continue
            nxt = in_img.copy()
            nxt[grown] = True
            hit = extend(level + 1, np.concatenate([img_span, grown]),
                         nxt, ok)
            if hit is not None:
                return hit
        return None

    start = np.zeros(n, dtype=bool)
    start[0] = True
    return extend(0, np.array([0], dtype=np.int64), start,
                  np.ones(n, dtype=bool))


# -- semilinear canonical form ------------------------------------------------


def _least_rotation(s: np.ndarray) -> int:
    """Booth's algorithm: start index of the lexicographically least rotation."""
    n = len(s)
    f = np.full(2 * n, -1, dtype=np.int64)
    k = 0
    for j in range(1, 2 * n):
        sj = s[j % n]
        i = f[j - k - 1]
        while i != -1 and sj != s[(k + i + 1) % n]:
            if sj < s[(k + i + 1) % n]:
                k = j - i - 1
            i = f[i]
        if sj != s[(k + i + 1) % n]:
            if sj < s[(k + i + 1) % n]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def semilinear_canonical(rec: SchemeRecord) -> bytes:
    """Packed least bit string of D over all maps x -> c x^(p^k).

    Scaling rotates the exponent string and the field automorphisms
    multiply exponents, so the orbit is scanned as (number of field
    automorphisms) least-rotation problems.
    """
    n1 = rec.n1
    D = np.asarray(rec.D, dtype=np.int64)
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


def _refine(adj: np.ndarray, cells: list[np.ndarray]) -> list[np.ndarray]:
    """Equitable refinement: split cells by neighbor counts until stable."""
    n = adj.shape[0]
    while True:
        counts = np.empty((n, len(cells)), dtype=np.int64)
        for i, cell in enumerate(cells):
            counts[:, i] = adj[:, cell].sum(axis=1)
        new_cells: list[np.ndarray] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            sub = counts[cell]
            order = np.lexsort(sub.T[::-1])
            cell_sorted = cell[order]
            rows = sub[order]
            cuts = np.flatnonzero(np.any(rows[1:] != rows[:-1], axis=1)) + 1
            pieces = np.split(cell_sorted, cuts)
            if len(pieces) > 1:
                changed = True
            new_cells.extend(np.sort(piece) for piece in pieces)
        cells = new_cells
        if not changed:
            return cells


def _target_cell(cells: list[np.ndarray]) -> Optional[int]:
    candidates = [(len(c), i) for i, c in enumerate(cells) if len(c) > 1]
    if not candidates:
        return None
    return min(candidates)[1]


class _IRSearch:
    """Canonical labeling search with automorphism pruning.

    The certificate is the lexicographically least packed adjacency
    matrix over all leaves of the tree; automorphisms fall out of leaf
    collisions and prune sibling branches through their orbits. A
    configuration built from a scheme seeds in the automorphisms its
    scheme already has; they only enlarge the orbits used for pruning,
    so the certificate and the completed group are the same as for an
    unseeded run, just reached much sooner.
    """

    def __init__(self, adj: np.ndarray, cells: list[np.ndarray], budget: int,
                 seed: Iterable[np.ndarray] = ()):
        self.adj = adj
        self.n = adj.shape[0]
        self.budget = budget
        self.spent = 0
        self.gens: list[np.ndarray] = []
        self.gen_keys: set[bytes] = set()
        self.first: Optional[tuple[bytes, np.ndarray]] = None
        self.best: Optional[tuple[bytes, np.ndarray]] = None
        self.root = [np.asarray(c, dtype=np.int64) for c in cells]
        for g in seed:
            self._record_automorphism(np.asarray(g, dtype=np.int64))

    def run(self) -> tuple[bytes, list[np.ndarray]]:
        self._explore(self.root, [])
        return self.best[0], self.gens

    def _explore(self, cells: list[np.ndarray], prefix: list[int]) -> None:
        self.spent += 1
        if self.spent > self.budget:
            raise BudgetExceededError(
                f"isomorphism search visited {self.spent} nodes",
                spent=self.spent)
        cells = _refine(self.adj, cells)
        pos = _target_cell(cells)
        if pos is None:
            self._leaf(cells)
            return
        target = cells[pos]
        explored: list[int] = []
        stamp = -1
        orbit = None
        for x in target.tolist():
            if explored:
                if stamp != len(self.gens):
                    orbit = self._orbits(prefix)
                    stamp = len(self.gens)
                if any(orbit[x] == orbit[y] for y in explored):
                    continue
            split = (cells[:pos]
                     + [np.array([x], dtype=np.int64), target[target != x]]
                     + cells[pos + 1:])
            self._explore(split, prefix + [x])
            explored.append(x)

    def _orbits(self, prefix: list[int]) -> np.ndarray:
        """Orbit labels under the found generators that fix the prefix."""
        parent = np.arange(self.n, dtype=np.int64)

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        pref = np.asarray(prefix, dtype=np.int64)
        for g in self.gens:
            if pref.size and (g[pref] != pref).any():
                continue
            for v in range(self.n):
                ra, rb = find(v), find(int(g[v]))
                if ra != rb:
                    parent[rb] = ra
        return np.fromiter((find(v) for v in range(self.n)),
                           dtype=np.int64, count=self.n)

    def _leaf(self, cells: list[np.ndarray]) -> None:
        order = np.concatenate(cells)
        cert = np.packbits(self.adj[np.ix_(order, order)]).tobytes()
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
        if (self.adj[np.ix_(g, g)] != self.adj).any():
            raise InternalInconsistencyError(
                "a seed or leaf collision is not an automorphism")
        self.gen_keys.add(key)
        self.gens.append(g)


def _perm_group_order(degree: int, gens: Iterable[np.ndarray]) -> int:
    """Exact order of the generated permutation group (stabilizer chain)."""
    ident = np.arange(degree, dtype=np.int64)
    seeds = []
    seen = set()
    for g in gens:
        g = np.asarray(g, dtype=np.int64)
        key = g.tobytes()
        if key not in seen and (g != ident).any():
            seen.add(key)
            seeds.append(g)
    if not seeds:
        return 1

    base: list[int] = []
    level_gens: list[list[np.ndarray]] = []
    orbits: list[dict[int, np.ndarray]] = []

    def inv(p: np.ndarray) -> np.ndarray:
        q = np.empty_like(p)
        q[p] = ident
        return q

    def new_level(pt: int) -> None:
        base.append(pt)
        level_gens.append([])
        orbits.append({})

    def build_orbit(i: int) -> None:
        orb = {base[i]: ident}
        queue = [base[i]]
        while queue:
            x = queue.pop()
            ux = orb[x]
            for g in level_gens[i]:
                y = int(g[x])
                if y not in orb:
                    orb[y] = g[ux]
                    queue.append(y)
        orbits[i] = orb

    def strip(g: np.ndarray, start: int) -> tuple[np.ndarray, int]:
        for i in range(start, len(base)):
            x = int(g[base[i]])
            if x not in orbits[i]:
                return g, i
            g = inv(orbits[i][x])[g]
        return g, len(base)

    def verify(i: int) -> None:
        build_orbit(i)
        for x in sorted(orbits[i]):
            ux = orbits[i][x]
            for g in list(level_gens[i]):
                y = int(g[x])
                s = inv(orbits[i][y])[g[ux]]
                if (s == ident).all():
                    continue
                h, j = strip(s, i + 1)
                if (h == ident).all():
                    continue
                if j == len(base):
                    new_level(int(np.flatnonzero(h != ident)[0]))
                for k in range(i + 1, j + 1):
                    level_gens[k].append(h)
                for k in range(j, i, -1):
                    verify(k)

    first_moved = min(int(np.flatnonzero(g != ident)[0]) for g in seeds)
    new_level(first_moved)
    level_gens[0] = seeds
    verify(0)
    out = 1
    for orb in orbits:
        out *= len(orb)
    return out


def _ir_inputs(C: Configuration) -> tuple[np.ndarray, list[np.ndarray]]:
    if C.kind == "srg_graph":
        return C.matrix, [np.arange(C.n)]
    big = np.zeros((2 * C.n, 2 * C.n), dtype=np.uint8)
    big[:C.n, C.n:] = C.matrix
    big[C.n:, :C.n] = C.matrix.T
    return big, [np.arange(C.n), np.arange(C.n, 2 * C.n)]


def _seed_point_maps(C: Configuration) -> list[np.ndarray]:
    """The scheme's seeds as IR vertex permutations; none without a scheme.

    Each seed maps point i to seed[i]. Graphs take them directly; for
    designs the induced block permutation is recovered by matching
    permuted incidence columns. The search checks every one against the
    adjacency matrix.
    """
    if C._rec is None:
        return []
    seeds = scheme_seeds(C._rec)
    if C.kind == "srg_graph":
        return seeds
    M = C.matrix
    lookup = {M[:, j].tobytes(): j for j in range(C.n)}
    out = []
    for g in seeds:
        shuffled = np.empty_like(M)
        shuffled[g, :] = M
        blocks = np.empty(C.n, dtype=np.int64)
        for j in range(C.n):
            hit = lookup.get(shuffled[:, j].tobytes())
            if hit is None:
                raise InternalInconsistencyError(
                    "scheme seed does not map blocks to blocks")
            blocks[j] = hit
        out.append(np.concatenate((g, C.n + blocks)))
    return out


def scheme_seeds(rec: SchemeRecord) -> list[np.ndarray]:
    """Known automorphisms of the configuration of a scheme, as point maps.

    Translations by a field basis always qualify. On top of those the
    maps x -> c x^(p^k) are scanned: a graph needs c D^(p^k) to equal D
    on the nose, a design only needs it to land on a translate of D
    (translates develop to the same block set). A small generating set
    of the hits is returned; the refinement search of the scheme's
    configuration starts from these.
    """
    F = rec.field
    n1 = F.n1
    elems = np.concatenate(([ZERO], np.arange(n1, dtype=np.int64)))
    seeds = [np.asarray(F.add_array(elems, t), dtype=np.int64) + 1
             for t in range(F.m)]
    D = np.asarray(sorted(rec.D), dtype=np.int64)
    if (n1 + 1) % 4 == 3:
        targets = {frozenset(np.asarray(F.add_array(D, g)).tolist())
                   for g in elems}
    else:
        targets = {frozenset(D.tolist())}
    hits: dict[int, list[int]] = {}
    for k in range(F.m):
        base = (D * pow(F.p, k, n1)) % n1
        for c in range(n1):
            if frozenset(((base + c) % n1).tolist()) in targets:
                hits.setdefault(k, []).append(c)
    pairs = []
    h0 = [c for c in hits.get(0, []) if c]
    if h0:
        c_star = math.gcd(n1, *h0) % n1
        if c_star:
            pairs.append((c_star, 0))
    for k in sorted(hits):
        if k:
            pairs.append((hits[k][0], k))
    j = np.arange(n1, dtype=np.int64)
    for c, k in pairs:
        img = (j * pow(F.p, k, n1) + c) % n1
        seeds.append(np.concatenate(([0], img + 1)))
    return seeds


def _ir_result(C: Configuration, budget: Optional[int]) -> tuple[bytes, int]:
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    elif budget < 1:
        raise ParameterError(f"node budget must be at least 1, not {budget}")
    if C._ir is None:
        adj, cells = _ir_inputs(C)
        search = _IRSearch(adj, cells, budget, seed=_seed_point_maps(C))
        cert, gens = search.run()
        header = f"{C.kind}|{C.params}|".encode()
        C._ir = (header + cert, _perm_group_order(adj.shape[0], gens))
    return C._ir


def canonical_certificate(C: Configuration,
                          budget: Optional[int] = None) -> bytes:
    return _ir_result(C, budget)[0]


def aut_order(C: Configuration, budget: Optional[int] = None) -> int:
    """Exact automorphism group order.

    For designs this is the point-permutation group: blocks are distinct,
    so block images are forced by point images and the color-preserving
    group of the incidence graph is exactly the design group. A scheme's
    configuration is searched from its scheme_seeds, which changes no answer.
    """
    return _ir_result(C, budget)[1]


def iso_test(C1: Configuration, C2: Configuration,
             budget: Optional[int] = None) -> bool:
    if C1.kind != C2.kind:
        raise ParameterError(f"kind mismatch: {C1.kind} vs {C2.kind}")
    if C1.params != C2.params:
        return False
    if fingerprint(C1) != fingerprint(C2):
        return False
    if C1.kind == "hadamard_design" and triple_profile(C1) != triple_profile(C2):
        return False
    return canonical_certificate(C1, budget) == canonical_certificate(C2, budget)
