import dataclasses
import itertools

import numpy as np
import pytest

from paleyschemes import classify
from paleyschemes.classify import (Configuration, _IRSearch, _ir_inputs,
                                   _least_rotation,
                                   _profile_rows, _refine,
                                   _triple_table, affine_link,
                                   aut_order,
                                   canonical_hash, canonical_certificate,
                                   development_profile, fingerprint,
                                   iso_test, make_configuration, scheme_seeds,
                                   semilinear_canonical)
from paleyschemes.constructions import adp_check, power_set
from paleyschemes.errors import (BudgetExceededError,
                                 InternalInconsistencyError, ParameterError,
                                 PreconditionError)
from paleyschemes.fields import ZERO, FiniteField, get_field
from paleyschemes.graph6 import decode_graph6, design_to_json, encode_graph6
from paleyschemes.schemes import (SchemeRecord, build_DX, certify, frobenius,
                                  negate, scale)
from paleyschemes.search import search_galois_invariant
from paleyschemes.singer import singer_bundle


def paley(p, m, field=None):
    F = field if field is not None else get_field(p, m)
    rec = SchemeRecord(field=F, e=1, l=m, D=tuple(range(0, F.n1, 2)),
                       provenance="paley", verified_by=frozenset())
    return certify(rec, ("additive",))


def scheme_of_power(p, l, t):
    b = singer_bundle(p, 1, l)
    rec = build_DX(p, 1, l, power_set(b.S, t, b.v))
    return certify(rec, ("additive",))


# -- configurations ------------------------------------------------------------


def test_paley_graph_of_order_nine():
    C = make_configuration(paley(3, 2))
    assert C.kind == "srg_graph"
    assert C.params == (9, 4, 1, 2)
    assert C.matrix.sum() == 9 * 4


def test_fano_plane_from_seven():
    C = make_configuration(paley(7, 1))
    assert C.kind == "hadamard_design"
    assert C.params == (7, 3, 1)
    gram = C.matrix.T.astype(int) @ C.matrix
    off = gram[~np.eye(7, dtype=bool)]
    assert set(off.tolist()) == {1}  # any two lines meet in one point


def test_eleven_point_design_params():
    C = make_configuration(paley(11, 1))
    assert C.params == (11, 5, 2)


def test_configuration_requires_verification():
    F = get_field(5, 1)
    rec = SchemeRecord(field=F, e=1, l=1, D=(0, 2),
                       provenance="manual", verified_by=frozenset())
    with pytest.raises(PreconditionError):
        make_configuration(rec)


def test_design_with_a_repeated_block_is_refused(monkeypatch):
    # column sums stay k, but two equal blocks break M M^T = (k - lambda) I
    # + lambda J
    real = classify._difference_matrix

    def repeated(rec, blocks):
        M = real(rec, blocks).copy()
        M[:, 1] = M[:, 0]
        return M

    monkeypatch.setattr(classify, "_difference_matrix", repeated)
    with pytest.raises(InternalInconsistencyError, match="design"):
        make_configuration(paley(11, 1))


# -- fingerprints ---------------------------------------------------------------
#
# `fingerprint` reads everything off the scheme. The oracles below compute
# the same invariant from the n x n matrix alone, and are checked in turn
# against brute force.

# (edge, vertex) cells per chunk of the 4-clique tally
CLIQUE_CHUNK = 1 << 14


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank over F_p by row echelon form.

    Each pivot clears only the rows below it, over the columns from the
    pivot on: the columns to its left are already zero in those rows.
    """
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
        pivot_row = m[row, col:] * pow(int(m[row, col]), -1, p) % p
        below = row + 1 + np.flatnonzero(m[row + 1:, col])
        if below.size:
            m[below, col:] = (m[below, col:]
                              - np.outer(m[below, col], pivot_row)) % p
        rank += 1
        row += 1
        if row == rows:
            break
    return rank


def clique_counts(adj: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """Number of 4-cliques, global and per vertex (sorted).

    For each edge u < v with common neighbourhood C of at least two
    vertices, the edges inside C close 4-cliques through u v: each
    w in C is credited with its degree into C, and u, v and the total
    with half their sum. Every 4-clique is met once per base edge, so
    all tallies are six times the answer.

    The rows are packed into uint64 words. The edges go in chunks of
    CLIQUE_CHUNK // n; a chunk computes C = P[u] & P[v] for all its
    edges, one popcount(P[w] & C) per (edge, w in C) pair, and the
    per-edge and per-vertex sums by bincount. A chunk has at most
    CLIQUE_CHUNK pairs of value at most n, so its float64 sums are
    exact integers.
    """
    n = adj.shape[0]
    words = -(-n // 64)
    packed = np.zeros((n, 8 * words), dtype=np.uint8)
    packed[:, :-(-n // 8)] = np.packbits(adj != 0, axis=1)
    P = packed.view(np.uint64)
    per_vertex = np.zeros(n, dtype=np.int64)
    total = 0
    us, vs = np.nonzero(np.triu(adj, 1))
    step = max(1, CLIQUE_CHUNK // max(n, 1))
    for lo in range(0, us.size, step):
        u, v = us[lo:lo + step], vs[lo:lo + step]
        edge, w = np.nonzero(adj[u] & adj[v])
        sizes = np.bincount(edge, minlength=u.size)
        keep = sizes[edge] >= 2
        edge, w = edge[keep], w[keep]
        common = P[u] & P[v]
        inside = np.bitwise_count(P[w] & common[edge]).sum(axis=1)
        edges_inside = (np.bincount(edge, inside, u.size)
                        .astype(np.int64) // 2)
        total += int(edges_inside.sum())
        per_vertex += (np.bincount(w, inside, n)
                       + np.bincount(u, edges_inside, n)
                       + np.bincount(v, edges_inside, n)).astype(np.int64)
    if total % 6 or (per_vertex % 6).any():
        raise InternalInconsistencyError("4-clique tally is not divisible by 6")
    return total // 6, tuple(sorted(int(x) // 6 for x in per_vertex))


def matrix_fingerprint(matrix, kind, p):
    """`fingerprint` computed from the matrix: the p-rank, then the
    4-clique counts of a graph or the block intersection profile of a
    design."""
    rank = rank_mod_p(matrix, p)
    if kind == "srg_graph":
        return (rank, *clique_counts(matrix))
    n = matrix.shape[0]
    gram = matrix.T.astype(np.int64) @ matrix
    off = gram[~np.eye(n, dtype=bool)]
    sizes, counts = np.unique(off, return_counts=True)
    profile = tuple((int(s), int(c)) for s, c in zip(sizes, counts))
    return (rank, profile, ())


def brute_rank_mod_p(m, p):
    """Rank via null space counting, feasible for tiny matrices."""
    m = np.asarray(m) % p
    rows, cols = m.shape
    solutions = 0
    for vec in itertools.product(range(p), repeat=cols):
        if not ((m @ np.asarray(vec)) % p).any():
            solutions += 1
    null_dim = round(np.log(solutions) / np.log(p))
    assert p ** null_dim == solutions
    return cols - null_dim


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_mod_p_against_null_space(p):
    rng = np.random.default_rng(11 + p)
    for _ in range(8):
        m = rng.integers(0, p, size=(5, 6))
        assert rank_mod_p(m, p) == brute_rank_mod_p(m, p)


def brute_k4(adj):
    n = adj.shape[0]
    per = np.zeros(n, dtype=int)
    total = 0
    for quad in itertools.combinations(range(n), 4):
        if all(adj[a, b] for a, b in itertools.combinations(quad, 2)):
            total += 1
            for a in quad:
                per[a] += 1
    return total, tuple(sorted(int(x) for x in per))


def test_clique_counts_against_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(6):
        n = 10
        adj = np.zeros((n, n), dtype=np.uint8)
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.55:
                adj[i, j] = adj[j, i] = 1
        assert clique_counts(adj) == brute_k4(adj)


def k4_by_neighbourhoods(adj):
    """4-cliques through x are the triangles of the graph on N(x)."""
    A = adj.astype(np.int64)
    per = [int(np.trace(np.linalg.matrix_power(A[np.ix_(nb, nb)], 3))) // 6
           for nb in (np.flatnonzero(row) for row in A)]
    return sum(per) // 4, tuple(sorted(per))


def random_graph(rng, n, density):
    upper = np.triu(rng.random((n, n)) < density, 1)
    return (upper | upper.T).astype(np.uint8)


def test_clique_counts_at_word_and_chunk_boundaries():
    rng = np.random.default_rng(64)
    for n in (63, 64, 65, 130):
        for density in (0.3, 0.7):
            adj = random_graph(rng, n, density)
            assert clique_counts(adj) == k4_by_neighbourhoods(adj)
    assert clique_counts(np.zeros((9, 9), dtype=np.uint8)) == (0, (0,) * 9)
    k7 = 1 - np.eye(7, dtype=np.uint8)
    assert clique_counts(k7) == (35, (20,) * 7)
    # 3875 edges, far more than one chunk holds at 125 vertices
    adj = make_configuration(paley(5, 3)).matrix
    assert np.triu(adj, 1).sum() > CLIQUE_CHUNK // adj.shape[0]
    assert clique_counts(adj) == k4_by_neighbourhoods(adj)


def test_clique_count_self_check_catches_asymmetric_input():
    rng = np.random.default_rng(8)
    for _ in range(200):
        adj = rng.integers(0, 2, size=(8, 8)).astype(np.uint8)
        with pytest.raises(InternalInconsistencyError):
            clique_counts(adj)


def test_fingerprint_stable_under_rebuilt_field():
    default = paley(13, 1)
    other_field = FiniteField(13, 1, modulus=(6, 1))
    rebuilt = paley(13, 1, field=other_field)
    assert default.D != rebuilt.D or default.field.modulus != other_field.modulus
    C1, C2 = make_configuration(default), make_configuration(rebuilt)
    assert fingerprint(C1) == fingerprint(C2)
    assert iso_test(C1, C2)


def without_scheme(C):
    """The same configuration, built from its matrix alone: no seeds."""
    return Configuration(kind=C.kind, n=C.n, matrix=C.matrix,
                         params=C.params)


def scheme_configurations():
    """Paley graphs and designs over prime and non-prime fields, with two
    moduli at 27, and a seeded sample of the Galois-invariant hits at 5^3."""
    other27 = FiniteField(3, 3, modulus=(1, 0, 2, 1))
    recs = [paley(p, m) for p, m in ((5, 1), (13, 1), (17, 1), (29, 1),
                                     (7, 1), (11, 1), (19, 1), (23, 1),
                                     (3, 2), (5, 2), (3, 3), (3, 4))]
    recs.append(paley(3, 3, field=other27))
    hits = search_galois_invariant(5, 1, 3).found
    rng = np.random.default_rng(13)
    recs += [certify(build_DX(5, 1, 3, hits[i]), ("additive",))
             for i in rng.choice(len(hits), size=6, replace=False)]
    return [make_configuration(rec) for rec in recs]


def test_fingerprint_read_off_the_scheme_matches_the_matrix():
    pool = scheme_configurations()
    assert {C.kind for C in pool} == {"srg_graph", "hadamard_design"}
    assert {C.n for C in pool} >= {9, 25, 27, 81, 125}
    spectra = set()
    for C in pool:
        got = fingerprint(C)
        assert got == matrix_fingerprint(C.matrix, C.kind, C._rec.p)
        assert got[0] == C.n
        if C.kind == "srg_graph":
            spectra.add(got[1:])
    assert len(spectra) > len({C.n for C in pool if C.kind == "srg_graph"})


def test_fingerprint_of_a_bare_configuration_is_refused():
    for rec in (paley(13, 1), paley(3, 3), paley(5, 2)):
        C = make_configuration(rec)
        fingerprint(C)
        with pytest.raises(PreconditionError):
            fingerprint(without_scheme(C))


def test_fingerprint_stable_under_relabeling():
    rng = np.random.default_rng(3)
    for rec in (paley(13, 1), paley(19, 1)):
        C = make_configuration(rec)
        points = rng.permutation(C.n)
        # a graph relabels rows and columns alike, a design apart
        blocks = points if C.kind == "srg_graph" else rng.permutation(C.n)
        relabeled = C.matrix[np.ix_(points, blocks)]
        assert fingerprint(C) == matrix_fingerprint(relabeled, C.kind, rec.p)


# -- semilinear canonical forms --------------------------------------------------


def brute_least_rotation(bits):
    n = len(bits)
    return min(tuple(bits[(i + r) % n] for i in range(n)) for r in range(n))


def test_least_rotation_against_brute_force():
    rng = np.random.default_rng(17)
    for trial in range(90):
        n = int(rng.integers(1, 131))
        if trial % 3 == 0:
            # periodic strings tie several starts, as the Paley set does
            period = int(rng.integers(1, 9))
            word = rng.integers(0, 2, size=period)
            bits = np.tile(word, max(1, n // period)).astype(np.uint8)
        else:
            bits = rng.integers(0, 2, size=n).astype(np.uint8)
        start = _least_rotation(bits)
        got = tuple(np.roll(bits, -start).tolist())
        assert got == brute_least_rotation(bits.tolist())


def test_squares_and_nonsquares_share_canonical_form():
    for p, m in [(3, 2), (3, 3), (7, 1), (13, 1)]:
        F = get_field(p, m)
        S = SchemeRecord(field=F, e=1, l=m, D=tuple(range(0, F.n1, 2)),
                         provenance="paley", verified_by=frozenset())
        N = SchemeRecord(field=F, e=1, l=m, D=tuple(range(1, F.n1, 2)),
                         provenance="paley", verified_by=frozenset())
        assert semilinear_canonical(S) == semilinear_canonical(N)


def test_singletons_share_canonical_form():
    F = get_field(3, 2)
    forms = set()
    for i in range(F.n1):
        rec = SchemeRecord(field=F, e=1, l=2, D=(i,),
                           provenance="manual", verified_by=frozenset())
        forms.add(semilinear_canonical(rec))
    assert len(forms) == 1


def test_canonical_form_is_a_class_function():
    rec = scheme_of_power(3, 5, 2)
    want = semilinear_canonical(rec)
    rng = np.random.default_rng(29)
    for _ in range(10):
        c = int(rng.integers(0, rec.n1))
        k = int(rng.integers(0, rec.field.m))
        moved = frobenius(scale(rec, c), k)
        assert semilinear_canonical(moved) == want
    assert len(canonical_hash(rec)) == 64


def test_new_125_scheme_is_not_paley_semilinearly():
    new = scheme_of_power(5, 3, 2)
    assert semilinear_canonical(new) != semilinear_canonical(paley(5, 3))


# -- graph6 ----------------------------------------------------------------------


def test_graph6_known_strings():
    k2 = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    assert encode_graph6(k2) == "A_"
    k3 = np.ones((3, 3), dtype=np.uint8) - np.eye(3, dtype=np.uint8)
    assert encode_graph6(k3) == "Bw"
    assert (decode_graph6("Bw") == k3).all()


@pytest.mark.parametrize("n", [1, 5, 62, 63, 100])
def test_graph6_round_trip(n):
    rng = np.random.default_rng(n)
    adj = np.zeros((n, n), dtype=np.uint8)
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.4:
            adj[i, j] = adj[j, i] = 1
    line = encode_graph6(adj)
    assert (decode_graph6(line) == adj).all()
    if n > 62:
        assert line.startswith("~")


def test_graph6_rejects_bad_input():
    with pytest.raises(ParameterError):
        encode_graph6(np.array([[0, 1], [0, 0]], dtype=np.uint8))
    with pytest.raises(ParameterError):
        encode_graph6(np.eye(3, dtype=np.uint8))
    with pytest.raises(ParameterError):
        decode_graph6("B")  # truncated body
    # size bytes below '?', the empty graph, or past '~'
    for line in (">?", "\x7f", "~>??", "~?\x7f?"):
        with pytest.raises(ParameterError, match="graph6 range"):
            decode_graph6(line)


def test_design_json_export():
    C = make_configuration(paley(7, 1))
    data = design_to_json(C.n, C.matrix, C.params)
    assert data["points"] == 7 and data["params"] == [7, 3, 1]
    assert len(data["blocks"]) == 7
    assert all(len(b) == 3 for b in data["blocks"])


# -- permutation group order ------------------------------------------------------


def perm_group_order(degree, gens):
    """Exact order of the generated permutation group, by Schreier-Sims:
    the oracle for the first-path orbit product of `aut_order`."""
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


def perm(n, mapping):
    g = np.arange(n)
    for a, b in mapping.items():
        g[a] = b
    return g


def test_group_order_oracles():
    n = 5
    cycle = np.roll(np.arange(n), -1)
    swap = perm(n, {0: 1, 1: 0})
    assert perm_group_order(n, [cycle, swap]) == 120  # symmetric group
    assert perm_group_order(n, [cycle]) == 5
    assert perm_group_order(n, []) == 1
    klein = [perm(4, {0: 1, 1: 0, 2: 3, 3: 2}),
             perm(4, {0: 2, 2: 0, 1: 3, 3: 1})]
    assert perm_group_order(4, klein) == 4
    hexagon = [np.roll(np.arange(6), -1),
               np.array([0, 5, 4, 3, 2, 1])]
    assert perm_group_order(6, hexagon) == 12  # dihedral
    a4 = [perm(4, {0: 1, 1: 2, 2: 0}), perm(4, {1: 2, 2: 3, 3: 1})]
    assert perm_group_order(4, a4) == 12  # alternating
    split = [perm(5, {0: 1, 1: 0}), perm(5, {2: 3, 3: 4, 4: 2})]
    assert perm_group_order(5, split) == 6  # direct product C2 x C3


# -- exact automorphism orders and isomorphism -------------------------------------


@pytest.mark.parametrize("p,m,expected", [
    (5, 1, 10),     # pentagon
    (3, 2, 72),
    (13, 1, 78),
    (17, 1, 136),
])
def test_paley_graph_aut_orders(p, m, expected):
    assert aut_order(make_configuration(paley(p, m))) == expected


@pytest.mark.parametrize("p,expected", [
    (3, 6),      # all point permutations of the trivial 3-point design
    (7, 168),
    (11, 660),
    (19, 171),
    (23, 253),
])
def test_design_aut_orders(p, expected):
    assert aut_order(make_configuration(paley(p, 1))) == expected


def test_iso_test_under_relabeling():
    C = make_configuration(paley(17, 1))
    rng = np.random.default_rng(7)
    perm17 = rng.permutation(C.n)
    relabeled = Configuration(kind=C.kind, n=C.n,
                              matrix=C.matrix[np.ix_(perm17, perm17)],
                              params=C.params)
    assert iso_test(C, relabeled)


def test_iso_test_kind_guard():
    g = make_configuration(paley(5, 1))
    d = make_configuration(paley(7, 1))
    with pytest.raises(ParameterError):
        iso_test(g, d)


def test_iso_test_fingerprints_only_pairs_of_scheme_graphs(monkeypatch):
    seen = []
    real = classify.fingerprint

    def spy(C):
        seen.append(C)
        return real(C)

    monkeypatch.setattr(classify, "fingerprint", spy)
    rng = np.random.default_rng(4)
    graph = make_configuration(paley(13, 1))
    designs = [make_configuration(paley(19, 1)),
               make_configuration(certify(negate(paley(19, 1)),
                                          ("additive",)))]
    bare_graph = without_scheme(graph)
    bare_design = relabeled_without_scheme(designs[0], rng)
    assert iso_test(*designs)
    assert iso_test(designs[1], bare_design)
    assert iso_test(bare_design, bare_design)
    assert iso_test(graph, bare_graph) and iso_test(bare_graph, graph)
    assert seen == []
    rebuilt = make_configuration(paley(13, 1, field=FiniteField(
        13, 1, modulus=(6, 1))))
    assert iso_test(graph, rebuilt)
    assert seen == [graph, rebuilt]


def test_budget_is_enforced():
    # the seeded search of the 27-point Paley design visits 8 nodes
    C = make_configuration(paley(3, 3))
    with pytest.raises(BudgetExceededError) as err:
        aut_order(C, budget=3)
    assert err.value.spent > 3
    for budget in (0, -1):
        with pytest.raises(ParameterError):
            aut_order(C, budget=budget)
        # iso_test checks on entry, whether or not the parameters match
        for other in (C, make_configuration(paley(7, 1))):
            with pytest.raises(ParameterError, match="budget"):
                iso_test(C, other, budget=budget)


def loop_refine(adj, cells):
    """The refinement as a loop over cells, one count column per cell."""
    n = adj.shape[0]
    while True:
        counts = np.empty((n, len(cells)), dtype=np.int64)
        for i, cell in enumerate(cells):
            counts[:, i] = adj[:, cell].sum(axis=1)
        new_cells = []
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


def assert_same_cells(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_refine_matches_the_per_cell_loop():
    rng = np.random.default_rng(405)
    for n in range(1, 41):
        for _ in range(5):
            adj = random_graph(rng, n, rng.random())
            k = int(rng.integers(1, n + 1))
            cuts = np.sort(rng.choice(np.arange(1, n), k - 1, replace=False))
            cells = np.split(rng.permutation(n), cuts)
            assert_same_cells(_refine(adj, cells), loop_refine(adj, cells))
    for rec in (paley(13, 1), paley(5, 3)):
        adj = make_configuration(rec).matrix
        n = adj.shape[0]
        for cells in ([np.arange(n)],
                      [np.array([3]), np.delete(np.arange(n), 3)]):
            assert_same_cells(_refine(adj, cells), loop_refine(adj, cells))
    # incidence graphs, individualised as the search does it
    for p, m in ((3, 3), (43, 1)):
        adj, cells = _ir_inputs(make_configuration(paley(p, m)))
        for depth in (1, 2, 3):
            for _ in range(3):
                split = loop_refine(adj, cells)
                for _ in range(depth):
                    pos = max(range(len(split)), key=lambda i: len(split[i]))
                    target = split[pos]
                    x = int(rng.choice(target))
                    split = (split[:pos] + [np.array([x]), target[target != x]]
                             + split[pos + 1:])
                    want = loop_refine(adj, split)
                    assert_same_cells(_refine(adj, split), want)
                    split = want


def test_new_125_scheme_aut_order_and_non_paley():
    new = make_configuration(scheme_of_power(5, 3, 2))
    assert aut_order(new) == 2 ** 3 * 3 * 5 ** 3
    base = make_configuration(paley(5, 3))
    assert not iso_test(new, base)


def test_dual_pair_in_125_matches_its_source():
    b = singer_bundle(5, 1, 3)
    rec = adp_check(5, 1, 3, power_set(b.S, 2, b.v))
    other = make_configuration(certify(build_DX(5, 1, 3, rec.dual),
                                       ("additive",)))
    new = make_configuration(scheme_of_power(5, 3, 2))
    assert other.params == new.params


# -- triple counts ----------------------------------------------------------------


def brute_triples(matrix):
    n = matrix.shape[0]
    hist = {}
    for x, y, z in itertools.combinations(range(n), 3):
        t = int(np.sum(matrix[x] & matrix[y] & matrix[z]))
        hist[t] = hist.get(t, 0) + 1
    return tuple(sorted(hist.items()))


def summed_development_rows(rec):
    """Triple counts of the development, read off its profile.

    n copies of the rows cover every ordered pair of distinct points, so
    they count each unordered triple six times.
    """
    n = rec.n1 + 1
    rows = np.frombuffer(development_profile(rec),
                         dtype=np.int64).reshape(rec.n1, n)
    total = rows.sum(axis=0) * n
    assert not (total % 6).any()
    return tuple((t, c // 6) for t, c in enumerate(total.tolist()) if c)


def test_development_rows_fano_exact():
    rec = paley(7, 1)
    assert summed_development_rows(rec) == ((0, 28), (1, 7))
    assert summed_development_rows(rec) == \
        brute_triples(make_configuration(rec).matrix)


def test_development_rows_match_brute_force_on_eleven():
    rec = paley(11, 1)
    assert summed_development_rows(rec) == \
        brute_triples(make_configuration(rec).matrix)


# -- seeded searches -------------------------------------------------------------


def test_seeds_leave_aut_order_and_certificate_alone(monkeypatch):
    for rec in [paley(7, 1), paley(13, 1), paley(3, 3),
                scheme_of_power(5, 3, 2)]:
        assert scheme_seeds(rec)
        seeded = make_configuration(rec)
        plain = without_scheme(seeded)
        assert aut_order(seeded) == aut_order(plain)
        assert canonical_certificate(seeded) == canonical_certificate(plain)
    # X = () is the first hit of search_galois_invariant(3, 1, 5). Its
    # unseeded search takes about 14 s, so the reference run here keeps
    # the translations and drops the maps x -> c x^(p^k), whose block
    # maps are taken to be their point maps.
    rec = certify(build_DX(3, 1, 5, ()), ("additive",))
    real = classify.scheme_seeds
    assert len(real(rec)) > rec.field.m
    seeded = make_configuration(rec)
    want = (aut_order(seeded), canonical_certificate(seeded))
    assert want[0] == 243 * 121 * 5
    monkeypatch.setattr(classify, "scheme_seeds",
                        lambda r: real(r)[:r.field.m])
    translated = make_configuration(rec)
    assert (aut_order(translated), canonical_certificate(translated)) == want


def test_non_automorphism_seeds_are_rejected():
    rng = np.random.default_rng(11)
    for rec in [paley(13, 1), paley(7, 1)]:
        C = make_configuration(rec)
        perm = rng.permutation(C.n)
        relabeled = dataclasses.replace(C, matrix=C.matrix[np.ix_(perm, perm)])
        assert aut_order(without_scheme(relabeled)) == aut_order(C)
        with pytest.raises(InternalInconsistencyError):
            aut_order(relabeled)


# -- development profiles and affine links ----------------------------------------


def raw_record(F, D):
    return SchemeRecord(field=F, e=1, l=F.m, D=tuple(sorted(D)),
                        provenance="manual", verified_by=frozenset())


def loop_triple_table(rec):
    F = rec.field
    elems = [ZERO, *range(F.n1)]
    D = set(rec.D)
    return np.array([[sum(F.add(a, x) in D and F.add(a, y) in D for a in D)
                      for y in elems] for x in elems])


def loop_profile_rows(T):
    rows = []
    for u in range(1, T.shape[0]):
        h = np.bincount(T[u], minlength=T.shape[0])
        h[T[u, 0]] -= 1
        h[T[u, u]] -= 1
        rows.append(tuple(h.tolist()))
    return np.array(sorted(rows))


def test_triple_table_and_profile_rows_match_their_loops():
    for rec in (paley(19, 1), paley(3, 3), scheme_of_power(3, 3, 2)):
        T = _triple_table(rec)
        assert np.array_equal(T, loop_triple_table(rec))
        assert np.array_equal(_profile_rows(T), loop_profile_rows(T))


def test_development_profile_sums_to_triple_profile():
    rec = paley(3, 3)
    assert summed_development_rows(rec) == \
        brute_triples(make_configuration(rec).matrix)


def shift_avoiding_zero(F, D):
    """A nonzero translate g with 0 outside D + g."""
    half = F.n1 // 2
    return next(g for g in range(1, F.n1)
                if (g + half) % F.n1 not in set(D))


def test_development_profile_invariant_under_affine_images():
    rec = scheme_of_power(3, 3, 2)
    base = development_profile(rec)
    assert development_profile(scale(frobenius(rec), 5)) == base
    F = rec.field
    g = shift_avoiding_zero(F, rec.D)
    shifted = np.asarray(F.add_array(np.asarray(rec.D), g)).tolist()
    assert development_profile(raw_record(F, shifted)) == base


def test_development_profile_follows_the_modulus():
    rec = scheme_of_power(3, 3, 2)
    F = rec.field
    G = FiniteField(3, 3, modulus=(1, 0, 2, 1))
    # g_F^17 is a root of x^3 + 2x^2 + 1, so g_G^i -> g_F^(17 i) is a field
    # isomorphism G -> F and the preimage of D is a scheme over G
    root = F.add(F.add(F.pow(17, 3), F.mul(F.dlog_of_int(2), F.pow(17, 2))), 0)
    assert root == ZERO
    inv = pow(17, -1, F.n1)
    image = certify(raw_record(G, [inv * d % F.n1 for d in rec.D]),
                    ("additive",))
    assert development_profile(image) == development_profile(rec)
    assert development_profile(raw_record(F, image.D)) != \
        development_profile(rec)


def test_development_profile_separates_power_and_inverse_at_343():
    a = scheme_of_power(7, 3, 2)
    b = scheme_of_power(7, 3, -1)
    assert development_profile(a) != development_profile(b)


def test_development_profile_rejects_graph_fields():
    with pytest.raises(ParameterError):
        development_profile(paley(13, 1))


def test_affine_link_recovers_translate_of_frobenius_image():
    rec = scheme_of_power(3, 3, 2)
    F = rec.field
    twisted = frobenius(rec)
    g = shift_avoiding_zero(F, twisted.D)
    image = np.asarray(F.add_array(np.asarray(twisted.D), g))
    other = raw_record(F, image.tolist())
    perm = affine_link(rec, other)
    assert perm is not None
    member = np.zeros(F.n1 + 1, dtype=bool)
    member[np.asarray(other.D) + 1] = True
    assert member[perm[np.asarray(rec.D) + 1]].all()


def test_affine_link_with_itself_seeds_the_aut_search():
    rec = scheme_of_power(3, 3, 2)
    perm = affine_link(rec, rec)
    assert perm is not None
    M = make_configuration(rec).matrix
    moved = np.empty_like(M)
    moved[perm, :] = M
    blocks = {col.tobytes() for col in M.T}
    assert {col.tobytes() for col in moved.T} == blocks


def test_affine_link_refuses_impossible_pairs():
    a = scheme_of_power(7, 3, 2)
    b = scheme_of_power(7, 3, -1)
    assert affine_link(a, b) is None
    assert affine_link(raw_record(get_field(3, 3), (0, 1, 2)),
                       paley(3, 3)) is None


def test_affine_link_parameter_errors():
    with pytest.raises(ParameterError):
        affine_link(paley(13, 1), paley(13, 1))
    with pytest.raises(ParameterError):
        affine_link(paley(7, 1), paley(11, 1))
    other = FiniteField(3, 3, modulus=(1, 0, 2, 1))
    with pytest.raises(ParameterError):
        affine_link(paley(3, 3), paley(3, 3, field=other))


def test_add_table_holds_one_field():
    for rec in (paley(7, 1), paley(11, 1), paley(7, 1)):
        perm = affine_link(rec, rec)
        assert perm is not None and sorted(perm.tolist()) == list(range(
            rec.n1 + 1))
    assert classify._add_table.cache_info().currsize == 1


def test_design_helpers_refuse_orders_past_the_cap(monkeypatch):
    rec = paley(7, 3)
    monkeypatch.setattr(classify, "MAX_CONFIGURATION_ORDER", 342)
    with pytest.raises(ParameterError, match="configuration cap"):
        development_profile(rec)
    with pytest.raises(ParameterError, match="configuration cap"):
        affine_link(rec, rec)
    with pytest.raises(ParameterError, match="configuration cap"):
        make_configuration(rec)


# -- iso_test on designs ------------------------------------------------------------


def jacobsthal(p, m):
    """Q[x, y] = chi(x - y), from the Paley configuration of F_(p^m)."""
    M = make_configuration(paley(p, m)).matrix.astype(np.int64)
    return 2 * M - 1 + np.eye(M.shape[0], dtype=np.int64)


def paley_two_hadamard(p, m):
    """Paley's second Hadamard matrix, of order 2(q + 1), q = 1 mod 4."""
    Q = jacobsthal(p, m)
    q = Q.shape[0]
    C = np.zeros((q + 1, q + 1), dtype=np.int64)
    C[0, 1:] = C[1:, 0] = 1
    C[1:, 1:] = Q
    return (np.kron(C, [[1, 1], [1, -1]])
            + np.kron(np.eye(q + 1, dtype=np.int64), [[1, -1], [-1, -1]]))


def paley_one_hadamard(p):
    """Paley's first Hadamard matrix, of order p + 1, p = 3 mod 4."""
    Q = jacobsthal(p, 1)
    S = np.zeros((p + 1, p + 1), dtype=np.int64)
    S[0, 1:] = 1
    S[1:, 0] = -1
    S[1:, 1:] = Q
    return S + np.eye(p + 1, dtype=np.int64)


def derived_design(H, row, col):
    """The Hadamard 2-design of H normalised at (row, col); no scheme."""
    n = H.shape[0]
    assert (H @ H.T == n * np.eye(n, dtype=np.int64)).all()
    H = H * H[:, [col]] * H[[row], :] * H[row, col]
    M = (np.delete(np.delete(H, row, 0), col, 1) == 1).astype(np.uint8)
    v = n - 1
    return Configuration(kind="hadamard_design", n=v, matrix=M,
                         params=(v, v // 2, (v - 3) // 4))


def non_paley_designs():
    """Hadamard designs on 19, 23 and 27 points, built with no scheme."""
    return [derived_design(paley_two_hadamard(3, 2), 0, 0),
            derived_design(np.kron([[1, 1], [1, -1]],
                                   paley_one_hadamard(11)), 0, 0),
            derived_design(paley_two_hadamard(13, 1), 0, 0)]


def relabeled_without_scheme(C, rng):
    pperm = rng.permutation(C.n)
    bperm = pperm if C.kind == "srg_graph" else rng.permutation(C.n)
    return Configuration(kind=C.kind, n=C.n,
                         matrix=C.matrix[np.ix_(pperm, bperm)],
                         params=C.params)


def test_iso_test_agrees_with_certificates_on_designs():
    rng = np.random.default_rng(12)
    other27 = FiniteField(3, 3, modulus=(1, 0, 2, 1))
    with_scheme = [make_configuration(rec) for rec in (
        paley(7, 1), paley(11, 1), paley(19, 1),
        certify(negate(paley(19, 1)), ("additive",)), paley(23, 1),
        paley(3, 3), paley(3, 3, field=other27), scheme_of_power(3, 3, 2),
        paley(43, 1))]
    non_paley = non_paley_designs()
    pool = (with_scheme + non_paley
            + [relabeled_without_scheme(C, rng)
               for C in with_scheme + non_paley[:1]])
    verdicts = set()
    for C1, C2 in itertools.combinations(pool, 2):
        same = canonical_certificate(C1) == canonical_certificate(C2)
        assert iso_test(C1, C2) == same
        if C1.params == C2.params:
            verdicts.add(same)
    assert verdicts == {True, False}


def test_first_path_order_matches_schreier_sims(monkeypatch):
    # a spy keeps each search, so the oracle sees the generators it found
    searches = []

    class Spy(_IRSearch):
        def run(self):
            searches.append(self)
            return super().run()

    monkeypatch.setattr(classify, "_IRSearch", Spy)
    rng = np.random.default_rng(17)
    schemes = scheme_configurations()
    pool = (schemes + non_paley_designs()
            + [relabeled_without_scheme(C, rng) for C in schemes])
    for C in pool:
        order = aut_order(C)
        search = searches.pop()
        assert order == perm_group_order(search.n, search.gens)
