import random
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation
from sympy.combinatorics import PermutationGroup as SympyGroup

from voacensus import census as cz, cli, registry, transpo as tp
from voacensus.census import GRAM_32ND, GRAM_QUARTER, GRAM_ZERO

import transpo_oracle as oracle


def test_perm_utilities():
    p = np.array([1, 2, 0, 4, 3], dtype=np.int32)
    assert oracle.perm_order(p) == 6
    assert (tp.mul(p, tp.inv(p)) == tp.identity_perm(5)).all()
    q = tp.identity_perm(5)
    assert (tp.mul(p, q) == p).all() and (tp.mul(q, p) == p).all()


@pytest.mark.parametrize("spec,order", [
    ("ma2", 6), ("ma3", 24), ("ma4", 120), ("ma5", 720),
    ("lattice:A2", 24), ("hamming24", 384), ("md4", 96), ("me6", 51840),
])
def test_chain_matches_brute_force(spec, order):
    table = registry.sigma_table(spec).rows
    chain = tp.group_order(list(table))
    brute = oracle.brute_force_order(list(table))
    assert chain == brute == order


def test_membership():
    table = registry.sigma_table("ma3").rows
    G = tp.PermutationGroup(list(table), table.shape[1])
    assert G.order == 24
    elem = tp.mul(table[0], tp.mul(table[1], table[2]))
    assert elem in G
    odd = np.array([1, 0] + list(range(2, 6)), dtype=np.int32)
    assert (odd in G) == (tuple(odd) in
                          {tuple(p) for p in _closure(list(table))})


@pytest.mark.parametrize("gens,order", [
    ([[1, 0, 2, 3], [1, 2, 3, 0]], 24),              # S4 from (0 1), (0 1 2 3)
    ([[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], 120),        # S5, both orders
    ([[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]], 120),
])
def test_symmetric_groups_from_two_generators(gens, order):
    assert tp.group_order(gens) == order
    G = tp.PermutationGroup([np.array(g, dtype=np.int32) for g in gens], len(gens[0]))
    assert G.order == order
    assert np.array([1, 0] + list(range(2, len(gens[0]))), dtype=np.int32) in G


@st.composite
def generating_sets(draw):
    """(generators, a random permutation, a random word in the generators)."""
    n = draw(st.integers(2, 10))
    perm = st.permutations(range(n))
    gens = draw(st.lists(perm, min_size=1, max_size=4))
    word = draw(st.lists(st.integers(0, len(gens) - 1), max_size=8))
    return gens, draw(perm), word


@settings(max_examples=300, deadline=None)
@given(generating_sets())
def test_chain_matches_sympy(case):
    gens, other, word = case
    n = len(gens[0])
    G = tp.PermutationGroup([np.array(g, dtype=np.int32) for g in gens], n)
    S = SympyGroup([Permutation(g) for g in gens])
    assert G.order == tp.group_order(gens) == S.order()
    assert (np.array(other, dtype=np.int32) in G) == S.contains(Permutation(other))
    w = tp.identity_perm(n)
    for k in word:
        w = tp.mul(np.array(gens[k], dtype=np.int32), w)
    assert (w in G) and S.contains(Permutation(w.tolist()))


def _sympy_order(rows) -> int:
    return SympyGroup([Permutation(r.tolist()) for r in rows]).order() if len(rows) else 1


# every catalog census below 200 points with a sigma-table (sympy needs
# about 30 s for each 496-point census)
@pytest.mark.parametrize("spec", [
    "ma1", "ma2", "ma3", "ma4", "ma5", "md4", "me6", "me7", "uc", "hamming24",
    "code:dcode4", "code:dcode6", "code:dcode8", "lattice:A2+A2",
])
def test_catalog_orders_match_sympy(spec):
    c = registry.census(spec)
    table = registry.sigma_table(spec)
    rows = table.rows
    order = _sympy_order(rows)
    assert tp.group_order(list(rows)) == order
    assert tp.group_order(list(rows[table.seeds])) == order
    pair = cli._noncommuting_pair(c)
    if pair is not None:
        ind = tp.inductive_structure(rows, *pair)
        assert ind["d1_order"] == _sympy_order(rows[ind["d1_points"]])
        assert ind["d2_order"] == _sympy_order(rows[ind["d2_points"]])


def _closure(gens):
    seen = {tuple(tp.identity_perm(len(gens[0])))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(tp.mul(g, np.array(p, dtype=np.int32)))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return [np.array(p, dtype=np.int32) for p in seen]


def _product_table(c):
    """Product-only oracle: one Griess product per 1/32 pair, no closure."""
    n = len(c)
    table = np.tile(np.arange(n, dtype=np.int32), (n, 1))
    if c.elements is None:   # a direct sum: its summands' tables, placed
        for part, pos in c.sources:
            table[np.ix_(pos, pos)] = pos[_product_table(part)]
        return table
    for i, j in np.argwhere(np.triu(c.gram == GRAM_32ND, k=1)):
        img = oracle.product_sigma_image(c.algebra, c.elements[i], c.elements[j])
        table[i, j] = table[j, i] = c.element_index(img)
    return table


@pytest.mark.parametrize("spec", [
    "me8", "uc", "me6", "me7", "md4", "ma1", "ma2", "ma3", "ma4", "ma5",
    "hamming24", "lattice:E8", "code:rm24", "lattice:A2+A2",
])
def test_closure_table_matches_product_oracle(spec):
    table = registry.sigma_table(spec).rows
    assert table.dtype == np.int32
    assert np.array_equal(table, _product_table(registry.census(spec)))
    # the seed-only check in SigmaTable implies it at every row
    assert oracle.consistency_failure(table) is None


# every catalog alias, the code censuses with a paired model and the
# paired lattice censuses, whose seed rows the code censuses' are
@pytest.mark.parametrize("spec", [
    "me8", "uc", "me6", "me7", "md4", "ma1", "ma2", "ma3", "ma4", "ma5",
    "hamming24", "e8full", "code:rm24", "code:dcode4", "code:dcode6",
    "code:dcode8", "lattice:E8H", "lattice:D4C", "lattice:D6C", "lattice:D8C",
])
def test_seed_rows_match_product_oracle(spec):
    c = registry.census(spec)
    for s in registry.sigma_table(spec).seeds:
        partners = [c.elements[j] for j in np.flatnonzero(c.gram[s] == GRAM_32ND)]
        got = c.algebra.sigma_images(c.elements[s], partners)
        want = [oracle.product_sigma_image(c.algebra, c.elements[s], f)
                for f in partners]
        assert [g.key() for g in got] == [g.key() for g in want]


def test_closure_table_matches_product_oracle_hamming_model():
    hm = registry.census("hamming24")
    assert np.array_equal(tp.sigma_permutations(hm).rows, _product_table(hm))


@pytest.mark.parametrize("spec,orbits", [
    ("ma1", 1), ("ma2", 1), ("ma3", 1), ("ma4", 1), ("ma5", 1), ("md4", 1),
    ("me6", 1), ("me7", 1), ("me8", 1), ("uc", 1), ("hamming24", 1),
    ("lattice:E8", 1), ("code:rm24", 1), ("lattice:A2+A2", 2),
])
def test_orbit_reduced_checks_match_full_scans(spec, orbits):
    c = registry.census(spec)
    table = registry.sigma_table(spec)
    rows = table.rows
    assert len(table.reps) == orbits
    assert tp.is_3transposition(table) == oracle.is_3transposition(rows)
    space = tp.fischer_space(c, table)
    assert space.lines == oracle.fischer_lines(c, rows)
    symplectic = oracle.is_symplectic_type(space, rows)
    hypotheses = oracle.check_fischer_hypotheses(space, c, rows)
    # the reduced scans, and below 496 points (about 10 s there) the same
    # code visiting every point
    for sigmas in (table, rows) if len(c) < 496 else (table,):
        assert tp.is_symplectic_type(space, sigmas) == symplectic
        assert tp.check_fischer_hypotheses(space, c, sigmas) == hypotheses


def _quandle_sum(first, second):
    """Direct sum of two reflection tables, with a Gram each row preserves."""
    n = len(first) + len(second)
    rows = np.tile(np.arange(n, dtype=np.int32), (n, 1))
    gram = np.full((n, n), GRAM_ZERO, dtype=np.int8)
    offset = 0
    for part in (first, second):
        k = len(part)
        rows[offset:offset + k, offset:offset + k] = np.asarray(part) + offset
        gram[offset:offset + k, offset:offset + k] = GRAM_32ND
        offset += k
    np.fill_diagonal(gram, GRAM_QUARTER)
    return rows, gram


# reflections of a triangle (products of order 3) and of a pentagon
# (order 5): x -> 2x - y on Z/3 and Z/5
TRIANGLE = [[(2 * x - y) % 3 for y in range(3)] for x in range(3)]
PENTAGON = [[(2 * x - y) % 5 for y in range(5)] for x in range(5)]


@pytest.mark.parametrize("first,second,witness", [
    (TRIANGLE, PENTAGON, (3, 4)), (PENTAGON, TRIANGLE, (0, 1)),
    (PENTAGON, PENTAGON, (0, 1)),
])
def test_failing_table_reports_full_scan_witness(first, second, witness):
    rows, gram = _quandle_sum(first, second)
    table = tp.SigmaTable(rows, gram, range(len(rows)))
    assert len(table.reps) == 2
    assert tp.is_3transposition(table) == (False, witness)
    assert oracle.is_3transposition(rows) == (False, witness)
    with pytest.raises(tp.TranspoError, match=str(witness)):
        tp.fischer_space(cz.IsingCensus([None] * len(rows), None, gram, "t"), table)


def test_sigma_table_refuses_unchecked_rows():
    rows, gram = _quandle_sum(TRIANGLE, PENTAGON)
    # seeds 0 and 1 do not reach the pentagon: its orbit would go unchecked
    with pytest.raises(tp.SigmaCheckError, match="point 3 is not reached"):
        tp.SigmaTable(rows.copy(), gram, seeds=[0, 1])
    assert len(tp.SigmaTable(rows.copy(), gram, seeds=[0, 1, 3, 4]).reps) == 2
    # involutions that preserve the Gram but are not closed under conjugation
    bad = np.array([[0, 2, 1], [2, 1, 0], [0, 1, 2]], dtype=np.int32)
    g3 = np.full((3, 3), GRAM_32ND, dtype=np.int8)
    np.fill_diagonal(g3, GRAM_QUARTER)
    with pytest.raises(tp.SigmaCheckError, match="derivations"):
        tp.SigmaTable(bad, g3, range(3))
    # one orbit whose point 0 passes and point 1 fails: the checked table is
    # refused, and the plain array is scanned at every row
    mixed = np.array([range(5)] + PENTAGON[1:], dtype=np.int32)
    g5 = np.full((5, 5), GRAM_32ND, dtype=np.int8)
    np.fill_diagonal(g5, GRAM_QUARTER)
    with pytest.raises(tp.SigmaCheckError, match="derivations"):
        tp.SigmaTable(mixed.copy(), g5, range(5))
    assert tp.is_3transposition(mixed) == (False, (1, 2))
    table = tp.SigmaTable(rows, gram, range(len(rows)))
    with pytest.raises(ValueError):
        table.rows[0, 0] = 1


def test_sigma_involutions_and_gram_preserved():
    c = registry.census("me6")
    table = registry.sigma_table("me6").rows
    n = len(c)
    ident = tp.identity_perm(n)
    for i in range(n):
        assert (tp.mul(table[i], table[i]) == ident).all()
        perm = table[i]
        assert (c.gram[np.ix_(perm, perm)] == c.gram).all()


def test_sigma_fixes_orthogonal_partners():
    c = registry.census("me7")
    table = registry.sigma_table("me7").rows
    orth = np.argwhere(c.gram == 0)
    for i, j in orth[:200]:
        assert table[i, j] == j


def test_conjugation_consistency():
    # sigma of a transported point equals the transported involution
    c = registry.census("me6")
    table = registry.sigma_table("me6").rows
    rng = random.Random(23)
    n = len(c)
    for _ in range(100):
        e = rng.randrange(n)
        word = [rng.randrange(n) for _ in range(3)]
        rho = tp.identity_perm(n)
        for g in word:
            rho = tp.mul(table[g], rho)
        lhs = table[int(rho[e])]
        rhs = tp.mul(rho, tp.mul(table[e], tp.inv(rho)))
        assert (lhs == rhs).all()


def test_is_3transposition_counterexample():
    # two pentagon reflections generate a product of order five
    n = 5
    r1 = np.array([0, 4, 3, 2, 1], dtype=np.int32)
    r2 = np.array([1, 0, 4, 3, 2], dtype=np.int32)
    ok, witness = tp.is_3transposition(np.stack([r1, r2]))
    assert not ok and witness is not None
    assert oracle.perm_order(tp.mul(r1, r2)) == 5


def test_fischer_space_small():
    c = registry.census("ma2")
    table = registry.sigma_table("ma2")
    space = tp.fischer_space(c, table)
    assert space.npoints == 3 and len(space.lines) == 1


def test_fischer_uniform_line_counts_me8():
    c = registry.census("me8")
    table = registry.sigma_table("me8")
    space = tp.fischer_space(c, table)
    partners = (c.gram == GRAM_32ND).sum(axis=1)
    assert (partners == 128).all()
    per_point = np.zeros(len(c), dtype=int)
    for a, b, cc in space.lines:
        per_point[[a, b, cc]] += 1
    assert (per_point == 64).all()
    assert len(space.lines) == 255 * 64 // 3


def test_symplectic_rejects_order3_plane():
    # the nine-point rank-two affine space over GF(3) is not symplectic type
    pts = [(i, j) for i in range(3) for j in range(3)]
    idx = {p: k for k, p in enumerate(pts)}
    table = np.zeros((9, 9), dtype=np.int32)
    for x in pts:
        for y in pts:
            img = ((2 * x[0] - y[0]) % 3, (2 * x[1] - y[1]) % 3)
            table[idx[x], idx[y]] = idx[img]
    ok, _ = tp.is_3transposition(table)
    assert ok
    lines = set()
    for x in pts:
        for y in pts:
            if x != y:
                trip = tuple(sorted((idx[x], idx[y], int(table[idx[x], idx[y]]))))
                lines.add(trip)
    space = tp.FischerSpace(9, tuple(sorted(lines)))
    assert not tp.is_symplectic_type(space, table)


def test_symplectic_accepts_uc():
    c = registry.census("uc")
    table = registry.sigma_table("uc")
    space = tp.fischer_space(c, table)
    assert tp.is_symplectic_type(space, table)


def test_fischer_hypotheses_large_spaces():
    for spec in ("ma5", "me6", "me7", "uc"):
        c = registry.census(spec)
        table = registry.sigma_table(spec)
        space = tp.fischer_space(c, table)
        rep = tp.check_fischer_hypotheses(space, c, table)
        assert rep["common_perp_nonempty"], spec
        assert rep["perp_of_perp_is_line"], spec


def test_inductive_structure_requires_noncommuting():
    c = registry.census("me6")
    table = registry.sigma_table("me6").rows
    i, j = map(int, np.argwhere(c.gram == 0)[1])
    with pytest.raises(tp.TranspoError):
        tp.inductive_structure(table, i, j)


def test_frames_and_conjugation_hamming():
    c = registry.census("hamming24")
    table = registry.sigma_table("hamming24").rows
    frames = tp.enumerate_frames(c)
    assert len(frames) == 3
    for fa in frames:
        for fb in frames:
            word = tp.frame_conjugator(c, table, fa, fb)
            assert tp.apply_word(table, word, fa) == frozenset(fb)
            if fa != fb:
                assert len(word) == 1
    # identity word on equal frames
    assert tp.frame_conjugator(c, table, frames[1], frames[1]) == []


def test_single_sigma_swaps_other_two_frames():
    c = registry.census("hamming24")
    table = registry.sigma_table("hamming24").rows
    frames = [frozenset(f) for f in tp.enumerate_frames(c)]
    for a in range(3):
        others = [f for k, f in enumerate(frames) if k != a]
        for e in frames[a]:
            imgs = {tp.apply_word(table, [e], f) for f in others}
            assert imgs == set(others)


def test_rm24_standard_frame_conjugates_to_hamming_frame():
    c = registry.census("code:rm24")
    table = registry.sigma_table("code:rm24").rows
    standard = tuple(range(16))
    assert tp.is_frame(c, standard)
    # a mixed frame: one full block of sixteen points is itself a frame of
    # the embedded model; combine eight of them with the eight standard
    # points outside the block support
    emb = c.embeddings[0]
    support = set(emb.support)
    block = [i for i, p in enumerate(c.points)
             if p.kind == "hamming" and p.data[0] == 0]
    outside = [i for i in range(16) if i not in support]
    candidates = tp.enumerate_frames(c, within=block + outside)
    assert candidates
    target = candidates[0]
    assert target != standard
    word = tp.frame_conjugator(c, table, standard, target)
    assert tp.apply_word(table, word, standard) == frozenset(target)


def _clique_frames(c, pool):
    """Cliques of exactly frame_size points of the orthogonality graph on
    `pool` that pass is_frame (networkx lists cliques by size)."""
    orth = c.gram == GRAM_ZERO
    graph = nx.Graph()
    graph.add_nodes_from(pool)
    graph.add_edges_from((a, b) for a, b in combinations(pool, 2) if orth[a, b])
    out = []
    for clique in nx.enumerate_all_cliques(graph):
        if len(clique) > c.frame_size:
            break
        if len(clique) == c.frame_size and tp.is_frame(c, clique):
            out.append(tuple(sorted(clique)))
    return sorted(out)


@pytest.mark.parametrize("spec", [
    "hamming24", "code:dcode4", "lattice:D4", "lattice:A2+A2", "code:rm24",
])
def test_frames_match_networkx_cliques(spec):
    c = registry.census(spec)
    if spec == "code:rm24":
        # the mixed pool of test_rm24_standard_frame_conjugates_to_hamming_frame
        support = set(c.embeddings[0].support)
        pool = [i for i, p in enumerate(c.points)
                if p.kind == "hamming" and p.data[0] == 0]
        pool += [i for i in range(16) if i not in support]
        assert tp.enumerate_frames(c, within=pool) == _clique_frames(c, pool)
    else:
        assert tp.enumerate_frames(c) == _clique_frames(c, list(range(len(c))))


def test_frame_validation():
    c = registry.census("hamming24")
    with pytest.raises(tp.TranspoError):
        tp.frame_conjugator(c, registry.sigma_table("hamming24").rows,
                            tuple(range(8)), tuple(range(1, 9)))


def test_group_order_empty():
    # no involutions generate the trivial group
    assert tp.group_order([]) == 1
