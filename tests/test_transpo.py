import json
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
from voacensus.griess import GriessAlgebra, SigmaImageError

import census_oracle
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
        table[i, j] = table[j, i] = c.element_index(img.batch)[0]
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
        partners = c.elements[np.flatnonzero(c.gram[s] == GRAM_32ND)]
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
    assert space.lines.tolist() == [list(line) for line in oracle.fischer_lines(c, rows)]
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
    space = tp.FischerSpace(9, np.array(sorted(lines), dtype=np.int32))
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


def _refusal(rows, gram, seeds):
    with pytest.raises(tp.SigmaCheckError) as exc:
        tp.SigmaTable(rows, gram, seeds)
    return str(exc.value)


@pytest.mark.parametrize("where", ["first", "last"])
def test_blocked_table_scans_name_the_whole_scan_failure(where):
    # each scan goes by BLOCK_ROWS rows; a corrupted row in the first or the
    # last block of lattice:E8 (496 points, 8 blocks) is refused with the
    # text of the whole-table scan
    c = registry.census("lattice:E8")
    table = registry.sigma_table("lattice:E8")
    n, seeds, gram = len(c), table.seeds, c.gram
    first = (n - 1) // tp.BLOCK_ROWS * tp.BLOCK_ROWS if where == "last" else 0
    block = [r for r in range(first, min(first + tp.BLOCK_ROWS, n)) if r not in seeds]
    s0 = seeds[0]
    cases = []
    # a seed row with two images swapped moves the Gram
    rows = table.rows.copy()
    a, b = (int(x) for x in np.flatnonzero(gram[s0] == GRAM_32ND)[:2])
    rows[s0, [a, b]] = rows[s0, [b, a]]
    cases.append((rows, "does not preserve the Gram"))
    # a derived row with two images swapped is no involution
    rows = table.rows.copy()
    r = block[len(block) // 2]
    a, b = (int(x) for x in np.flatnonzero(gram[r] == GRAM_32ND)[:2])
    rows[r, [a, b]] = rows[r, [b, a]]
    cases.append((rows, f"sigma of point {r} is not an involution"))
    # the identity as a derived row is an involution and distinct from the
    # others, but R(s0) fails at r and at sigma_s0(r), both in this block
    rows = table.rows.copy()
    r = next(r for r in block if table.rows[s0, r] in block and table.rows[s0, r] != r)
    rows[r] = np.arange(n)
    y = min(r, int(table.rows[s0, r]))
    cases.append((rows, f"(point {y} conjugated by point {s0})"))
    for rows, text in cases:
        want = oracle.table_check_failure(rows, gram, seeds)
        assert want is not None and text in want
        assert _refusal(rows, gram, seeds) == want


def test_commuting_set_seeds_keep_the_orders():
    # d1 and d2 are closed under their own rows, so the rows of their
    # closure seeds generate the group of all their rows: the orders equal
    # those of every row, on each census `group --inductive` reports
    reported = []
    for spec in [*sorted(registry.CENSUS_ALIASES), "code:rm24"]:
        c = registry.census(spec)
        table = registry.sigma_table(spec)
        pair = cli._noncommuting_pair(c)
        if pair is None or not tp.is_3transposition(table)[0]:
            continue
        ind = tp.inductive_structure(table.rows, *pair)
        rows = table.rows
        assert ind["d1_order"] == tp.group_order(rows[ind["d1_points"]]), spec
        assert ind["d2_order"] == tp.group_order(rows[ind["d2_points"]]), spec
        reported.append(spec)
    assert reported == ["e8full", "hamming24", "ma2", "ma3", "ma4", "ma5", "md4",
                        "me6", "me7", "me8", "uc", "code:rm24"]


def _commuting_sets(spec):
    """d1 and d2 of `inductive_structure` at the CLI's non-commuting pair."""
    rows = registry.sigma_table(spec).rows
    ind = tp.inductive_structure(rows, *cli._noncommuting_pair(registry.census(spec)))
    return rows, ind["d1_points"], ind["d2_points"]


def test_closure_seeds_reach_every_point():
    rows, d1, _ = _commuting_sets("lattice:E8")
    seeds, _ = tp._closure(len(rows), lambda s: rows[s], d1)
    assert (len(d1), len(seeds)) == (256, 11)
    assert set(seeds) <= set(d1)
    # conjugating by the seed rows from the seeds reaches all of d1
    reached = set(seeds)
    while True:
        more = {int(rows[s, w]) for s in seeds for w in reached} - reached
        if not more:
            break
        reached |= more
    assert reached == set(d1)


def _check_walk(rows, points):
    """The seeds and steps of `_closure` over `points` of `rows`: each step
    (x, z, f) has z = sigma_x(f), each f reached before, and every point of
    `points` outside the seeds is reached by exactly one step."""
    picked = []
    seeds, steps = tp._closure(len(rows), lambda s: picked.append(s) or rows[s], points)
    # each row is asked for once, when its seed is picked, and the points
    # below a seed are reached before it
    assert picked == seeds == sorted(set(seeds))
    reached = {s: -1 for s in seeds}
    for k, (x, z, f) in enumerate(steps):
        assert x in seeds and len(z) == len(f) > 0
        assert (rows[x][f] == z).all()
        assert all(reached[int(w)] < k for w in f)
        for w in z.tolist():
            assert w not in reached
            reached[w] = k
    assert sorted(reached) == sorted(points)
    return seeds


# every catalog alias, the code and lattice censuses above, and a direct sum
@pytest.mark.parametrize("spec", [
    "me8", "uc", "me6", "me7", "md4", "ma1", "ma2", "ma3", "ma4", "ma5",
    "hamming24", "e8full", "code:rm24", "code:dcode4", "code:dcode6",
    "code:dcode8", "lattice:E8H", "lattice:D4C", "lattice:D6C", "lattice:D8C",
    "lattice:A2+A2",
])
def test_closure_walk_derives_every_row(spec):
    c = registry.census(spec)
    table = registry.sigma_table(spec)
    rows = table.rows
    seeds = _check_walk(rows, range(len(c)))
    # a derived census gathers its table; built from its own points where
    # it has them, it takes the walk's seeds and the same rows
    built = table if c.sources is None or c.elements is None else tp.sigma_permutations(c)
    assert built.seeds.tolist() == seeds
    assert np.array_equal(built.rows, rows)


@pytest.mark.parametrize("spec", ["lattice:E8", "code:rm24"])
def test_closure_walk_seeds_the_commuting_sets(spec):
    rows, d1, d2 = _commuting_sets(spec)
    for points in (d1, d2):
        _check_walk(rows, points)


def test_seed_raises_at_the_first_bad_partner(monkeypatch):
    # seed 0 of me8 has 128 partners, two blocks; without the image of its
    # first partner, that block fails before a refused image in the second
    full = registry.census("me8")
    table = registry.sigma_table("me8").rows
    partners = np.flatnonzero(full.gram[0] == GRAM_32ND)
    assert len(partners) > tp.BLOCK_ROWS
    gone = int(table[0, partners[0]])
    holed = census_oracle.subcensus(full, [i for i in range(len(full)) if i != gone], "holed")
    first = int(np.flatnonzero(holed.gram[0] == GRAM_32ND)[0])
    images = GriessAlgebra.sigma_images
    calls = []

    def refuse_later_blocks(self, e, fs):
        calls.append(len(fs))
        if len(calls) > 1:
            raise SigmaImageError(0, "sigma image is not a central-charge-1/2 candidate")
        return images(self, e, fs)

    monkeypatch.setattr(GriessAlgebra, "sigma_images", refuse_later_blocks)
    with pytest.raises(tp.SigmaCheckError,
                       match=rf"census not closed: image of \(0,{first}\) is missing"):
        tp.sigma_permutations(holed)
    assert calls == [tp.BLOCK_ROWS]


def test_non_3transposition_table_exits_1(monkeypatch, capsys):
    # fischer refuses the table with a check failure, as group reports it
    rows, gram = _quandle_sum(TRIANGLE, PENTAGON)
    table = tp.SigmaTable(rows, gram, range(len(rows)))
    quandle = cz.IsingCensus([None] * len(rows), None, gram, "t")
    monkeypatch.setattr(registry, "census", lambda spec: quandle)
    monkeypatch.setattr(registry, "sigma_table", lambda spec: table)
    assert cli.main(["fischer", "--census", "quandle"]) == 1
    assert "witness (3, 4)" in json.loads(capsys.readouterr().out)["error"]
    assert cli.main(["group", "--census", "quandle"]) == 1
    assert json.loads(capsys.readouterr().out)["results"]["witness"] == [3, 4]


def _argwhere_pair(c):
    idx = np.argwhere(np.triu(c.gram == GRAM_32ND, k=1))
    return (int(idx[0][0]), int(idx[0][1])) if len(idx) else None


@pytest.mark.parametrize("spec", [
    *sorted(registry.CENSUS_ALIASES), "lattice:A2+A2", "code:rm24",
    "lattice:A1", "commutant:A2:s",
])
def test_noncommuting_pair_is_the_first_in_row_major_order(spec):
    c = registry.census(spec)
    want = _argwhere_pair(c)
    assert cli._noncommuting_pair(c) == want
    assert (want is None) == (spec in ("lattice:A1", "ma1", "commutant:A2:s"))


@pytest.mark.parametrize("spec", sorted(registry.CENSUS_ALIASES))
def test_one_pass_lines_match_oracle(spec):
    # each line is taken once, from its pair (a, b) with sigma_a(b) > b, in
    # row-major order: the lines of every pair, sorted and deduplicated
    c = registry.census(spec)
    table = registry.sigma_table(spec)
    want = [list(line) for line in oracle.fischer_lines(c, table.rows)]
    for sigmas in (table, table.rows):
        assert tp.fischer_space(c, sigmas).lines.tolist() == want


def _far_row(rows, j):
    """`rows` with row j a cyclic shift, whose product with almost any
    involution has order above 3."""
    bad = rows.copy()
    bad[j] = np.roll(np.arange(len(rows), dtype=rows.dtype), 1)
    return bad


@pytest.mark.parametrize("where", ["first", "last"])
def test_blocked_3transposition_gives_the_whole_scan_witness(where):
    # the rows j go by BLOCK_ROWS; a bad row in the first or the last block
    # of lattice:E8 (496 points) is named as the whole-array scan names it
    rows = registry.sigma_table("lattice:E8").rows
    j = 5 if where == "first" else len(rows) - 3
    assert (j // tp.BLOCK_ROWS == 0) == (where == "first")
    bad = _far_row(rows, j)
    want = oracle.is_3transposition(bad)
    assert want == (False, (0, j))
    assert tp.is_3transposition(bad) == want


@pytest.mark.parametrize("where", ["first", "last"])
def test_chunked_symplectic_check_gives_the_whole_scan_result(where):
    # the line pairs through a point go PLANE_PAIRS at a time; a cross
    # image moved off its plane in the first or the last chunk at point 0
    # of me8 fails as the whole scan fails
    c = registry.census("me8")
    table = registry.sigma_table("me8")
    space = tp.fischer_space(c, table)
    rest = tp._incidences(space)
    rest = rest[rest[:, 0] == 0, 1:]
    s, t = np.triu_indices(len(rest), k=1)
    assert len(s) > tp.PLANE_PAIRS
    k = 0 if where == "first" else len(s) - 1
    (a, b), (cc, d) = rest[s[k]], rest[t[k]]
    plane = {0, int(a), int(b), int(cc), int(d), int(table.rows[a, cc])}
    rows = table.rows.copy()
    rows[a, cc] = next(w for w in range(len(c)) if w not in plane)
    assert oracle.is_symplectic_type(space, rows) is False
    assert tp.is_symplectic_type(space, rows) is False
    assert tp._planes_close(table.rows, 0, rest[s[k:k + 1]], rest[t[k:k + 1]])
    assert not tp._planes_close(rows, 0, rest[s[k:k + 1]], rest[t[k:k + 1]])
