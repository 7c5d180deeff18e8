import random

import numpy as np
import pytest

from voacensus import census as cz, registry, transpo as tp
from voacensus.census import GRAM_32ND


def test_perm_utilities():
    p = np.array([1, 2, 0, 4, 3], dtype=np.int32)
    assert tp.perm_order(p) == 6
    assert (tp.mul(p, tp.inv(p)) == tp.identity_perm(5)).all()
    q = tp.identity_perm(5)
    assert (tp.mul(p, q) == p).all() and (tp.mul(q, p) == p).all()


@pytest.mark.parametrize("spec,order", [
    ("ma2", 6), ("ma3", 24), ("ma4", 120), ("ma5", 720),
    ("lattice:A2", 24), ("hamming24", 384), ("md4", 96), ("me6", 51840),
])
def test_chain_matches_brute_force(spec, order):
    table = registry.sigma_table(spec)
    chain = tp.group_order(list(table))
    brute = tp.brute_force_order(list(table))
    assert chain == brute == order


def test_membership():
    table = registry.sigma_table("ma3")
    G = tp.PermutationGroup(list(table), table.shape[1])
    assert G.order == 24
    elem = tp.mul(table[0], tp.mul(table[1], table[2]))
    assert elem in G
    odd = np.array([1, 0] + list(range(2, 6)), dtype=np.int32)
    assert (odd in G) == (tuple(odd) in
                          {tuple(p) for p in _closure(list(table))})


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
    if c.blocks is not None:
        for offset, part in c.blocks:
            k = len(part)
            table[offset:offset + k, offset:offset + k] = \
                _product_table(part) + offset
        return table
    for i, j in np.argwhere(np.triu(c.gram == GRAM_32ND, k=1)):
        img = c.algebra.sigma_image(c.elements[i], c.elements[j])
        table[i, j] = table[j, i] = c.element_index(img)
    return table


@pytest.mark.parametrize("spec", [
    "me8", "uc", "me6", "me7", "md4", "ma1", "ma2", "ma3", "ma4", "ma5",
    "hamming24", "lattice:E8", "code:rm24", "lattice:A2+A2",
])
def test_closure_table_matches_product_oracle(spec):
    table = registry.sigma_table(spec)
    assert table.dtype == np.int32
    assert np.array_equal(table, _product_table(registry.census(spec)))


def test_closure_table_matches_product_oracle_hamming_model():
    hm = cz.hamming_model()
    assert np.array_equal(tp.sigma_permutations(hm), _product_table(hm))


def test_sigma_involutions_and_gram_preserved():
    c = registry.census("me6")
    table = registry.sigma_table("me6")
    n = len(c)
    ident = tp.identity_perm(n)
    for i in range(n):
        assert (tp.mul(table[i], table[i]) == ident).all()
        perm = table[i]
        assert (c.gram[np.ix_(perm, perm)] == c.gram).all()


def test_sigma_fixes_orthogonal_partners():
    c = registry.census("me7")
    table = registry.sigma_table("me7")
    orth = np.argwhere(c.gram == 0)
    for i, j in orth[:200]:
        assert table[i, j] == j


def test_conjugation_consistency():
    # sigma of a transported point equals the transported involution
    c = registry.census("me6")
    table = registry.sigma_table("me6")
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
    assert tp.perm_order(tp.mul(r1, r2)) == 5


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
    table = registry.sigma_table("me6")
    i, j = map(int, np.argwhere(c.gram == 0)[1])
    with pytest.raises(tp.TranspoError):
        tp.inductive_structure(c, table, i, j)


def test_frames_and_conjugation_hamming():
    c = registry.census("hamming24")
    table = registry.sigma_table("hamming24")
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
    table = registry.sigma_table("hamming24")
    frames = [frozenset(f) for f in tp.enumerate_frames(c)]
    for a in range(3):
        others = [f for k, f in enumerate(frames) if k != a]
        for e in frames[a]:
            imgs = {tp.apply_word(table, [e], f) for f in others}
            assert imgs == set(others)


def test_rm24_standard_frame_conjugates_to_hamming_frame():
    c = registry.census("code:rm24")
    table = registry.sigma_table("code:rm24")
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


def test_frame_validation():
    c = registry.census("hamming24")
    with pytest.raises(tp.TranspoError):
        tp.frame_conjugator(c, registry.sigma_table("hamming24"),
                            tuple(range(8)), tuple(range(1, 9)))


def test_group_order_empty():
    with pytest.raises(tp.TranspoError):
        tp.group_order([])
