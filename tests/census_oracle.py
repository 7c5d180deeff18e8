"""All-edges and trio-by-trio references for the code census, used only by the tests.

`translate_block_all_edges` is the block translation `census` ran before it
placed each coset once along a tree: it applies every support involution to
every placed point and checks each revisit.  `hamming_embeddings_by_trio`
builds a code, one GF(2) elimination, for every trio of weight-4 words, with
its own elimination onto the support.  Both are kept as they were; the
translations take their sigma images from the product oracle.  `subcensus`
restricts a built census to some of its points, as commutant censuses were
built before they filtered the lattice points ahead of the Gram.
"""

from itertools import combinations

import numpy as np

from voacensus import gf2code
from voacensus.census import CensusError, IsingCensus
from voacensus.gf2code import BinaryCode, HammingEmbedding, weight

from transpo_oracle import product_sigma_image


def subcensus(census: IsingCensus, indices, source: str) -> IsingCensus:
    """The points of `census` at `indices`, in that order, with their Gram."""
    idx = list(indices)
    elems = None if census.elements is None else [census.elements[i] for i in idx]
    gram = census.gram[np.ix_(idx, idx)].copy()
    return IsingCensus([census.points[i] for i in idx], elems, gram, source,
                       frame_size=census.frame_size, algebra=census.algebra,
                       embeddings=census.embeddings)


def translate_block_all_edges(algebra, frame_elems, emb, reps, anchor, cands):
    """Coset label -> block point, from 8 x 16 translations with revisits checked."""
    support = list(emb.support)
    cand_keys = {e.key() for e in cands}
    sub_words = set(emb.words)
    zero_rep = min(reps, key=lambda w: (weight(w), w))
    placed = {zero_rep: anchor}
    frontier = [zero_rep]
    while frontier:
        cur = frontier.pop()
        for i in support:
            target_rep = _rep_of(cur ^ (1 << i), sub_words, reps)
            img = product_sigma_image(algebra, frame_elems[i], placed[cur])
            if img.key() not in cand_keys:
                raise CensusError("translated block point left the candidate set")
            if target_rep in placed:
                if placed[target_rep] != img:
                    raise CensusError("inconsistent block translation")
                continue
            placed[target_rep] = img
            frontier.append(target_rep)
    if len(placed) != 16:
        raise CensusError("block translation did not reach all 16 cosets")
    return placed


def _rep_of(word, sub_words, reps):
    coset = {word ^ w for w in sub_words}
    for r in reps:
        if r in coset:
            return r
    raise CensusError("coset representative lookup failed")


def _subcode_on_support(code: BinaryCode, mask: int) -> BinaryCode:
    """Subcode of words supported inside `mask`, as a code of the same length."""
    out = mask ^ ((1 << code.length) - 1)
    # eliminate on the outside coordinates first, then collect rows clean there
    kept: list[int] = []
    pivots: list[int] = []
    for r in code.generators:
        for piv, p in zip(pivots, kept):
            if (r >> piv) & 1:
                r ^= p
        if r & out:
            v = r & out
            pivots.append((v & -v).bit_length() - 1)
            kept.append(r)
    clean = []
    for r in code.generators:
        for piv, p in zip(pivots, kept):
            if (r >> piv) & 1:
                r ^= p
        if r and not (r & out):
            clean.append(r)
    return BinaryCode.from_rows(code.length, clean)


def hamming_embeddings_by_trio(code: BinaryCode) -> list[HammingEmbedding]:
    """Every [8,4,4]-type subcode, one `BinaryCode` per trio of weight-4 words."""
    found: dict[tuple[int, ...], HammingEmbedding] = {}
    seen_supports: set[int] = set()
    for w in code.words():
        if weight(w) != 8 or w in seen_supports:
            continue
        seen_supports.add(w)
        sub = _subcode_on_support(code, w)
        wt4 = [x for x in sub.words() if weight(x) == 4]
        if len(wt4) < 3 or w not in sub:
            continue
        for trio in combinations(wt4, 3):
            cand = BinaryCode.from_rows(code.length, [w, *trio])
            if cand.rank != 4:
                continue
            key = tuple(sorted(cand.words()))
            if key in found:
                continue
            counts = [0] * 9
            for x in key:
                counts[weight(x)] += 1
            if tuple(counts) != gf2code.HAMMING_ENUMERATOR:
                continue
            support = tuple(i for i in range(code.length) if (w >> i) & 1)
            found[key] = HammingEmbedding(code, cand.generators, support)
    return sorted(found.values(), key=lambda e: (e.support, e.words))
