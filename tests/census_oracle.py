"""All-edges and trio-by-trio references for the code census, used only by the tests.

`translate_block_all_edges` is the block translation `census` ran before it
placed each coset once along a tree: it applies every support involution to
every placed point and checks each revisit.  `hamming_embeddings_by_trio`
builds a code, one GF(2) elimination, for every trio of weight-4 words, with
its own elimination onto the support.  Both are kept as they were; the
translations take their sigma images from the product oracle.  `subcensus`
restricts a built census to some of its points, as commutant censuses were
built before they filtered the lattice points ahead of the Gram.
`restricted_enumerator` counts an embedding's words by weight, to compare
with `HAMMING_ENUMERATOR`.  `gram_law_failure` classifies a whole Gram at
once, as `gram_from_elements` did before it went by row blocks.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np

from voacensus.census import CensusError, IsingCensus
from voacensus.gf2code import BinaryCode, HammingEmbedding, weight

from transpo_oracle import product_sigma_image


# the weight enumerator of the [8,4,4] Hamming code, weights 0..8
HAMMING_ENUMERATOR = (1, 0, 0, 0, 14, 0, 0, 0, 1)


def gram_law_failure(elements) -> str | None:
    """The CensusCheckError text `census.gram_from_elements` raises for the
    first pair outside the 0 / 1-32 / 1-4 law, from the whole n x n
    numerator and denominator matrices at once, as it ran before it took
    its rows in blocks; None if every pair obeys the law."""
    num, den = elements.alg.inner_numerators(elements, elements)
    ok = (num == 0) | (32 * num == den) | (4 * num == den)
    if ok.all():
        return None
    i, j = map(int, np.argwhere(~ok)[0])
    return (f"inner product of points {i},{j} is "
            f"{Fraction(int(num[i, j]), int(den[i, j]))}, outside {{0, 1/32, 1/4}}")


def restricted_enumerator(emb: HammingEmbedding) -> tuple[int, ...]:
    """The weight enumerator of an embedding's 16 words, weights 0..8."""
    counts = [0] * 9
    for w in emb.words:
        counts[weight(w)] += 1
    return tuple(counts)


def subcensus(census: IsingCensus, indices, source: str) -> IsingCensus:
    """The points of `census` at `indices`, in that order, with their Gram."""
    idx = list(indices)
    elems = None if census.elements is None else census.elements[idx]
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
            if tuple(counts) != HAMMING_ENUMERATOR:
                continue
            support = tuple(i for i in range(code.length) if (w >> i) & 1)
            found[key] = HammingEmbedding(code, cand.generators, support)
    return sorted(found.values(), key=lambda e: (e.support, e.words))
