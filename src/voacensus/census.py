"""Censuses of central-charge-1/2 idempotents and their exact Gram data.

A census is an ordered list of labeled points together with (optionally) a
realization of every point in a Griess algebra.  Pairwise inner products of
distinct points are always 0 or 1/32; the Gram matrix is therefore stored as
a small integer code matrix (0 -> 0, 1 -> 1/32, 2 -> 1/4 on the diagonal,
3 -> not computable without a realization).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import CheckError, gf2code, rootlat
from .gf2code import BinaryCode, HammingEmbedding
from .griess import GriessAlgebra, GriessElement

GRAM_ZERO, GRAM_32ND, GRAM_QUARTER, GRAM_UNKNOWN = 0, 1, 2, 3


class CensusError(ValueError):
    pass


class CensusCheckError(CensusError, CheckError):
    """A computed census failed one of its mathematical invariants."""


@dataclass(frozen=True)
class IsingPoint:
    """A labeled census point.

    kind: frame | hamming | wminus | wplus | twist.
    data: frame -> coordinate index; hamming -> (embedding index, coset rep);
    wminus/wplus -> root-pair index; twist -> (coset key, coset kind).
    """

    kind: str
    data: tuple

    def to_json(self) -> dict:
        out = {"tag": self.kind}
        if self.kind == "frame":
            out["coordinate"] = self.data[0]
        elif self.kind == "hamming":
            out["embedding"] = self.data[0]
            out["coset"] = self.data[1]
        elif self.kind in ("wminus", "wplus"):
            out["pair"] = self.data[0]
        else:
            out["coset_key"] = "".join(map(str, self.data[0]))
            out["coset_kind"] = self.data[1]
        return out


class IsingCensus:
    """Ordered points, optional realizations, and the coded Gram matrix."""

    def __init__(self, points: list[IsingPoint],
                 elements: list[GriessElement] | None,
                 gram: np.ndarray, source: str,
                 frame_size: int | None = None,
                 algebra: GriessAlgebra | None = None,
                 embeddings: list[HammingEmbedding] | None = None,
                 sources: list[tuple["IsingCensus", np.ndarray]] | None = None):
        self.points = points
        self.elements = elements
        self.gram = gram
        self.source = source
        self.frame_size = frame_size
        self.algebra = algebra
        self.embeddings = embeddings
        # a derived census (direct sum, realized code census): per source
        # census, the position here of each of its points
        self.sources = sources
        self._elem_index = None

    def __len__(self) -> int:
        return len(self.points)

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for p in self.points:
            out[p.kind] = out.get(p.kind, 0) + 1
        return dict(sorted(out.items()))

    def element_index(self, e: GriessElement) -> int:
        if self.elements is None:
            raise CensusError("census carries no realizations")
        if self._elem_index is None:
            self._elem_index = {el.key(): i for i, el in enumerate(self.elements)}
        try:
            return self._elem_index[e.key()]
        except KeyError:
            raise CensusError("element is not a census point") from None

    def to_json(self, include_gram: bool = True) -> dict:
        out = {
            "source": self.source,
            "count": len(self.points),
            "counts_by_tag": self.counts_by_kind(),
            "points": [p.to_json() for p in self.points],
        }
        if include_gram:
            legend = {"0": "0", "1": "1/32", "2": "1/4", "3": "unrealized"}
            out["gram_legend"] = legend
            out["gram_dense"] = ["".join(str(int(x)) for x in row)
                                 for row in self.gram]
        return out


def gram_from_elements(elements: list[GriessElement]) -> np.ndarray:
    """Coded Gram matrix of realized points; validates the 0 / 1-32 / 1-4 law."""
    if not elements:
        return np.zeros((0, 0), dtype=np.int8)
    num, den = elements[0].alg.inner_numerators(elements, elements)
    gram = np.full(num.shape, -1, dtype=np.int8)
    gram[num == 0] = GRAM_ZERO
    gram[32 * num == den] = GRAM_32ND
    gram[4 * num == den] = GRAM_QUARTER
    if (gram < 0).any():
        i, j = map(int, np.argwhere(gram < 0)[0])
        raise CensusCheckError(
            f"inner product of points {i},{j} is {Fraction(int(num[i, j]), int(den[i, j]))},"
            " outside {0, 1/32, 1/4}")
    if not (np.diag(gram) == GRAM_QUARTER).all():
        raise CensusCheckError("a census point does not have norm 1/4")
    return gram


# ---------------------------------------------------------------------------
# lattice censuses

def _lattice_points(lattice: rootlat.RootLattice, algebra: GriessAlgebra):
    """The labeled points of a lattice census and their elements, in order.

    For every root pair both frame vectors; for rank-8 E-type lattices also
    the 2^8 twists of wtilde, labeled by cosets mod 2.
    """
    points: list[IsingPoint] = []
    elements: list[GriessElement] = []
    for p in range(lattice.npairs):
        points.append(IsingPoint("wminus", (p,)))
        elements.append(algebra.w_vector(p, -1).element)
    for p in range(lattice.npairs):
        points.append(IsingPoint("wplus", (p,)))
        elements.append(algebra.w_vector(p, 1).element)
    if lattice.kind == "E" and lattice.rank == 8:
        wt = algebra.conformal_wtilde().element
        for cl in lattice.mod2_classes():
            points.append(IsingPoint("twist", (cl.key, cl.kind)))
            elements.append(algebra.phi_twist(cl.representative, wt))
    return points, elements


def lattice_census(lattice: rootlat.RootLattice,
                   algebra: GriessAlgebra) -> IsingCensus:
    """All norm-1/4 idempotents of the degree-2 algebra of an ADE lattice."""
    return commutant_filter(lattice, algebra, [], f"lattice:{lattice.name}")


def commutant_filter(lattice: rootlat.RootLattice, algebra: GriessAlgebra,
                     constraints: list[GriessElement], source: str) -> IsingCensus:
    """Census of the lattice census points orthogonal to every constraint.

    The points are filtered before any Gram is taken: a point is kept when
    its row of `GriessAlgebra.inner_numerators` against the constraints is
    all zero, so with no constraints every point is kept.  Each Gram entry
    depends only on its two elements, so the Gram of the kept points is the
    lattice census's Gram restricted to them (README: "How a commutant
    census is built").
    """
    points, elements = _lattice_points(lattice, algebra)
    num, _ = algebra.inner_numerators(elements, constraints)
    idx = np.flatnonzero(~num.any(axis=1)).tolist()
    kept = [elements[i] for i in idx]
    return IsingCensus([points[i] for i in idx], kept, gram_from_elements(kept),
                       source, frame_size=2 * lattice.rank, algebra=algebra)


def direct_sum(parts: list[IsingCensus], source: str) -> IsingCensus:
    """The summands' points in order; points of different summands are orthogonal."""
    points = [pt for p in parts for pt in p.points]
    gram = np.zeros((len(points), len(points)), dtype=np.int8)
    sources, offset = [], 0
    for p in parts:
        pos = np.arange(offset, offset + len(p), dtype=np.int32)
        gram[offset:offset + len(p), offset:offset + len(p)] = p.gram
        sources.append((p, pos))
        offset += len(p)
    return IsingCensus(points, None, gram, source, sources=sources,
                       frame_size=sum(p.frame_size for p in parts))


# ---------------------------------------------------------------------------
# code censuses

def _coset_reps(embedding: HammingEmbedding) -> list[int]:
    """The 16 cosets of the embedded subcode on its support.

    One pass over the 256 support words: each word not yet labelled labels
    its whole coset.  Representatives have minimal weight on the support,
    ties broken by numeric value; returned sorted.
    """
    words = [0]
    for i in embedding.support:
        words += [w | 1 << i for w in words]
    subcode = embedding.words
    labelled: set[int] = set()
    reps = []
    for word in words:
        if word in labelled:
            continue
        coset = [word ^ w for w in subcode]
        labelled.update(coset)
        reps.append(min(coset, key=lambda w: (gf2code.weight(w), w)))
    if len(reps) != 16:
        raise CensusError(f"embedding has {len(reps)} cosets, expected 16")
    return sorted(reps)


def code_census(code: BinaryCode, realize: IsingCensus | None = None,
                sigmas=None) -> IsingCensus:
    """Frame points plus 16 points per Hamming-type embedding.

    `realize` is the lattice census of a paired model (see `paired_model`)
    whose elements are attached to the points, and `sigmas` its checked
    `transpo.SigmaTable`; without them, cross-embedding Gram entries are
    marked unrealized.  A realized census relabels `realize`, its one source.
    """
    if code.rank == 0:
        raise CensusError("census of the zero code is empty of structure")
    if code.min_weight() <= 2:
        raise CensusError("code has a word of weight <= 2: census is not finite")
    embeddings = gf2code.hamming_embeddings(code)
    points: list[IsingPoint] = [IsingPoint("frame", (i,)) for i in range(code.length)]
    block_cosets: list[list[int]] = []
    for ei, emb in enumerate(embeddings):
        reps = _coset_reps(emb)
        block_cosets.append(reps)
        for rep in reps:
            points.append(IsingPoint("hamming", (ei, rep)))
    gram = _combinatorial_gram(code, embeddings, block_cosets)
    if realize is None:
        return IsingCensus(points, None, gram, "code:unrealized",
                           frame_size=code.length, embeddings=embeddings)
    if sigmas is None or len(sigmas.rows) != len(realize):
        raise CensusError("a realized code census needs its paired census's sigma-table")
    index = _realize_code_census(code, embeddings, block_cosets, realize, sigmas.rows)
    pos = np.full(len(realize), -1, dtype=np.int32)
    pos[index] = np.arange(len(index))
    if len(index) != len(realize) or (pos < 0).any():
        raise CensusCheckError(f"the code points do not relabel {realize.source}")
    realized = realize.gram[np.ix_(index, index)]
    bad = np.argwhere((gram != GRAM_UNKNOWN) & (gram != realized))
    if len(bad):
        i, j = map(int, bad[0])
        raise CensusCheckError(
            f"realized Gram entry ({i},{j}) differs from the code's")
    return IsingCensus(points, [realize.elements[k] for k in index], realized,
                       f"code:{realize.algebra.lattice.name}", frame_size=code.length,
                       algebra=realize.algebra, embeddings=embeddings,
                       sources=[(realize, pos)])


def _combinatorial_gram(code, embeddings, block_cosets) -> np.ndarray:
    """Gram entries defined without a realization; cross-block pairs unknown.

    A block point meets the frame points on its support at 1/32 and two
    points of one block meet at 1/32 iff their labels differ by an odd
    number of support coordinates (the codes GRAM_ZERO, GRAM_32ND are 0, 1).
    """
    L = code.length
    n = L + 16 * len(embeddings)
    gram = np.full((n, n), GRAM_UNKNOWN, dtype=np.int8)
    gram[:L, :L] = GRAM_ZERO
    for b, (emb, reps) in enumerate(zip(embeddings, block_cosets)):
        block = slice(L + 16 * b, L + 16 * b + 16)
        on_support = np.zeros(L, dtype=np.int8)
        on_support[list(emb.support)] = GRAM_32ND
        gram[block, :L] = on_support
        gram[:L, block] = on_support[:, None]
        mask = sum(1 << i for i in emb.support)
        gram[block, block] = [[gf2code.weight((r ^ t) & mask) & 1 for t in reps]
                              for r in reps]
    np.fill_diagonal(gram, GRAM_QUARTER)
    return gram


def paired_model(code: BinaryCode) -> str | None:
    """Catalog lattice model whose census realizes this code's census."""
    if code == gf2code.named_code("reed_muller", 2, 4):
        return "E8H"
    if code.length % 4 == 0:
        n = code.length // 4
        # D2C has no code-frame model: the [4,1] code stays unrealized
        if n >= 2 and code == gf2code.structure_code_dplus(n):
            return f"D{2 * n}C"
    return None


def _realize_code_census(code, embeddings, block_cosets, base, sigmas):
    """Match census labels with points of the paired lattice census `base`.

    Frame slot 2i / 2i+1 maps to the minus / plus vector over the i-th
    coordinate axis root.  Each embedding block is matched by its Gram row
    against the frame points, anchored and translated by the involutions of
    in-support frame points (`sigmas`, the σ-table rows of `base`).  Returns
    the index in `base` of every code census point.
    """
    lattice = base.algebra.lattice
    if code.length != 2 * lattice.ambient:
        raise CensusError(f"code length {code.length} does not pair with {lattice.name}")
    frame = []
    for i in range(lattice.ambient):
        v = np.zeros(lattice.ambient, dtype=np.int64)
        v[i] = 2
        pair = lattice.pair_of(v)
        frame += [pair, lattice.npairs + pair]   # its wminus and wplus points
    meets = base.gram[:, frame]
    free = np.ones(len(base), dtype=bool)
    free[frame] = False
    index = list(frame)
    for emb, reps in zip(embeddings, block_cosets):
        desired = np.full(code.length, GRAM_ZERO, dtype=np.int8)
        desired[list(emb.support)] = GRAM_32ND
        cands = np.flatnonzero(free & (meets == desired).all(axis=1)).tolist()
        if len(cands) != 16:
            raise CensusCheckError(
                f"embedding matching found {len(cands)} candidates, expected 16")
        anchor = min(cands, key=lambda k: base.elements[k].key())
        block = _translate_block(sigmas, frame, emb, reps, anchor, cands)
        free[block] = False
        index += block
    return index


def _translate_block(sigmas, frame, emb, reps, anchor, cands):
    """The block candidate of each coset in `reps`, in that order.

    Flipping coordinate i of a label is σ_i = sigmas[frame[i]], the checked
    row of frame point i.  The frame points are mutually orthogonal, so σ_i
    fixes frame point j, σ_i σ_j σ_i = σ_j and the σ's commute: a support
    word w acts by σ_w, the product of its σ's, and the words fixing the
    anchor form a subgroup K.  Each subcode generator must return the anchor
    (4 lookups each), so the subcode lies in K and w(anchor) depends only on
    the coset of w: coset r is placed at σ_r(anchor), one lookup per support
    bit of r.  Every edge (coset c, coordinate i) then has σ_i(point of c) =
    point of c + e_i, which is what a check of all 8 x 16 edges would
    verify, and that check passing makes each generator return the anchor.
    The 16 points must be distinct candidates, so K is exactly the subcode
    and the labels are a bijection onto the block.
    """
    support = list(emb.support)

    def walk(word):
        point = anchor
        for i in support:
            if (word >> i) & 1:
                point = int(sigmas[frame[i], point])
        return point

    if any(walk(g) != anchor for g in emb.subcode_generators):
        raise CensusCheckError("a subcode word moves the block anchor")
    placed = [walk(r) for r in reps]
    if len(set(placed)) != 16 or not set(placed) <= set(cands):
        raise CensusCheckError("block translation did not place 16 distinct candidates")
    return placed


# ---------------------------------------------------------------------------
# type-preservation parity test

def sigma_type_check(code: BinaryCode, embedding: HammingEmbedding) -> bool:
    """True iff every codeword meets the embedding support evenly."""
    if code.min_weight() == 2:
        raise CensusError("code has weight-2 words")
    support_bits = 0
    for i in embedding.support:
        support_bits |= 1 << i
    return all(gf2code.weight(w & support_bits) % 2 == 0 for w in code.words())
