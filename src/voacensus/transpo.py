"""Involutions of a census as permutations, and exact group machinery.

Permutations are numpy int32 arrays mapping index -> image.  The group
engine is a deterministic Schreier-Sims stabilizer chain; `PermutationGroup`
states the invariant that makes its order exact for every generating set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import CheckError
from .census import GRAM_32ND, GRAM_ZERO, CensusError, IsingCensus
from .griess import SigmaImageError


class TranspoError(ValueError):
    pass


class SigmaCheckError(TranspoError, CheckError):
    """A sigma-table failed a mathematical check."""


def identity_perm(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int32)


def mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Composition 'p after q': (p*q)(x) = p(q(x))."""
    return p[q]


def inv(p: np.ndarray) -> np.ndarray:
    out = np.empty_like(p)
    out[p] = np.arange(len(p), dtype=p.dtype)
    return out


# ---------------------------------------------------------------------------
# sigma involutions of a census

class SigmaTable:
    """A checked sigma-table: `rows[i]` is the involution of point i.

    Only a table that passes the checks below is constructed, and
    SigmaCheckError names the first failure: the rows of the seeds preserve
    `gram`; the rows are distinct when every point has a 1/32 partner;
    every row is an involution; every seed s satisfies

        R(s):  sigma_{sigma_s(y)} = sigma_s sigma_y sigma_s  for every y;

    and every orbit of the group the seed rows generate holds a seed.
    With every point a seed, R is checked at every row.

    Why the seeds suffice: each point z outside the seeds is sigma_s(f) for
    a seed s and a point f nearer to the seeds, so rows[z] = sigma_s sigma_f
    sigma_s by R(s), and R(z) follows from R(s) and R(f) in three steps:

        sigma_{sigma_z(y)} = sigma_s sigma_{sigma_f sigma_s(y)} sigma_s      by R(s)
                           = sigma_s sigma_f sigma_{sigma_s(y)} sigma_f sigma_s  by R(f)
                           = sigma_z sigma_y sigma_z                         by R(s).

    By induction R holds at every row, and every row is a product of seed
    rows, so it preserves the Gram as well.  Each row is then an
    automorphism of the points, their Gram and the lines {x, y, sigma_x(y)},
    and a property that such automorphisms preserve holds everywhere once
    it holds at one point of each orbit.  `reps` is the smallest point of
    each orbit, ascending; `seeds` the seeds as given; `rows` is read-only.
    """

    def __init__(self, rows: np.ndarray, gram: np.ndarray, seeds):
        n = len(rows)
        seeds = np.asarray(seeds, dtype=np.int64)
        for s in seeds:
            if (gram[np.ix_(rows[s], rows[s])] != gram).any():
                raise SigmaCheckError(f"sigma of point {s} does not preserve the Gram")
        if ((gram == GRAM_32ND).any(axis=1).all()
                and len({row.tobytes() for row in rows}) != n):
            raise SigmaCheckError("sigma map is not injective on this census")
        bad = np.flatnonzero((np.take_along_axis(rows, rows, axis=1)
                              != np.arange(n)).any(axis=1))
        if len(bad):
            raise SigmaCheckError(f"sigma of point {bad[0]} is not an involution")
        for s in seeds:
            ss = rows[s]
            bad = np.flatnonzero((rows[ss] != ss[rows[:, ss]]).any(axis=1))
            if len(bad):
                raise SigmaCheckError(
                    f"two derivations of row {ss[bad[0]]} disagree "
                    f"(point {bad[0]} conjugated by point {s})")
        # smallest point of each orbit, by relaxation along the seed rows
        low, nxt = None, np.arange(n)
        while not np.array_equal(low, nxt):
            low = nxt
            nxt = np.minimum(low, low[rows[seeds]].min(axis=0, initial=n))
        lost = np.flatnonzero(~np.isin(low, low[seeds]))
        if len(lost):
            raise SigmaCheckError(f"point {lost[0]} is not reached from the seeds")
        rows.flags.writeable = False
        self.rows = rows
        self.seeds = seeds
        self.reps = np.flatnonzero(low == np.arange(n))


def sigma_permutations(census: IsingCensus) -> SigmaTable:
    """One involution per point of a realized census, as a checked SigmaTable.

    Entry (i, j) of its rows is the image of point j under the involution
    of point i: fixed when the points are orthogonal, and the third point of
    their line when the inner product is 1/32.  Each sigma_x is an algebra
    automorphism, so sigma_{sigma_x(y)} = sigma_x sigma_y sigma_x: only seed
    rows (the smallest unknown index) take Griess products, and conjugation
    by the seeds closes the rest.  A product outside the census or failing
    the norm check, and a failed SigmaTable check, raise SigmaCheckError.
    A derived census (`IsingCensus.sources`) is gathered in `registry` instead.
    """
    if census.elements is None:
        raise TranspoError("sigma permutations need realized census points")
    n = len(census)
    table = np.tile(np.arange(n, dtype=np.int32), (n, 1))
    seeds: list[int] = []
    algebra = census.algebra
    partners = census.gram == GRAM_32ND
    known = np.zeros(n, dtype=bool)
    while not known.all():
        s = int(np.argmin(known))
        js = np.flatnonzero(partners[s])
        try:
            images = algebra.sigma_images(census.elements[s],
                                          [census.elements[j] for j in js])
        except SigmaImageError as exc:
            raise SigmaCheckError(
                f"sigma image of ({s},{js[exc.row]}) failed: {exc}") from exc
        for j, image in zip(js, images):
            try:
                table[s, j] = census.element_index(image)
            except CensusError as exc:
                raise SigmaCheckError(
                    f"census not closed: image of ({s},{j}) is missing") from exc
        known[s] = True
        seeds.append(s)
        frontier = np.flatnonzero(known)
        while len(frontier):
            fresh_rows = []
            for x in seeds:
                sx = table[x]
                z, first = np.unique(sx[frontier], return_index=True)
                fresh = ~known[z]
                z = z[fresh]
                table[z] = sx[table[frontier[first[fresh]]][:, sx]]
                known[z] = True
                fresh_rows.append(z)
            frontier = np.concatenate(fresh_rows)
    # the partner mask and the last batch of images go before the checks'
    # temporaries come, which keeps the peak lower
    partners = images = image = None
    return SigmaTable(table, census.gram, seeds)


# ---------------------------------------------------------------------------
# stabilizer chains

class PermutationGroup:
    """Stabilizer chain with exact order and membership test (Schreier-Sims).

    Level k holds a base point b_k, generators, and for each point x of the
    orbit of b_k under the group H_k they generate a word u_x in them with
    u_x(b_k) = x, and its inverse.  Each permutation on the stack carries a
    start level i and is sifted from level i when it comes off; a residue
    that fails at level j becomes a generator of levels i..j (j is a new
    level, based at the residue's first moved point, when it is past the
    last).  Input generators start at 0; a Schreier generator u_y^-1 h u_x
    of level l (h a generator there, y = h(x)) starts at l + 1.

    Invariant: H_{k+1} lies in H_k, and level k's generators fix b_0..b_{k-1}.
    A Schreier generator of level l lies in H_l and fixes b_0..b_l; sifting
    multiplies it by transversal words of H_{l+1}, H_{l+2}, ..., so its
    residue does too and also fixes the base points it passed.  Giving the
    residue to levels l+1..j keeps both parts, and so does giving an input
    generator's residue to levels 0..j.

    Why the order is exact: once the stack is empty, every Schreier generator
    of level k has sifted to the identity from level k + 1, so it is a
    product of transversal words of H_{k+1}, ... (transversals only grow).
    By induction from the last level down, where H_{k+1} is trivial, every
    element of H_{k+1} sifts to the identity, and

        Stab_{H_k}(b_k) = <Schreier generators of level k>   (Schreier's lemma)
                       <= H_{k+1} <= Stab_{H_k}(b_k)          (the invariant),

    so every g in H_k is u_{g(b_k)} times an element of H_{k+1} and
    |H_k| = |orbit of b_k| |H_{k+1}|.  Every input generator was given to
    level 0 or sifted to the identity, so H_0 is the group generated.
    """

    def __init__(self, generators, degree: int):
        self.base: list[int] = []
        self._ident = identity_perm(degree)
        self._gens: list[list[np.ndarray]] = []
        self._trans: list[dict[int, np.ndarray]] = []
        self._trans_inv: list[dict[int, np.ndarray]] = []
        # an input generator's Schreier generators come off before the next
        todo = [(np.asarray(g, dtype=np.int32), 0) for g in reversed(generators)]
        while todo:
            p, start = todo.pop()
            res, j = self.sift(p, start)
            if j == len(self.base):
                if (res == self._ident).all():
                    continue
                b = int(np.argmax(res != self._ident))
                self.base.append(b)
                self._gens.append([])
                self._trans.append({b: self._ident})
                self._trans_inv.append({b: self._ident})
            for k in range(start, j + 1):
                todo.extend((s, k + 1) for s in self._add_generator(k, res))

    def _add_generator(self, k: int, g: np.ndarray) -> list[np.ndarray]:
        """Give g to level k, close its orbit; the non-identity Schreier
        generators met on the way."""
        gens, trans, trans_inv = self._gens[k], self._trans[k], self._trans_inv[k]
        gens.append(g)
        schreier = []
        pairs = [(g, x) for x in trans]
        for h, x in pairs:              # grows as new points are reached
            y = int(h[x])
            hu = mul(h, trans[x])
            if y in trans:
                s = mul(trans_inv[y], hu)
                if (s != self._ident).any():
                    schreier.append(s)
            else:
                trans[y] = hu
                trans_inv[y] = inv(hu)
                pairs.extend((h2, y) for h2 in gens)
        return schreier

    def sift(self, p: np.ndarray, start: int = 0) -> tuple[np.ndarray, int]:
        """Reduce p through levels start, start + 1, ...; returns (residue,
        failing level), the level being len(base) when p passes them all."""
        for k in range(start, len(self.base)):
            x = int(p[self.base[k]])
            if x != self.base[k]:
                uinv = self._trans_inv[k].get(x)
                if uinv is None:
                    return p, k
                p = mul(uinv, p)
        return p, len(self.base)

    def __contains__(self, p) -> bool:
        res, _ = self.sift(np.asarray(p, dtype=np.int32))
        return bool((res == self._ident).all())

    @property
    def order(self) -> int:
        return math.prod(len(t) for t in self._trans)


def group_order(perms) -> int:
    """Exact order of the group the permutations generate (1 for none)."""
    perms = [np.asarray(p, dtype=np.int32) for p in perms]
    if not perms:
        return 1
    return PermutationGroup(perms, len(perms[0])).order


# ---------------------------------------------------------------------------
# 3-transposition structure

def _rows_and_reps(sigmas: SigmaTable | np.ndarray):
    """The rows of `sigmas` and the points a check visits: one per orbit for
    a SigmaTable (see there why that suffices), every row of a plain array."""
    if isinstance(sigmas, SigmaTable):
        return sigmas.rows, sigmas.reps
    return sigmas, np.arange(len(sigmas))


def is_3transposition(sigmas: SigmaTable | np.ndarray
                      ) -> tuple[bool, tuple[int, int] | None]:
    """Check that all pairwise products of the involution rows have order <= 3.

    The witness is the first failing pair (i, j) in row-major order: orbits
    fail whole, and each orbit's representative is its smallest point.
    """
    rows, reps = _rows_and_reps(sigmas)
    ident = np.arange(rows.shape[1], dtype=rows.dtype)
    for i in reps:
        r = rows[i][rows]                # rows: sigma_i after sigma_j
        r2 = np.take_along_axis(r, r, axis=1)
        r3 = np.take_along_axis(r, r2, axis=1)
        ok = ((r == ident).all(axis=1) | (r2 == ident).all(axis=1)
              | (r3 == ident).all(axis=1))
        if not ok.all():
            return False, (int(i), int(np.nonzero(~ok)[0][0]))
    return True, None


@dataclass(frozen=True)
class FischerSpace:
    npoints: int
    lines: tuple[tuple[int, int, int], ...]


def fischer_space(census: IsingCensus, sigmas: SigmaTable | np.ndarray) -> FischerSpace:
    """Lines {x, y, sigma_x(y)} over all non-commuting point pairs."""
    ok, witness = is_3transposition(sigmas)
    if not ok:
        raise TranspoError(f"not a 3-transposition set, witness {witness}")
    rows = _rows_and_reps(sigmas)[0]
    i, j = np.nonzero(np.triu(census.gram == GRAM_32ND, k=1))
    # each line comes from up to three pairs; sorted, its copies are adjacent
    # (np.unique would import numpy.ma, 15 ms of a CLI run)
    lines = np.sort(np.stack([i, j, rows[i, j]], axis=1), axis=1)
    lines = lines[np.lexsort(lines.T[::-1])]
    first = np.ones(len(lines), dtype=bool)
    first[1:] = (lines[1:] != lines[:-1]).any(axis=1)
    return FischerSpace(len(census), tuple(map(tuple, lines[first].tolist())))


def _incidences(space: FischerSpace) -> np.ndarray:
    """Rows (x, a, b): one per point x of a line {x, a, b}."""
    lines = np.array(space.lines, dtype=np.int32).reshape(-1, 3)
    return np.concatenate([lines, lines[:, [1, 0, 2]], lines[:, [2, 0, 1]]])


def is_symplectic_type(space: FischerSpace, sigmas: SigmaTable | np.ndarray) -> bool:
    """Every pair of intersecting lines generates exactly six points.

    For each point x that `sigmas` asks to visit, vectorized over the pairs
    of lines {x, a, b}, {x, c, d} through x: the four cross images are
    computed at once, the candidate sixth point is identified, and closure
    of the six-point set is verified exactly.  A nine-point plane (or any
    other size) fails.
    """
    rows, reps = _rows_and_reps(sigmas)
    inc = _incidences(space)
    for x in reps:
        rest = inc[inc[:, 0] == x, 1:]
        s, t = np.triu_indices(len(rest), k=1)
        known = np.column_stack([np.full(len(s), x, dtype=inc.dtype),
                                 rest[s], rest[t]])
        a, b, c, d = known[:, 1:].T
        cross = np.stack([rows[a, c], rows[a, d], rows[b, c], rows[b, d]], axis=1)
        is_old = (cross[:, :, None] == known[:, None, :]).any(axis=2)
        new_vals = np.where(is_old, -1, cross)
        zmax = new_vals.max(axis=1, initial=-1)
        # every new value must agree (single sixth point) and exist
        bad_multi = ((new_vals >= 0) & (new_vals != zmax[:, None])).any(axis=1)
        if bad_multi.any() or (zmax < 0).any():
            return False
        six = np.column_stack([known, zmax])
        img = rows[six[:, :, None], six[:, None, :]]
        if not (img[..., None] == six[:, None, None, :]).any(axis=3).all():
            return False
    return True


def check_fischer_hypotheses(space: FischerSpace, census: IsingCensus,
                             sigmas: SigmaTable | np.ndarray) -> dict:
    """The two partial-linear-space conditions used for automorphism rigidity.

    (1) any two distinct points have a common orthogonal point;
    (2) for collinear x, y the common-perp-of-perps is exactly the line.
    Both are checked on the pairs (x, y) whose x `sigmas` asks to visit.
    """
    reps = _rows_and_reps(sigmas)[1]
    n = space.npoints
    orth = census.gram == GRAM_ZERO
    cond1 = bool(((orth[reps] @ orth) | (np.arange(n) == reps[:, None])).all())
    # orthogonality with self counted as compatible
    clash = ~(orth | np.eye(n, dtype=bool))
    inc = _incidences(space)
    cond2 = True
    for x in reps:
        rest = inc[inc[:, 0] == x, 1:]
        y, z = np.concatenate([rest, rest[:, ::-1]]).T
        perp = ~((orth[x] & orth[y]) @ clash)
        line = np.zeros_like(perp)
        k = np.arange(len(y))
        line[k, x] = line[k, y] = line[k, z] = True
        if not (perp == line).all():
            cond2 = False
            break
    return {"common_perp_nonempty": cond1, "perp_of_perp_is_line": cond2}


def inductive_structure(sigmas: np.ndarray, x: int, y: int) -> dict:
    """Commuting-set orders relative to one and two fixed involutions."""
    if np.array_equal(mul(sigmas[x], sigmas[y]), mul(sigmas[y], sigmas[x])):
        raise TranspoError("x and y must be non-commuting")
    sx, sy = sigmas[x], sigmas[y]
    all_after_x = sigmas[:, sx]          # rows sigma_z after sigma_x
    x_after_all = sx[sigmas]
    commute_x = (all_after_x == x_after_all).all(axis=1)
    all_after_y = sigmas[:, sy]
    y_after_all = sy[sigmas]
    commute_y = (all_after_y == y_after_all).all(axis=1)
    d1 = np.nonzero(commute_x)[0]
    d2 = np.nonzero(commute_x & commute_y)[0]
    d2_points = [int(i) for i in d2 if i not in (x, y)]
    return {
        "d1_points": [int(i) for i in d1],
        "d2_points": d2_points,
        "d1_order": group_order([sigmas[int(i)] for i in d1]),
        "d2_order": group_order([sigmas[i] for i in d2_points]),
    }


# ---------------------------------------------------------------------------
# frames

def is_frame(census: IsingCensus, indices) -> bool:
    """Pairwise orthogonal, correct cardinality, and summing to omega."""
    idx = sorted(indices)
    if census.frame_size is not None and len(idx) != census.frame_size:
        return False
    sub = census.gram[np.ix_(idx, idx)]
    off = ~np.eye(len(idx), dtype=bool)
    if not (sub[off] == GRAM_ZERO).all():
        return False
    if census.elements is not None and census.algebra is not None:
        total = census.elements[idx[0]]
        for i in idx[1:]:
            total = total + census.elements[i]
        return total == census.algebra.omega
    return True


def enumerate_frames(census: IsingCensus, within=None) -> list[tuple[int, ...]]:
    """All frames whose points lie in `within` (default: everything).

    Exhaustive clique search on the orthogonality graph with candidate
    pruning; frames are validated against omega when realizations exist.
    """
    n = len(census)
    pool = sorted(within) if within is not None else list(range(n))
    orth = (census.gram == GRAM_ZERO)
    size = census.frame_size
    if size is None:
        raise TranspoError("census has no frame cardinality metadata")
    out: list[tuple[int, ...]] = []

    def grow(clique: list[int], candidates: list[int]):
        if len(clique) == size:
            if is_frame(census, clique):
                out.append(tuple(clique))
            return
        if len(clique) + len(candidates) < size:
            return
        for k, v in enumerate(candidates):
            grow(clique + [v], [w for w in candidates[k + 1:] if orth[v, w]])

    grow([], pool)
    return sorted(out)


def frame_conjugator(census: IsingCensus, sigmas: np.ndarray,
                     frame_a, frame_b) -> list[int]:
    """Word in point involutions carrying frame_a onto frame_b as sets.

    Breadth-first search over the group action on frame images; raises when
    the orbit of frame_a is exhausted without reaching frame_b.
    """
    fa, fb = frozenset(frame_a), frozenset(frame_b)
    for f in (fa, fb):
        if not is_frame(census, f):
            raise TranspoError("argument is not a frame of this census")
    if fa == fb:
        return []
    seen = {fa: []}
    frontier = [fa]
    while frontier:
        nxt = []
        for cur in frontier:
            word = seen[cur]
            for g in range(len(sigmas)):
                img = frozenset(int(sigmas[g, i]) for i in cur)
                if img in seen:
                    continue
                seen[img] = word + [g]
                if img == fb:
                    return seen[img]
                nxt.append(img)
        frontier = nxt
    raise TranspoError("frames are not conjugate under the involution group")


def apply_word(sigmas: np.ndarray, word: list[int], points) -> frozenset:
    """Apply a generator word (leftmost applied first) to a point set."""
    out = frozenset(int(p) for p in points)
    for g in word:
        out = frozenset(int(sigmas[g, i]) for i in out)
    return out
