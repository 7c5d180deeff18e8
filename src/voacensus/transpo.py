"""Involutions of a census as permutations, and exact group machinery.

Permutations are numpy int32 arrays mapping index -> image.  The group
engine is a deterministic incremental stabilizer-chain construction: base
points are chosen smallest-first, generators are sifted before insertion,
and all Schreier generators are processed, so the resulting order is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .census import GRAM_32ND, GRAM_ZERO, CensusError, IsingCensus
from .griess import GriessAlgebra


class TranspoError(ValueError):
    pass


class SigmaCheckError(TranspoError):
    """A sigma-table failed a mathematical check (CLI exit 1, not 2)."""


def identity_perm(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int32)


def mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Composition 'p after q': (p*q)(x) = p(q(x))."""
    return p[q]


def inv(p: np.ndarray) -> np.ndarray:
    out = np.empty_like(p)
    out[p] = np.arange(len(p), dtype=p.dtype)
    return out


def perm_order(p: np.ndarray) -> int:
    n = len(p)
    seen = np.zeros(n, dtype=bool)
    order = 1
    for i in range(n):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = int(p[j])
            ln += 1
        if ln > 1:
            order = _lcm(order, ln)
    return order


def _lcm(a: int, b: int) -> int:
    from math import gcd
    return a * b // gcd(a, b)


# ---------------------------------------------------------------------------
# sigma involutions of a census

def sigma_permutations(census: IsingCensus,
                       algebra: GriessAlgebra | None = None) -> np.ndarray:
    """One involution per census point, as rows of an (n, n) table.

    Entry (i, j) is the image of point j under the involution of point i:
    fixed when the points are orthogonal, and the third point of their line
    when the inner product is 1/32.  Direct sums act blockwise.  Each
    sigma_x is an algebra automorphism, so sigma_{sigma_x(y)} = sigma_x
    sigma_y sigma_x: only seed rows (the smallest unknown index) take Griess
    products, and conjugation by the seeds closes the rest.  A failed check
    (closure, Gram, injectivity, involution, consistency of derivations)
    raises SigmaCheckError.
    """
    n = len(census)
    table = np.tile(np.arange(n, dtype=np.int32), (n, 1))
    if census.blocks is not None:
        for offset, part in census.blocks:
            k = len(part)
            table[offset:offset + k, offset:offset + k] = \
                sigma_permutations(part) + offset
        return table
    if census.elements is None:
        raise TranspoError("sigma permutations need realized census points")
    algebra = algebra or census.algebra
    partners = census.gram == GRAM_32ND
    known = np.zeros(n, dtype=bool)
    seeds: list[int] = []
    while not known.all():
        s = int(np.argmin(known))
        for j in np.flatnonzero(partners[s]):
            try:
                table[s, j] = census.element_index(algebra.sigma_image(
                    census.elements[s], census.elements[j]))
            except CensusError as exc:
                raise SigmaCheckError(
                    f"census not closed: image of ({s},{j}) is missing") from exc
        if (census.gram[np.ix_(table[s], table[s])] != census.gram).any():
            raise SigmaCheckError(f"sigma of point {s} does not preserve the Gram")
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
    if (partners.any(axis=1).all()
            and len({row.tobytes() for row in table}) != n):
        raise SigmaCheckError("sigma map is not injective on this census")
    bad = np.flatnonzero((np.take_along_axis(table, table, axis=1)
                          != np.arange(n)).any(axis=1))
    if len(bad):
        raise SigmaCheckError(f"sigma of point {bad[0]} is not an involution")
    for x in range(n):
        sx = table[x]
        bad = np.flatnonzero((table[sx] != sx[table[:, sx]]).any(axis=1))
        if len(bad):
            raise SigmaCheckError(
                f"two derivations of row {sx[bad[0]]} disagree "
                f"(point {bad[0]} conjugated by point {x})")
    return table


# ---------------------------------------------------------------------------
# stabilizer chains

class PermutationGroup:
    """Deterministic stabilizer chain with exact order and membership test.

    Incremental construction: every input generator is sifted first, and an
    insertion extends the level's orbit in place, so each Schreier generator
    is formed and sifted once per (generator, orbit point) pair.
    """

    def __init__(self, generators, degree: int):
        self.degree = degree
        self.base: list[int] = []
        self._ident = identity_perm(degree)
        self._levels: list[dict] = []
        for g in generators:
            self.extend(np.asarray(g, dtype=np.int32))

    # -- chain plumbing ---------------------------------------------------
    def _new_level(self, b: int):
        self._levels.append({
            "base": b, "gens": [],
            "transversal": {b: self._ident},
            "transversal_inv": {b: self._ident},
        })
        self.base.append(b)

    def sift(self, p: np.ndarray, start: int = 0) -> tuple[np.ndarray, int]:
        """Reduce p through the chain; returns (residue, failing level)."""
        for lv in range(start, len(self._levels)):
            level = self._levels[lv]
            b = level["base"]
            x = int(p[b])
            if x == b:
                continue
            uinv = level["transversal_inv"].get(x)
            if uinv is None:
                return p, lv
            p = mul(uinv, p)
        return p, len(self._levels)

    def __contains__(self, p) -> bool:
        res, _ = self.sift(np.asarray(p, dtype=np.int32))
        return bool((res == self._ident).all())

    def extend(self, g: np.ndarray):
        res, lv = self.sift(g)
        if (res == self._ident).all():
            return
        todo = [(lv, res)]
        while todo:
            lv, p = todo.pop()
            res, lv2 = self.sift(p, start=lv)
            if (res == self._ident).all():
                continue
            lv = lv2
            if lv == len(self._levels):
                moved = np.nonzero(res != self._ident)[0]
                self._new_level(int(moved[0]))
            for s_lv, s in self._insert(lv, res):
                todo.append((s_lv, s))

    def _insert(self, lv: int, g: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """Add g to level lv, grow the orbit, return unsifted Schreier residues."""
        level = self._levels[lv]
        trans = level["transversal"]
        trans_inv = level["transversal_inv"]
        level["gens"].append(g)
        pending: list[tuple[int, np.ndarray]] = []
        new_points: list[int] = []

        def step(h: np.ndarray, x: int):
            y = int(h[x])
            u = trans[x]
            if y not in trans:
                v = mul(h, u)
                trans[y] = v
                trans_inv[y] = inv(v)
                new_points.append(y)
            else:
                s = mul(trans_inv[y], mul(h, u))
                if (s != self._ident).any():
                    res, lv2 = self.sift(s, start=lv + 1)
                    if (res != self._ident).any():
                        pending.append((lv2, res))

        # the new generator over the existing orbit, then closure on new points
        for x in list(trans):
            step(g, x)
        i = 0
        while i < len(new_points):
            x = new_points[i]
            i += 1
            for h in level["gens"]:
                step(h, x)
        return pending

    @property
    def order(self) -> int:
        out = 1
        for level in self._levels:
            out *= len(level["transversal"])
        return out


def group_order(perms) -> int:
    """Exact order of the group generated by the given permutations."""
    perms = [np.asarray(p, dtype=np.int32) for p in perms]
    if not perms:
        raise TranspoError("empty generator list")
    return PermutationGroup(perms, len(perms[0])).order


def brute_force_order(perms, limit: int = 2 * 10 ** 6) -> int:
    """Closure order by breadth-first multiplication (small groups only)."""
    perms = [np.asarray(p, dtype=np.int32) for p in perms]
    seen = {identity_perm(len(perms[0])).tobytes()}
    frontier = [identity_perm(len(perms[0]))]
    while frontier:
        nxt = []
        for p in frontier:
            for g in perms:
                q = mul(g, p)
                k = q.tobytes()
                if k not in seen:
                    if len(seen) >= limit:
                        raise TranspoError("closure exceeded limit")
                    seen.add(k)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


# ---------------------------------------------------------------------------
# 3-transposition structure

def is_3transposition(sigmas: np.ndarray) -> tuple[bool, tuple[int, int] | None]:
    """Check that all pairwise products of the involution rows have order <= 3."""
    k, n = sigmas.shape
    ident = np.arange(n, dtype=sigmas.dtype)
    for i in range(k):
        r = sigmas[i][sigmas]            # rows: sigma_i after sigma_j
        r2 = np.take_along_axis(r, r, axis=1)
        r3 = np.take_along_axis(r, r2, axis=1)
        ok = ((r == ident).all(axis=1) | (r2 == ident).all(axis=1)
              | (r3 == ident).all(axis=1))
        if not ok.all():
            return False, (i, int(np.nonzero(~ok)[0][0]))
    return True, None


@dataclass(frozen=True)
class FischerSpace:
    npoints: int
    lines: tuple[tuple[int, int, int], ...]


def fischer_space(census: IsingCensus, sigmas: np.ndarray) -> FischerSpace:
    """Lines {x, y, sigma_x(y)} over all non-commuting point pairs."""
    ok, witness = is_3transposition(sigmas)
    if not ok:
        raise TranspoError(f"not a 3-transposition set, witness {witness}")
    lines = set()
    for i, j in np.argwhere(np.triu(census.gram == GRAM_32ND, k=1)):
        k = int(sigmas[i, j])
        lines.add(tuple(sorted((int(i), int(j), k))))
    return FischerSpace(len(census), tuple(sorted(lines)))


def is_symplectic_type(space: FischerSpace, sigmas: np.ndarray) -> bool:
    """Every pair of intersecting lines generates exactly six points.

    Vectorized over all intersecting line pairs: the four cross images are
    computed at once, the candidate sixth point is identified, and closure of
    the six-point set is verified exactly.  A nine-point plane (or any other
    size) fails.
    """
    by_point: dict[int, list[tuple[int, int]]] = {}
    for (a, b, c) in space.lines:
        by_point.setdefault(a, []).append((b, c))
        by_point.setdefault(b, []).append((a, c))
        by_point.setdefault(c, []).append((a, b))
    X, A, B, C, D = [], [], [], [], []
    for x, rest in by_point.items():
        for s in range(len(rest)):
            for t in range(s + 1, len(rest)):
                X.append(x)
                A.append(rest[s][0]); B.append(rest[s][1])
                C.append(rest[t][0]); D.append(rest[t][1])
    if not X:
        return True
    X = np.array(X, dtype=np.int32); A = np.array(A, dtype=np.int32)
    B = np.array(B, dtype=np.int32); C = np.array(C, dtype=np.int32)
    D = np.array(D, dtype=np.int32)
    for lo in range(0, len(X), 250000):
        sl = slice(lo, lo + 250000)
        x, a, b, c, d = X[sl], A[sl], B[sl], C[sl], D[sl]
        cross = np.stack([sigmas[a, c], sigmas[a, d],
                          sigmas[b, c], sigmas[b, d]], axis=1)
        known = np.stack([x, a, b, c, d], axis=1)
        is_old = (cross[:, :, None] == known[:, None, :]).any(axis=2)
        new_vals = np.where(is_old, -1, cross)
        zmax = new_vals.max(axis=1)
        # every new value must agree (single sixth point) and exist
        bad_multi = ((new_vals >= 0) & (new_vals != zmax[:, None])).any(axis=1)
        no_new = zmax < 0
        if bad_multi.any() or no_new.any():
            return False
        six = np.concatenate([known, zmax[:, None]], axis=1)
        for i in range(6):
            for j in range(6):
                img = sigmas[six[:, i], six[:, j]]
                inside = (img[:, None] == six).any(axis=1)
                if not inside.all():
                    return False
    return True


def check_fischer_hypotheses(space: FischerSpace, census: IsingCensus,
                             sigmas: np.ndarray) -> dict:
    """The two partial-linear-space conditions used for automorphism rigidity.

    (1) any two distinct points have a common orthogonal point;
    (2) for collinear x, y the common-perp-of-perps is exactly the line.
    """
    n = space.npoints
    orth = (census.gram == GRAM_ZERO)
    common = orth.astype(np.int32) @ orth.astype(np.int32)
    off = ~np.eye(n, dtype=bool)
    cond1 = bool((common[off] > 0).all())
    # bitset rows: orthogonality with self counted as compatible
    bits = []
    for i in range(n):
        row = 0
        for j in np.nonzero(orth[i])[0]:
            row |= 1 << int(j)
        row |= 1 << i
        bits.append(row)
    cond2 = True
    fullmask = (1 << n) - 1
    for (a, b, c) in space.lines:
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            members = np.nonzero(orth[x] & orth[y])[0]
            perp = fullmask
            for w in members:
                perp &= bits[int(w)]
            got = {i for i in range(n) if (perp >> i) & 1}
            if got != {x, y, z}:
                cond2 = False
                break
        if not cond2:
            break
    return {"common_perp_nonempty": cond1, "perp_of_perp_is_line": cond2}


def inductive_structure(census: IsingCensus, sigmas: np.ndarray,
                        x: int, y: int) -> dict:
    """Commuting-set orders relative to one and two fixed involutions."""
    n = len(census)
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
        "d2_order": group_order([sigmas[int(i)] for i in d2_points]),
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
