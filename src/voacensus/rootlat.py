"""ADE root lattices in exact integer coordinate models.

Every model stores vectors as integer numpy arrays together with a
``scale_sq`` divisor: the geometric inner product of stored vectors u, v is
``(u . v) / scale_sq``.  This keeps half-integer models (the E-series) in
exact integer arithmetic.  All roots have geometric norm 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import numpy as np

from . import gf2code
from .dynkin import LatticeError, lattice_type, root_count, short_vectors, theta_counts
from .exact import inverse, rref


def _hnf_basis(rows: np.ndarray) -> np.ndarray:
    """Row-style Hermite normal form; returns a basis of the integer row span."""
    mat = [list(map(int, r)) for r in rows]
    m = len(mat[0])
    basis: list[list[int]] = []
    col = 0
    while mat and col < m:
        nz = [r for r in mat if r[col] != 0]
        if not nz:
            col += 1
            continue
        while True:
            nz.sort(key=lambda r: abs(r[col]))
            p = nz[0]
            done = True
            for r in nz[1:]:
                q = r[col] // p[col]
                if q:
                    for i in range(m):
                        r[i] -= q * p[i]
                    done = False
            nz = [r for r in nz if r[col] != 0]
            if done and len(nz) == 1:
                break
            if not nz:
                break
        if nz:
            p = nz[0]
            if p[col] < 0:
                p = [-x for x in p]
            basis.append(p)
            rest = []
            for r in mat:
                q = r[col] // p[col] if p[col] else 0
                rr = [a - q * b for a, b in zip(r, p)]
                if any(rr):
                    rest.append(rr)
            mat = rest
        col += 1
    return np.array(basis, dtype=np.int64)


@dataclass(frozen=True)
class Mod2Class:
    """A coset of 2L in L, keyed by basis coordinates mod 2."""

    key: tuple[int, ...]
    kind: str  # zero | root-pair | frame
    representative: tuple[int, ...]
    min_vectors: tuple[tuple[int, ...], ...]


class RootLattice:
    """An ADE root lattice in a fixed integer coordinate model."""

    def __init__(self, name: str, kind: str, rank: int, ambient: int,
                 scale_sq: int, roots: np.ndarray):
        self.name = name
        self.kind = kind
        self.rank = rank
        self.ambient = ambient
        self.scale_sq = scale_sq
        order = np.lexsort(roots.T[::-1])
        self.roots = roots[order]
        expected = root_count(kind, rank)
        if len(self.roots) != expected:
            raise LatticeError(f"{name}: expected {expected} roots, built {len(self.roots)}")
        norms = (self.roots * self.roots).sum(axis=1)
        if not (norms == 2 * scale_sq).all():
            raise LatticeError(f"{name}: root norms are not 2")
        reps: dict[tuple[int, ...], None] = {}
        for r in map(tuple, self.roots.tolist()):
            reps.setdefault(max(r, tuple(-x for x in r)), None)
        self.pairs = np.array(sorted(reps), dtype=np.int64)
        self.pair_index = {tuple(p): i for i, p in enumerate(self.pairs.tolist())}
        self.basis = _hnf_basis(self.roots)
        if len(self.basis) != rank:
            raise LatticeError(f"{name}: roots span rank {len(self.basis)} != {rank}")
        # (numerator, denominator) of the inverse Gram matrix of the basis
        self.gram_inverse = inverse(self.basis @ self.basis.T)

    def __repr__(self) -> str:
        return f"RootLattice({self.name})"

    @property
    def npairs(self) -> int:
        return len(self.pairs)

    @property
    def coxeter_number(self) -> int:
        return len(self.roots) // self.rank

    def inner(self, u, v) -> Fraction:
        return Fraction(int(np.dot(u, v)), self.scale_sq)

    def is_root(self, v) -> bool:
        return tuple(v) in self.pair_index or tuple(-np.asarray(v)) in self.pair_index

    def pair_of(self, v) -> int:
        t = tuple(int(x) for x in v)
        m = max(t, tuple(-x for x in t))
        if m not in self.pair_index:
            raise LatticeError(f"{v} is not a root of {self.name}")
        return self.pair_index[m]

    def weyl_reflect(self, alpha, v) -> np.ndarray:
        """v - <v, alpha> alpha for a root alpha; exact integer output."""
        alpha = np.asarray(alpha, dtype=np.int64)
        if not self.is_root(alpha):
            raise LatticeError(f"{alpha} is not a root of {self.name}")
        v = np.asarray(v, dtype=np.int64)
        num = int(np.dot(v, alpha))
        if num % self.scale_sq:
            raise LatticeError("reflection argument is not a lattice vector")
        return v - (num // self.scale_sq) * alpha

    def coords(self, v) -> tuple[Fraction, ...]:
        """Coordinates of v in the lattice basis B (exact).

        They are c = G^-1 B v for the Gram matrix G = B B^T, and v is in the
        span exactly when c B rebuilds it.  Entries may be floats; they are
        read exactly, and all products are taken on Python ints.
        """
        v = [Fraction(int(x)) if isinstance(x, np.integer) else Fraction(x)
             for x in v]
        if len(v) != self.ambient:
            raise LatticeError("vector not in the lattice span")
        scale = lcm(*(x.denominator for x in v))
        vec = np.array([int(x * scale) for x in v], dtype=object)
        num, den = self.gram_inverse
        basis = self.basis.astype(object)
        c = num.astype(object) @ (basis @ vec)
        if (c @ basis != den * vec).any():
            raise LatticeError("vector not in the lattice span")
        return tuple(Fraction(x, den * scale) for x in c)

    def __contains__(self, v) -> bool:
        try:
            return all(c.denominator == 1 for c in self.coords(v))
        except LatticeError:
            return False

    def mod2_classes(self) -> list[Mod2Class]:
        """The 2^rank cosets of 2L, classified by minimal-norm vectors.

        One array pass over the vectors of norm <= 4: their coordinates
        mod 2 packed into one integer key per vector (first coordinate
        highest, so keys sort as the coordinate tuples do), and one sort by
        key, norm and vector; each key's minimal vectors are then the first
        run of its group, already in order.
        """
        found = short_vectors(_basis_gram(self), 4)
        coeffs = np.array([c for c, _ in found], dtype=np.int64).reshape(-1, self.rank)
        norms = np.array([int(n) for _, n in found], dtype=np.int64)
        vecs = coeffs @ self.basis
        parity = coeffs & 1
        keys = parity @ (1 << np.arange(self.rank - 1, -1, -1, dtype=np.int64))
        order = np.lexsort([*vecs.T[::-1], norms, keys])
        keys, norms, vecs, parity = keys[order], norms[order], vecs[order], parity[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        ends = np.append(starts[1:], len(keys))
        classes = [Mod2Class(tuple([0] * self.rank), "zero",
                             tuple([0] * self.ambient), ())]
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            if not keys[lo]:
                continue
            min_norm = int(norms[lo])
            count = int(np.count_nonzero(norms[lo:hi] == min_norm))
            arr = vecs[lo:lo + count]
            if min_norm == 2:
                kind = "root-pair"
                if count != 2:
                    raise LatticeError(f"root-pair class with {count} minimal vectors")
            else:
                kind = "frame"
                if count != 16:
                    raise LatticeError(f"frame class with {count} minimal vectors")
                if not np.isin((arr @ arr.T) // self.scale_sq, [-4, 0, 4]).all():
                    raise LatticeError("frame class minimal vectors are not a frame")
            mins = tuple(map(tuple, arr.tolist()))
            classes.append(Mod2Class(tuple(parity[lo].tolist()), kind, mins[-1], mins))
        if len(classes) != 1 << self.rank:
            raise LatticeError(f"found {len(classes)} cosets, expected {1 << self.rank}")
        return classes

    def class_of(self, v) -> Mod2Class:
        coeffs = self.coords(v)
        if any(c.denominator != 1 for c in coeffs):
            raise LatticeError(f"{v} is not in {self.name}")
        key = tuple(int(c) % 2 for c in coeffs)
        # mod2_classes holds all 2^rank keys
        return next(cl for cl in self.mod2_classes() if cl.key == key)


def _basis_gram(lattice: RootLattice) -> list[list[Fraction]]:
    """Gram matrix of the lattice basis: the integer basis . basis^T over scale_sq."""
    return [[Fraction(x, lattice.scale_sq) for x in row]
            for row in (lattice.basis @ lattice.basis.T).tolist()]


def _an_roots(n: int) -> np.ndarray:
    roots = []
    for i in range(n + 1):
        for j in range(n + 1):
            if i != j:
                v = [0] * (n + 1)
                v[i], v[j] = 1, -1
                roots.append(v)
    return np.array(roots, dtype=np.int64)


def _dn_roots(n: int) -> np.ndarray:
    roots = []
    for i, j in combinations(range(n), 2):
        for si, sj in product((1, -1), repeat=2):
            v = [0] * n
            v[i], v[j] = si, sj
            roots.append(v)
    return np.array(roots, dtype=np.int64)


def _e8_roots() -> np.ndarray:
    roots = []
    for i, j in combinations(range(8), 2):
        for si, sj in product((2, -2), repeat=2):
            v = [0] * 8
            v[i], v[j] = si, sj
            roots.append(v)
    for signs in product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(list(signs))
    return np.array(roots, dtype=np.int64)


def _e7_roots() -> np.ndarray:
    """Sum-zero model in Q^8: integer or all-half coordinates."""
    roots = []
    for i in range(8):
        for j in range(8):
            if i != j:
                v = [0] * 8
                v[i], v[j] = 2, -2
                roots.append(v)
    for plus in combinations(range(8), 4):
        v = [-1] * 8
        for i in plus:
            v[i] = 1
        roots.append(v)
    return np.array(roots, dtype=np.int64)


def _e6_roots() -> np.ndarray:
    """Model in Q^8 with x1+x8 = 0 and x2+...+x7 = 0."""
    roots = []
    for i in range(1, 7):
        for j in range(1, 7):
            if i != j:
                v = [0] * 8
                v[i], v[j] = 2, -2
                roots.append(v)
    roots.append([2, 0, 0, 0, 0, 0, 0, -2])
    roots.append([-2, 0, 0, 0, 0, 0, 0, 2])
    for s0 in (1, -1):
        for plus in combinations(range(1, 7), 3):
            v = [0] * 8
            v[0], v[7] = s0, -s0
            for i in range(1, 7):
                v[i] = 1 if i in plus else -1
            roots.append(v)
    return np.array(roots, dtype=np.int64)


def _code_frame_roots(code: gf2code.BinaryCode) -> np.ndarray:
    """Norm-4 vectors of the integer lift of a doubly even code, as stored roots."""
    n = code.length
    roots = []
    for i in range(n):
        for s in (2, -2):
            v = [0] * n
            v[i] = s
            roots.append(v)
    for w in code.words():
        if gf2code.weight(w) != 4:
            continue
        sup = [i for i in range(n) if (w >> i) & 1]
        for signs in product((1, -1), repeat=4):
            v = [0] * n
            for i, s in zip(sup, signs):
                v[i] = s
            roots.append(v)
    return np.array(roots, dtype=np.int64)


def build_lattice(tag: str) -> RootLattice:
    """Build the coordinate model of a catalog tag (see `dynkin.lattice_type`)."""
    tag = tag.upper()
    kind, rank = lattice_type(tag)
    if tag == "E8H":
        return RootLattice("E8H", "E", 8, 8, 2,
                           _code_frame_roots(gf2code.hamming8_code()))
    if kind == "E":
        roots = {6: _e6_roots, 7: _e7_roots, 8: _e8_roots}[rank]()
        return RootLattice(tag, "E", rank, 8, 4, roots)
    if tag.endswith("C"):
        code = gf2code.dual(gf2code.frame_pair_code(rank))
        return RootLattice(tag, "D", rank, rank, 2, _code_frame_roots(code))
    if kind == "A":
        return RootLattice(tag, "A", rank, rank + 1, 1, _an_roots(rank))
    return RootLattice(tag, "D", rank, rank, 1, _dn_roots(rank))


def norm_counts(lattice: RootLattice, bound, shift=None) -> dict[Fraction, int]:
    """Counts of (shift + L)-vectors by geometric norm, up to `bound` inclusive.

    `shift` is an ambient vector in the rational span of the lattice; when
    the coset holds the zero vector and `bound` >= 0, it counts with norm 0.
    """
    coords = None if shift is None else lattice.coords(shift)
    return theta_counts(_basis_gram(lattice), bound, coords)


def root_isometry(src: RootLattice, dst: RootLattice) -> np.ndarray | None:
    """An exact linear map (as a Fraction matrix) carrying src roots onto dst roots.

    Backtracking over images of a root basis of src, constrained by pairwise
    inner products.  Returns T with (stored src vector) @ T = stored dst vector.
    """
    if src.rank != dst.rank or len(src.roots) != len(dst.roots):
        return None
    basis: list[np.ndarray] = []
    for r in src.roots:
        cand = basis + [r]
        if len(rref(cand)[1]) == len(cand):
            basis.append(r)
        if len(basis) == src.rank:
            break
    gram = [[src.inner(a, b) for b in basis] for a in basis]
    dst_roots = [np.asarray(r) for r in dst.roots]
    dst_set = {tuple(r) for r in dst.roots.tolist()}
    images: list[np.ndarray] = []

    def extend(k: int) -> bool:
        if k == len(basis):
            return True
        for cand in dst_roots:
            if all(dst.inner(cand, images[i]) == gram[k][i] for i in range(k)):
                images.append(cand)
                if extend(k + 1):
                    return True
                images.pop()
        return False

    if not extend(0):
        return None
    # basis @ T = images: the RREF of [basis | images] puts row c of T at
    # each pivot column c; T is zero on the other rows
    red, pivots = rref([[*b, *im] for b, im in zip(basis, images)], src.ambient)
    tmat = [[Fraction(0)] * dst.ambient for _ in range(src.ambient)]
    for row, c in zip(red, pivots):
        tmat[c] = row[src.ambient:]
    # verify on all roots
    for r in src.roots:
        img = _apply_fraction_map(tmat, r)
        if any(x.denominator != 1 for x in img) or tuple(int(x) for x in img) not in dst_set:
            return None
    return tmat


def _apply_fraction_map(T, v):
    m_dst = len(T[0])
    out = [Fraction(0)] * m_dst
    for x, row in zip(v, T):
        if int(x):
            for j in range(m_dst):
                out[j] += int(x) * row[j]
    return out
