"""ADE root lattices in exact integer coordinate models.

Every model stores vectors as integer numpy arrays together with a
``scale_sq`` divisor: the geometric inner product of stored vectors u, v is
``(u . v) / scale_sq``.  This keeps half-integer models (the E-series) in
exact integer arithmetic.  All roots have geometric norm 2.  A model is
named by generators of its span; its roots are the norm-2 shell of that
span, enumerated by `dynkin.short_vectors` on the span's HNF basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _gram(basis: np.ndarray, scale_sq: int) -> list[list[Fraction]]:
    """Gram matrix of a basis: the integer basis . basis^T over scale_sq."""
    return [[Fraction(x, scale_sq) for x in row] for row in (basis @ basis.T).tolist()]


def _basis_gram(lattice: RootLattice) -> list[list[Fraction]]:
    return _gram(lattice.basis, lattice.scale_sq)


def _shell_roots(scale_sq: int, generators) -> np.ndarray:
    """The roots of the integer span of `generators`: its nonzero vectors of
    norm <= 2, found by `short_vectors` on the Gram matrix of the span's
    HNF basis and mapped back through that basis."""
    basis = _hnf_basis(np.array(generators, dtype=np.int64))
    coeffs = [x for x, _ in short_vectors(_gram(basis, scale_sq), 2)]
    return np.array(coeffs, dtype=np.int64).reshape(-1, len(basis)) @ basis


def build_lattice(tag: str) -> RootLattice:
    """Build the coordinate model of a catalog tag (see `dynkin.lattice_type`).

    Each model is named by generators of its span (README: "How the lattice
    models are built"): simple roots, glue vectors, and for a code frame
    2e_i plus the 0/1 lift of each code generator.
    """
    tag = tag.upper()
    kind, rank = lattice_type(tag)
    if tag == "E8H" or tag.endswith("C"):
        code = (gf2code.hamming8_code() if tag == "E8H"
                else gf2code.dual(gf2code.frame_pair_code(rank)))
        n, scale_sq = code.length, 2
        gens = [*2 * np.eye(n, dtype=np.int64),
                *([(g >> i) & 1 for i in range(n)] for g in code.generators)]
    else:
        n = 8 if kind == "E" else rank + (kind == "A")
        # row i is e_i - e_{i+1}; the last row, e_{n-1}, is used by no model
        chain = np.eye(n, dtype=np.int64) - np.eye(n, k=1, dtype=np.int64)
        if kind == "E":
            # stored coordinates are twice the geometric ones
            scale_sq, glue = 4, [1, 1, 1, 1, -1, -1, -1, -1]
            gens = {8: [*2 * chain[:7], 2 * np.abs(chain[6]), [1] * 8],
                    7: [*2 * chain[:7], glue],
                    6: [*2 * chain[1:6], [2, 0, 0, 0, 0, 0, 0, -2], glue]}[rank]
        else:
            scale_sq, gens = 1, list(chain[:-1])
            if kind == "D":
                gens.append(np.abs(chain[n - 2]))  # e_{n-2} + e_{n-1}
    return RootLattice(tag, kind, rank, n, scale_sq, _shell_roots(scale_sq, gens))


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
