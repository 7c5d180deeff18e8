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

import numpy as np

from . import gf2code
from .exact import LeftSolver, rref


class LatticeError(ValueError):
    pass


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
        if kind == "A":
            expected = rank * (rank + 1)
        elif kind == "D":
            expected = 2 * rank * (rank - 1)
        else:
            expected = {6: 72, 7: 126, 8: 240}[rank]
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
        self._basis_solver = LeftSolver(self.basis.T)
        self._mod2 = None

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
        """Coordinates of v in the lattice basis (exact)."""
        coeffs = self._basis_solver.solve(v)
        if coeffs is None:
            raise LatticeError("vector not in the lattice span")
        return tuple(coeffs)

    def __contains__(self, v) -> bool:
        try:
            return all(c.denominator == 1 for c in self.coords(v))
        except LatticeError:
            return False

    def mod2_classes(self) -> list[Mod2Class]:
        """The 2^rank cosets of 2L, classified by minimal-norm vectors."""
        if self._mod2 is not None:
            return self._mod2
        gram = [[self.inner(a, b) for b in self.basis] for a in self.basis]
        buckets: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
        for coeffs, norm in _enumerate_short(gram, Fraction(4)):
            key = tuple(c % 2 for c in coeffs)
            vec = tuple(int(x) for x in np.asarray(coeffs, dtype=np.int64) @ self.basis)
            buckets.setdefault(key, []).append((vec, int(norm)))
        classes = [Mod2Class(tuple([0] * self.rank), "zero",
                             tuple([0] * self.ambient), ())]
        for key in sorted(buckets):
            if all(k == 0 for k in key):
                continue
            vecs = buckets[key]
            min_norm = min(n for _, n in vecs)
            mins = tuple(sorted(v for v, n in vecs if n == min_norm))
            if min_norm == 2:
                kind = "root-pair"
                if len(mins) != 2:
                    raise LatticeError(f"root-pair class with {len(mins)} minimal vectors")
            else:
                kind = "frame"
                if len(mins) != 16:
                    raise LatticeError(f"frame class with {len(mins)} minimal vectors")
                arr = np.array(mins, dtype=np.int64)
                g = arr @ arr.T
                if not np.isin(g // self.scale_sq, [-4, 0, 4]).all():
                    raise LatticeError("frame class minimal vectors are not a frame")
            classes.append(Mod2Class(key, kind, max(mins), mins))
        if len(classes) != 1 << self.rank:
            raise LatticeError(f"found {len(classes)} cosets, expected {1 << self.rank}")
        self._mod2 = classes
        return classes

    def class_of(self, v) -> Mod2Class:
        coeffs = self.coords(v)
        if any(c.denominator != 1 for c in coeffs):
            raise LatticeError(f"{v} is not in {self.name}")
        key = tuple(int(c) % 2 for c in coeffs)
        for cl in self.mod2_classes():
            if cl.key == key:
                return cl
        raise LatticeError("class lookup failed")


def _enumerate_short(gram, bound: Fraction, shift=None):
    """Fincke-Pohst enumeration of x (+ shift) with norm <= bound.

    `gram` is an exact rational Gram matrix; yields (coeff tuple, norm) with
    coeffs integers, one representative per +-pair when shift is None.
    """
    n = len(gram)
    # exact LDL^T decomposition
    L = [[Fraction(0)] * n for _ in range(n)]
    D = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            s = gram[i][j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))
            L[i][j] = s / D[j]
        D[i] = gram[i][i] - sum(L[i][k] ** 2 * D[k] for k in range(i))
        if D[i] <= 0:
            raise LatticeError("Gram matrix is not positive definite")
        L[i][i] = Fraction(1)
    shift = [Fraction(0)] * n if shift is None else [Fraction(s) for s in shift]
    shift_zero = all(s == 0 for s in shift)
    out = []
    coeffs_full = [Fraction(0)] * n

    def rec(i: int, rem: Fraction, coeffs: list[int]):
        if i < 0:
            if shift_zero and all(c == 0 for c in coeffs):
                return
            out.append((tuple(reversed(coeffs)), bound - rem))
            return
        # center for coordinate i given the already-chosen higher coordinates
        center = -shift[i] - sum(L[k][i] * (coeffs_full[k] + shift[k])
                                 for k in range(i + 1, n))
        radius = _fsqrt_upper(rem / D[i])
        c = _ceil_fr(center - radius)
        while Fraction(c) <= center + radius:
            coeffs_full[i] = Fraction(c)
            used = D[i] * (Fraction(c) - center) ** 2
            if used <= rem:
                coeffs.append(c)
                rec(i - 1, rem - used, coeffs)
                coeffs.pop()
            c += 1

    rec(n - 1, bound, [])
    return sorted(out)


def _fsqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound for sqrt(x), tight to ~1e-9."""
    if x < 0:
        return Fraction(-1)
    f = float(x)
    r = Fraction(int((f ** 0.5 + 1e-9) * 10 ** 9) + 2, 10 ** 9)
    while r * r < x:
        r += Fraction(1, 10 ** 6)
    return r


def _ceil_fr(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


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
    """Build a catalog lattice: A1..A8, D2..D12, E6, E7, E8, E8H, D4C/D6C/D8C."""
    tag = tag.upper()
    if not tag:
        raise LatticeError("empty lattice tag")
    if tag == "E8":
        return RootLattice("E8", "E", 8, 8, 4, _e8_roots())
    if tag == "E7":
        return RootLattice("E7", "E", 7, 8, 4, _e7_roots())
    if tag == "E6":
        return RootLattice("E6", "E", 6, 8, 4, _e6_roots())
    if tag == "E8H":
        return RootLattice("E8H", "E", 8, 8, 2,
                           _code_frame_roots(gf2code.hamming8_code()))
    if tag.endswith("C") and tag.startswith("D"):
        m = int(tag[1:-1])
        if m % 2 or m < 4:
            raise LatticeError(f"code-frame model needs even rank >= 4, got {tag}")
        code = gf2code.dual(gf2code.frame_pair_code(m))
        return RootLattice(tag, "D", m, m, 2, _code_frame_roots(code))
    kind, num = tag[0], tag[1:]
    if kind == "A" and num.isdigit() and int(num) >= 1:
        n = int(num)
        return RootLattice(tag, "A", n, n + 1, 1, _an_roots(n))
    if kind == "D" and num.isdigit() and int(num) >= 2:
        n = int(num)
        return RootLattice(tag, "D", n, n, 1, _dn_roots(n))
    raise LatticeError(f"unknown lattice tag {tag!r}")


@dataclass(frozen=True)
class SublatticeEmbedding:
    name: str
    ambient: RootLattice
    sub_roots: tuple[np.ndarray, ...]
    components: tuple[tuple[np.ndarray, ...], ...]
    glue: tuple[int, ...] | None
    alpha0: tuple[int, ...] | None


def sublattice_embedding(name: str) -> SublatticeEmbedding:
    """Explicit coordinate models for the sublattice chains used downstream."""
    if name == "A1_E7_in_E8":
        amb = build_lattice("E8")
        alpha0 = max(map(tuple, amb.roots.tolist()))
        a0 = np.array(alpha0, dtype=np.int64)
        perp = tuple(r for r in amb.roots if int(np.dot(r, a0)) == 0)
        axis = (a0, -a0)
        if len(perp) != 126:
            raise LatticeError("orthogonal complement of a root must have 126 roots")
        return SublatticeEmbedding(name, amb, axis + perp, (axis, perp), None, alpha0)
    if name == "A7_in_E7_with_xi":
        amb = build_lattice("E7")
        sub = tuple(r for r in amb.roots if not (r % 2).any())
        if len(sub) != 56:
            raise LatticeError("integer-coordinate roots of the sum-zero model must be A7")
        xi = (1, 1, 1, 1, -1, -1, -1, -1)
        return SublatticeEmbedding(name, amb, sub, (sub,), xi, None)
    if name == "A5_A1_in_E6_with_xi":
        amb = build_lattice("E6")
        l1 = tuple(r for r in amb.roots
                   if not (r % 2).any() and r[0] == 0 and r[7] == 0)
        l2 = tuple(r for r in amb.roots if not (r % 2).any() and r[0] != 0)
        if len(l1) != 30 or len(l2) != 2:
            raise LatticeError("A5 + A1 split of the E6 model failed")
        xi = (1, 1, 1, 1, -1, -1, -1, -1)
        return SublatticeEmbedding(name, amb, l1 + l2, (l1, l2), xi, None)
    raise LatticeError(f"unknown embedding {name!r}")


def norm_counts(lattice: RootLattice, bound, shift=None) -> dict[Fraction, int]:
    """Counts of (shift + L)-vectors by geometric norm, up to `bound` inclusive.

    `shift` is an ambient vector in the rational span of the lattice; without
    it the zero vector is included with norm 0.
    """
    gram = [[lattice.inner(a, b) for b in lattice.basis] for a in lattice.basis]
    shift_coords = None
    if shift is not None:
        shift_coords = lattice.coords(shift)
    counts: dict[Fraction, int] = {}
    for _, norm in _enumerate_short(gram, Fraction(bound), shift=shift_coords):
        counts[norm] = counts.get(norm, 0) + 1
    if shift is None:
        counts[Fraction(0)] = counts.get(Fraction(0), 0) + 1
    return counts


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
