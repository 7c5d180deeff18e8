"""ADE root lattices in exact integer coordinate models.

Every model stores vectors as integer numpy arrays together with a
``scale_sq`` divisor: the geometric inner product of stored vectors u, v is
``(u . v) / scale_sq``.  This keeps half-integer models (the E-series) in
exact integer arithmetic.  All roots have geometric norm 2.  A model is
named by generators of its span; its roots are the norm-2 shell of that
span, enumerated by `short_vectors` on the span's HNF basis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import isqrt, lcm

import numpy as np

from . import gf2code
from .dynkin import LatticeError, lattice_type, root_count
from .exact import BLOCK_ROWS, int_product, inverse

# every integer matrix product here: bounded first, on BLAS where exact
_product = partial(int_product, error=LatticeError)


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
        self.gram_inverse = inverse(_product(self.basis, self.basis.T))

    def __repr__(self) -> str:
        return f"RootLattice({self.name})"

    @property
    def npairs(self) -> int:
        return len(self.pairs)

    @property
    def coxeter_number(self) -> int:
        return len(self.roots) // self.rank

    def pair_of(self, v) -> int:
        t = tuple(int(x) for x in v)
        m = max(t, tuple(-x for x in t))
        if m not in self.pair_index:
            raise LatticeError(f"{v} is not a root of {self.name}")
        return self.pair_index[m]

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

    def norm4_vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(basis coordinates, vectors, norms) of the nonzero vectors of
        norm <= 4: the roots, then the sums of orthogonal root pairs i < j
        (found BLOCK_ROWS roots i at a time, in row-major order) with
        duplicates removed exactly (1-D `np.unique` on each row's bytes in
        the narrowest integer type that holds them: no packed key to wrap),
        their coordinates summed by linearity.  Complete on E8: W(E8) is
        transitive on the 2,160 norm-4 vectors, keeps orthogonal roots
        orthogonal, and (2,0^7) = (1,1,0^6) + (1,-1,0^6).  On any lattice a
        missed vector fails the class checks of `mod2_classes`: the sums
        are closed under negation, so a frame class that lost a minimal
        vector has fewer than 16, and one that lost them all leaves fewer
        than 2^rank classes."""
        roots = self.roots
        num, den = self.gram_inverse
        coeffs = _product(roots, _product(num, self.basis).T) // den
        i, j = [], []
        for lo in range(0, len(roots), BLOCK_ROWS):
            bi, bj = np.nonzero(_product(roots[lo:lo + BLOCK_ROWS], roots.T) == 0)
            bi += lo
            i.append(bi[bj > bi])
            j.append(bj[bj > bi])
        i, j = np.concatenate(i), np.concatenate(j)
        narrow = roots.astype(np.min_scalar_type(-2 * int(np.abs(roots).max())))
        sums = narrow[i] + narrow[j]
        _, first = np.unique(sums.view(np.dtype((np.void, sums.itemsize * self.ambient)))
                             .ravel(), return_index=True)
        i, j = i[first], j[first]
        return (np.concatenate([coeffs, coeffs[i] + coeffs[j]]),
                np.concatenate([roots, roots[i] + roots[j]]),
                np.repeat([2, 4], [len(roots), len(i)]))

    def mod2_classes(self) -> list[Mod2Class]:
        """The 2^rank cosets of 2L, classified by minimal-norm vectors.

        One sort of `norm4_vectors` by (coordinates mod 2, norm, vector)
        puts each class's minimal vectors first in its run (none lies in
        2L, of minimum 8); the counts are checked over all classes at once,
        the frames BLOCK_ROWS classes at a time, and the first failure in
        key order is raised.  Each class turns only its own minimal
        vectors into tuples.
        """
        coeffs, vecs, norms = self.norm4_vectors()
        parity = coeffs & 1
        del coeffs
        order = np.lexsort([*vecs.T[::-1], norms, *parity.T[::-1]])
        parity, norms, vecs = parity[order], norms[order], vecs[order]
        starts = np.flatnonzero(np.diff(parity, axis=0, prepend=-1).any(axis=1))
        roots_in = np.add.reduceat(norms == 2, starts)
        counts = np.where(roots_in > 0, roots_in, np.diff(starts, append=len(norms)))
        frames = np.flatnonzero((roots_in == 0) & (counts == 16))
        bad = counts != np.where(roots_in > 0, 2, 16)
        for lo in range(0, len(frames), BLOCK_ROWS):
            block = frames[lo:lo + BLOCK_ROWS]
            arr = vecs[starts[block][:, None] + np.arange(16)]
            gram = _product(arr, arr, "fim,fjm->fij") // self.scale_sq
            bad[block] = ~((gram == 0) | (np.abs(gram) == 4)).all(axis=(1, 2))
        if bad.any():
            k = int(np.argmax(bad))
            if roots_in[k]:
                raise LatticeError(f"root-pair class with {counts[k]} minimal vectors")
            if counts[k] != 16:
                raise LatticeError(f"frame class with {counts[k]} minimal vectors")
            raise LatticeError("frame class minimal vectors are not a frame")
        classes = [Mod2Class(tuple([0] * self.rank), "zero",
                             tuple([0] * self.ambient), ())]
        for key, lo, count, paired in zip(parity[starts].tolist(), starts.tolist(),
                                          counts.tolist(), roots_in.tolist()):
            mins = tuple(map(tuple, vecs[lo:lo + count].tolist()))
            classes.append(Mod2Class(tuple(key), "root-pair" if paired else "frame",
                                     mins[-1], mins))
        if len(classes) != 1 << self.rank:
            raise LatticeError(f"found {len(classes)} cosets, expected {1 << self.rank}")
        return classes


def _gram(basis: np.ndarray, scale_sq: int) -> list[list[Fraction]]:
    """Gram matrix of a basis: the integer basis . basis^T over scale_sq."""
    return [[Fraction(x, scale_sq) for x in row]
            for row in _product(basis, basis.T).tolist()]


def _basis_gram(lattice: RootLattice) -> list[list[Fraction]]:
    return _gram(lattice.basis, lattice.scale_sq)


def _shell_roots(scale_sq: int, generators) -> np.ndarray:
    """The roots of the integer span of `generators`: its nonzero vectors of
    norm <= 2, found by `short_vectors` on the Gram matrix of the span's
    HNF basis and mapped back through that basis."""
    basis = _hnf_basis(np.array(generators, dtype=np.int64))
    coeffs = [x for x, _ in short_vectors(_gram(basis, scale_sq), 2)]
    return _product(np.array(coeffs, dtype=np.int64).reshape(-1, len(basis)), basis)


def short_vectors(gram, bound, shift=None) -> list[tuple[tuple[int, ...], Fraction]]:
    """Every (x, norm) with x an integer tuple and norm(x + shift) <= bound,
    for an exact rational Gram matrix and optional rational shift.

    Fincke-Pohst on integers (README: "How lattice vectors are enumerated").
    Sorted by x; when the shift is zero, x = 0 is left out.
    """
    bound = Fraction(bound)
    n = len(gram)
    s = lcm(*(Fraction(x).denominator for row in gram for x in row))
    shift = [Fraction(0)] * n if shift is None else [Fraction(c) for c in shift]
    m = lcm(*(c.denominator for c in shift))
    # reversed, so that coordinate 0 is the outermost level and the tuples
    # come out sorted; y = m (x + shift) is integral, s m^2 norm = y g y^T
    g = [[int(Fraction(x) * s) for x in row[::-1]] for row in gram[::-1]]
    t = [int(c * m) for c in shift[::-1]]
    L = [[Fraction(0)] * n for _ in range(n)]
    D = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            L[i][j] = (g[i][j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))) / D[j]
        D[i] = g[i][i] - sum((L[i][k] ** 2 * D[k] for k in range(i)), Fraction(0))
        if D[i] <= 0:
            raise LatticeError("Gram matrix is not positive definite")
    # s m^2 norm = sum D_i z_i^2 with z_i = y_i + sum_{k>i} L_ki y_k; the
    # integer T_i = den_i z_i has weight D_i / den_i^2, all weights and the
    # bound scaled by one integer
    dens = [lcm(*(L[k][i].denominator for k in range(i + 1, n))) for i in range(n)]
    weights = [D[i] / (dens[i] * m) ** 2 for i in range(n)]
    scale = lcm(Fraction(bound * s).denominator, *(w.denominator for w in weights))
    levels = []  # T_i = step x_i + base + sum of c x_k over (k, c) in coef
    for i in range(n):
        lint = [int(L[k][i] * dens[i]) for k in range(n)]
        base = dens[i] * t[i] + sum(lint[k] * t[k] for k in range(i + 1, n))
        coef = [(k, m * lint[k]) for k in range(i + 1, n) if lint[k]]
        levels.append((dens[i] * m, base, coef, int(weights[i] * scale)))
    budget = int(bound * s * scale)
    skip_origin = not any(t)
    xs = [0] * n
    found: list[tuple[tuple[int, ...], int]] = []

    def rec(i: int, rem: int):
        step, base, coef, w = levels[i]
        b = base + sum(c * xs[k] for k, c in coef)
        r = isqrt(rem // w)
        lo, hi = -((r + b) // step), (r - b) // step + 1
        if i:
            for x in range(lo, hi):
                xs[i] = x
                T = step * x + b
                rec(i - 1, rem - w * T * T)
        else:
            origin = skip_origin and not any(xs[1:])
            for x in range(lo, hi):
                if x or not origin:
                    xs[0] = x
                    T = step * x + b
                    found.append((tuple(xs[::-1]), rem - w * T * T))

    if budget >= 0:
        rec(n - 1, budget)
    norms = {left: Fraction(budget - left, s * scale) for left in {left for _, left in found}}
    return [(x, norms[left]) for x, left in found]


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
    """Counts of (shift + L)-vectors by geometric norm, up to `bound` inclusive,
    for an ambient `shift` in the rational span; the zero vector counts too."""
    coords = None if shift is None else lattice.coords(shift)
    counts = Counter(norm for _, norm in short_vectors(_basis_gram(lattice), bound, coords))
    if bound >= 0 and not any(coords or ()):
        counts[Fraction(0)] += 1
    return counts
