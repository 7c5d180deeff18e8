"""Root-lattice helpers that only the tests use.

The inner product, the root check and the Weyl reflection of a stored
`RootLattice` model, a class lookup that classifies the cosets of 2L once,
and an exact isometry between two models found by backtracking over the
images of a root basis.  `root_isometry` and `weyl_reflect` are kept as
they were in `rootlat`; the lookup reads the key off `coords`, as
`RootLattice.class_of` did, against one `mod2_classes()` call.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from voacensus.exact import rref
from voacensus.rootlat import LatticeError, RootLattice


def inner(lattice: RootLattice, u, v) -> Fraction:
    return Fraction(int(np.dot(u, v)), lattice.scale_sq)


def is_root(lattice: RootLattice, v) -> bool:
    return (tuple(v) in lattice.pair_index
            or tuple(-np.asarray(v)) in lattice.pair_index)


def weyl_reflect(lattice: RootLattice, alpha, v) -> np.ndarray:
    """v - <v, alpha> alpha for a root alpha; exact integer output."""
    alpha = np.asarray(alpha, dtype=np.int64)
    if not is_root(lattice, alpha):
        raise LatticeError(f"{alpha} is not a root of {lattice.name}")
    v = np.asarray(v, dtype=np.int64)
    num = int(np.dot(v, alpha))
    if num % lattice.scale_sq:
        raise LatticeError("reflection argument is not a lattice vector")
    return v - (num // lattice.scale_sq) * alpha


def class_lookup(lattice: RootLattice):
    """v -> the `Mod2Class` of v + 2L, from one `mod2_classes()` call."""
    by_key = {cl.key: cl for cl in lattice.mod2_classes()}

    def class_of(v):
        coeffs = lattice.coords(v)
        if any(c.denominator != 1 for c in coeffs):
            raise LatticeError(f"{v} is not in {lattice.name}")
        return by_key[tuple(int(c) % 2 for c in coeffs)]

    return class_of


def root_isometry(src: RootLattice, dst: RootLattice) -> list[list[Fraction]] | None:
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
    gram = [[inner(src, a, b) for b in basis] for a in basis]
    dst_roots = [np.asarray(r) for r in dst.roots]
    dst_set = {tuple(r) for r in dst.roots.tolist()}
    images: list[np.ndarray] = []

    def extend(k: int) -> bool:
        if k == len(basis):
            return True
        for cand in dst_roots:
            if all(inner(dst, cand, images[i]) == gram[k][i] for i in range(k)):
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
        img = apply_fraction_map(tmat, r)
        if any(x.denominator != 1 for x in img) or tuple(int(x) for x in img) not in dst_set:
            return None
    return tmat


def apply_fraction_map(T, v) -> list[Fraction]:
    m_dst = len(T[0])
    out = [Fraction(0)] * m_dst
    for x, row in zip(v, T):
        if int(x):
            for j in range(m_dst):
                out[j] += int(x) * row[j]
    return out
