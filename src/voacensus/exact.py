"""Exact linear algebra over the rationals, built on one elimination routine.

`rref` is the only Gauss-Jordan elimination in the package.  Kernels and
inverses read their answers off one call to it each, and the reduced row
echelon form is unique, so every basis they return is canonical.  Exact
coordinates over a lattice or quadratic basis are read off a Gram inverse
(see `rootlat.RootLattice.coords` and `griess.GriessAlgebra.expand`).
Entries may be Python ints, Fractions or numpy integers; numpy integers are
turned into Python ints first, because Fraction(np.int64(x)) keeps the
fixed-width type and its arithmetic would wrap silently.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np


def _exact(x) -> Fraction:
    return Fraction(int(x)) if isinstance(x, np.integer) else Fraction(x)


def rref(rows, ncols=None) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of `rows` and its pivot columns.

    Pivots are taken first-nonzero on the first `ncols` columns (all columns
    by default); the columns after them are carried along, as in an
    augmented matrix.  Rows that end up zero are dropped, so the pivot rows
    come first and any remaining rows are zero on the first `ncols` columns.
    """
    work = [[_exact(x) for x in row] for row in rows]
    if not work:
        return [], []
    ncols = len(work[0]) if ncols is None else ncols
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        top = work[r] = [x * inv for x in work[r]]
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                work[i] = [x - f * y if y else x for x, y in zip(row, top)]
        pivots.append(c)
        if len(pivots) == len(work):
            break
    return [row for row in work if any(row)], pivots


def kernel(rows) -> list[list[Fraction]]:
    """Reduced row echelon basis of {x : rows @ x = 0}, from one elimination.

    The columns are eliminated in reverse order, so a column is a pivot
    exactly when it is independent of the columns to its right.  Each free
    column f is then a combination of pivot columns right of f: the vector
    read off for f has its first nonzero, 1, at f and 0 at every other free
    column.  Listed by f, these vectors are the kernel's unique RREF.
    """
    n = len(rows[0])
    red, pivots = rref([row[::-1] for row in rows])
    pivots = [n - 1 - p for p in pivots]
    out = []
    for free in sorted(set(range(n)) - set(pivots)):
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row, c in zip(red, pivots):
            vec[c] = -row[n - 1 - free]
        out.append(vec)
    return out


def inverse(mat) -> tuple[np.ndarray, int]:
    """Inverse of a square integer matrix as (integer numerator, denominator)."""
    n = len(mat)
    red, pivots = rref([[*row, *(int(i == j) for j in range(n))]
                        for i, row in enumerate(mat)], n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    entries = [row[n:] for row in red]
    den = lcm(*(x.denominator for row in entries for x in row))
    num = np.array([[int(x * den) for x in row] for row in entries], dtype=np.int64)
    return num, den
