"""Exact linear algebra over the rationals, built on one elimination routine.

`rref` is the only Gauss-Jordan elimination in the package.  Kernels,
inverses and left solves read their answers off its output, and the reduced
row echelon form is unique, so every basis they return is canonical.
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
    """Basis of {x : rows @ x = 0}, one vector per free column of the RREF."""
    red, pivots = rref(rows)
    ncols = len(rows[0])
    out = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, c in zip(red, pivots):
            vec[c] = -row[free]
        out.append(vec)
    return out


def _with_identity(mat) -> list[list]:
    n = len(mat)
    return [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(mat)]


def inverse(mat) -> tuple[np.ndarray, int]:
    """Inverse of a square integer matrix as (integer numerator, denominator)."""
    n = len(mat)
    red, pivots = rref(_with_identity(mat), n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    entries = [row[n:] for row in red]
    den = lcm(*(x.denominator for row in entries for x in row))
    num = np.array([[int(x * den) for x in row] for row in entries], dtype=np.int64)
    return num, den


class LeftSolver:
    """Exact solutions x of A x = b for a fixed full-column-rank matrix A.

    Eliminating [A | I] gives a left inverse of A in the pivot rows and a
    basis of the left null space of A in the rows after them.
    """

    def __init__(self, a):
        n = len(a[0])
        red, pivots = rref(_with_identity(a), n)
        if len(pivots) != n:
            raise ValueError("matrix is not of full column rank")
        self._lift = [row[n:] for row in red[:n]]
        self._null = [row[n:] for row in red[n:]]

    def solve(self, b) -> list[Fraction] | None:
        """The unique x with A x = b, or None when b is off the column span."""
        b = [_exact(x) for x in b]
        if any(_dot(row, b) for row in self._null):
            return None
        return [_dot(row, b) for row in self._lift]


def _dot(row, vec) -> Fraction:
    return sum((x * y for x, y in zip(row, vec) if y), Fraction(0))
