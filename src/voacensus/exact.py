"""Exact linear algebra over the rationals, built on one elimination routine.

`rref` is the only Gauss-Jordan elimination in the package.  Kernels and
inverses read their answers off one call to it each, and the reduced row
echelon form is unique, so every basis they return is canonical.  Exact
coordinates over a lattice or quadratic basis are read off a Gram inverse
(see `rootlat.RootLattice.coords` and `griess.GriessAlgebra.expand`).
Entries may be Python ints, Fractions or numpy integers; numpy integers are
turned into Python ints first, because Fraction(np.int64(x)) keeps the
fixed-width type and its arithmetic would wrap silently.

`int_product` is the one integer matrix product of `griess` and `rootlat`:
it checks its bound before it multiplies, and takes BLAS where float64 is
exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np


_ZERO = Fraction(0)
# int64 arithmetic is refused when a result may reach this in magnitude
INT_GUARD = 1 << 62
# every integer of magnitude up to 2^53 is a float64
FLOAT_EXACT = 1 << 53
# rows per block of a stage over a whole point batch or an n x n table (the
# canonical form, the Gram, the sigma-table and the Fischer checks): a stage
# holds its result and block-sized temporaries, never a whole-batch one
BLOCK_ROWS = 64


def _product_dtype(bound: int, error: type[Exception]) -> type:
    """The dtype a product runs in when every partial sum it forms is at
    most `bound` in magnitude: float64 below 2^53, where each partial sum is
    an integer float64 holds exactly, in any summation order; int64 below
    INT_GUARD; past that, `error`."""
    if bound >= INT_GUARD:
        raise error("operands too large for exact int64 arithmetic")
    return np.float64 if bound < FLOAT_EXACT else np.int64


def _mag(x: np.ndarray) -> int:
    """The largest |entry| of an integer array, on Python ints (abs of the
    int64 minimum would wrap)."""
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def int_product(a, b, subscripts: str | None = None, *,
                error: type[Exception]) -> np.ndarray:
    """a @ b, or np.einsum(subscripts, a, b), of integer arrays, as int64.

    The bound k max|a| max|b|, k the number of terms in each output sum (the
    inner length of a matmul; the product of the summed labels' sizes of an
    einsum), dominates every partial sum, and is computed on Python ints
    before anything is multiplied.  It alone picks the path (see
    `_product_dtype`): below 2^53 the operands go to float64 and a matmul to
    BLAS, whose thread count and summation order cannot change an exact
    result; below INT_GUARD the product runs in int64.
    """
    a, b = np.asarray(a), np.asarray(b)
    if subscripts is None:
        k = a.shape[-1]
    else:
        inputs, out = subscripts.split("->")
        sizes = {}
        for labels, x in zip(inputs.split(","), (a, b)):
            sizes.update(zip(labels, x.shape))
        k = prod(size for label, size in sizes.items() if label not in out)
    dtype = _product_dtype(k * _mag(a) * _mag(b), error)
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    out = np.matmul(a, b) if subscripts is None else np.einsum(subscripts, a, b)
    return out.astype(np.int64, copy=False)


def _int_row(row) -> list[int]:
    """Integers R with row == R / d entry by entry, d the lcm of the
    entries' denominators."""
    row = [x if isinstance(x, (int, Fraction)) else
           int(x) if isinstance(x, np.integer) else Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def rref(rows, ncols=None) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of `rows` and its pivot columns.

    Pivots are taken first-nonzero on the first `ncols` columns (all columns
    by default); the columns after them are carried along, as in an
    augmented matrix.  Only the pivot rows are returned: every other row
    ends up zero on the first `ncols` columns and is dropped, whatever it
    holds in the carried ones.

    Each row's denominators are cleared once and the elimination runs on
    Python ints, each updated row divided by the gcd of its entries.  An
    integer row is a nonzero multiple of the row Fraction Gauss-Jordan holds
    at that point, so the pivots and zero patterns agree; a pivot row is
    divided by its pivot only when it is read off.
    """
    work = [_int_row(row) for row in rows]
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
        top = work[r]
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                g = gcd(top[c], f)
                p, f = top[c] // g, f // g
                new = [p * x - f * y for x, y in zip(row, top)]
                g = gcd(*new) or 1
                work[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        if len(pivots) == len(work):
            break
    return [[Fraction(x, row[c]) if x else _ZERO for x in row]
            for row, c in zip(work, pivots)], pivots


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
