"""Fraction Gauss-Jordan elimination, the reference for `exact.rref`.

This is the elimination `exact.rref` ran before it cleared denominators and
eliminated on integers, kept as it was: every row is normalised by its
pivot and every update is a Fraction combination.  It shares no arithmetic
with `exact`, so the tests compare the two on random rational matrices.
`in_span` tests membership of a Griess element in the row space of a
kernel basis that `exact.kernel` returned.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _exact(x) -> Fraction:
    return Fraction(int(x)) if isinstance(x, np.integer) else Fraction(x)


def fraction_rref(rows, ncols=None) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivots, with `exact.rref`'s conventions."""
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


def in_span(alg, v, echelon: list[list[Fraction]]) -> bool:
    """Membership of the element v of `alg` in the row space of a reduced
    echelon basis over its labeled basis.

    In reduced form the coefficient of each row is v's entry at the
    row's pivot, so v is in the span iff it equals that combination.
    """
    vec = alg.expand(v)
    combo = [Fraction(0)] * len(vec)
    for row in echelon:
        f = vec[next(i for i, x in enumerate(row) if x)]
        if f:
            combo = [a + f * b for a, b in zip(combo, row)]
    return combo == vec
