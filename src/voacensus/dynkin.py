"""ADE lattice types and their theta series.

A catalog lattice tag names a Dynkin type (kind, rank), and the theta series
of the lattice depends on nothing else.  So the lattice characters are read
off `theta`, which counts on the textbook coordinate model of the type
(Conway-Sloane, SPLAG ch. 4) one coordinate at a time, with no numpy;
`rootlat` builds the coordinate models of the Griess algebras from the same
tag grammar.
"""

from __future__ import annotations

from math import isqrt
from operator import add


class LatticeError(ValueError):
    pass


_E_TAGS = ("E6", "E7", "E8", "E8H")
# the smallest rank of each infinite family
_MIN_RANK = {"A": 1, "D": 2}


def lattice_type(tag: str) -> tuple[str, int]:
    """(kind, rank) of a catalog tag: A1.., D2.., E6, E7, E8, E8H (E8 in the
    Hamming code frame), and DmC (Dm in a code frame) for even m >= 4."""
    tag = tag.upper()
    if not tag:
        raise LatticeError("empty lattice tag")
    if tag in _E_TAGS:
        return "E", int(tag[1])
    kind, num = tag[0], tag[1:]
    if kind == "D" and num.endswith("C"):
        try:
            m = int(num[:-1])
        except ValueError:
            raise LatticeError(f"unknown lattice tag {tag!r}") from None
        if m % 2 or m < 4:
            raise LatticeError(f"code-frame model needs even rank >= 4, got {tag}")
        return "D", m
    if kind in _MIN_RANK and num.isdecimal() and int(num) >= _MIN_RANK[kind]:
        return kind, int(num)
    raise LatticeError(f"unknown lattice tag {tag!r}")


def root_count(kind: str, rank: int) -> int:
    if kind == "A":
        return rank * (rank + 1)
    if kind == "D":
        return 2 * rank * (rank - 1)
    return {6: 72, 7: 126, 8: 240}[rank]


def theta(kind: str, rank: int, upto: int) -> dict[int, int]:
    """Counts by norm of the lattice vectors of norm <= upto, zero included
    (README: "How lattice theta series are counted").

    D_n is the even-sum vectors of Z^n.  E8 is the y/2 with y in (2Z)^8 or
    (2Z+1)^8 and sum(y) = 0 mod 4, on a grid of quarter norms; E7 and E6
    tie x_0 = x_1 and x_0 = x_1 = x_2 into one block.  A_n + Z(1, ..., 1)
    is the sum(x) = 0 mod n+1 part of Z^(n+1), so A_n divides out
    sum_k q^((n+1) k^2).
    """
    if upto < 0:
        return {}
    if kind == "E":
        top = 4 * upto
        blocks = [9 - rank] + [1] * (rank - 1)
        even, odd = (_sum_residue_zero(blocks, 4, top, parity) for parity in (0, 1))
        return {m // 4: a + b for m, (a, b) in enumerate(zip(even, odd)) if a + b}
    if kind == "D":
        counts = _sum_residue_zero([1] * rank, 2, upto)
    else:
        n = rank + 1
        counts = _sum_residue_zero([1] * n, n, upto)
        # counts = theta_A * (1 + 2 sum_{k>=1} q^(n k^2)), solved in place
        for m in range(n, upto + 1):
            counts[m] -= 2 * sum(counts[m - n * k * k] for k in range(1, isqrt(m // n) + 1))
    return {m: c for m, c in enumerate(counts) if c}


def _sum_residue_zero(blocks, modulus, top, parity=None) -> list[int]:
    """counts[m], m <= top, of the y with one coordinate per block size c,
    sum c y = 0 mod modulus and sum c y^2 = m, every y of the given parity
    (any when None): one block at a time, one int list per residue."""
    rows = {0: [1] + [0] * top}
    for c in blocks:
        r = isqrt(top // c)
        new: dict[int, list[int]] = {}
        for y in range(-r, r + 1):
            if parity is not None and y % 2 != parity:
                continue
            s = c * y * y
            for res, row in rows.items():
                dst = new.setdefault((res + c * y) % modulus, [0] * (top + 1))
                dst[s:] = map(add, dst[s:], row)
        rows = new
    return rows.get(0, [0] * (top + 1))
