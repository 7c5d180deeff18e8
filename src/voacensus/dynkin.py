"""ADE lattices as integer Cartan data, and the one short-vector enumeration.

A catalog lattice tag names a Dynkin type (kind, rank); the Gram matrix of
its simple roots is the Cartan matrix of that type, and the theta series of
the lattice depends on nothing else.  So the lattice characters are read
off `cartan_matrix` through `theta_counts`, with no coordinate model and no
numpy; `rootlat` builds the coordinate models from the same tag grammar and
enumerates their mod-2 classes with the same kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm


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


def cartan_matrix(kind: str, rank: int) -> list[list[int]]:
    """The Cartan matrix: 2 on the diagonal, -1 for each edge of the diagram.

    A_n is a path of n nodes.  D_n and E_n are a path of n - 1 nodes with one
    more node joined to path node n - 3 (D; none for D2 = A1 + A1) or to
    path node 2 (E).
    """
    path = rank if kind == "A" else rank - 1
    edges = [(i, i + 1) for i in range(path - 1)]
    branch = {"A": -1, "D": rank - 3, "E": 2}[kind]
    if branch >= 0:
        edges.append((branch, rank - 1))
    cartan = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        cartan[i][j] = cartan[j][i] = -1
    return cartan


def short_vectors(gram, bound, shift=None) -> list[tuple[tuple[int, ...], Fraction]]:
    """Every (x, norm) with x an integer tuple and norm(x + shift) <= bound.

    Sorted by x; when the shift is zero, x = 0 is left out and x and -x
    both appear.
    """
    den, budget, found = _fincke_pohst(gram, bound, shift, collect=True)
    norms = {left: Fraction(budget - left, den) for left in {left for _, left in found}}
    return [(x, norms[left]) for x, left in found]


def theta_counts(gram, bound, shift=None) -> dict[Fraction, int]:
    """Counts by norm of the vectors of shift + L with norm <= bound.

    Every vector counts, the zero vector too when the coset holds it.  The
    search counts scaled integer norms; each distinct norm becomes one
    Fraction.
    """
    den, budget, found = _fincke_pohst(gram, bound, shift, collect=False)
    return {Fraction(budget - left, den): c for left, c in found.items()}


def _fincke_pohst(gram, bound, shift, collect: bool):
    """Fincke-Pohst enumeration of the vectors x + shift with norm <= bound.

    `gram` is an exact rational Gram matrix, `shift` optional rational
    coordinates.  The search is on integers (README: "How lattice vectors
    are enumerated"): level i admits the x_i with |T_i| <= isqrt(rem // w_i),
    and a vector's scaled norm is budget - rem at the leaf, over one common
    denominator.  Returns (denominator, budget, found): `found` lists
    (x, rem) sorted by x, leaving out x = 0 for a zero shift, when
    `collect`; otherwise it maps each rem to its count, origin included.
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
    vectors: list[tuple[tuple[int, ...], int]] = []
    counts: dict[int, int] = {}

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
        elif collect:
            origin = skip_origin and not any(xs[1:])
            for x in range(lo, hi):
                if x or not origin:
                    xs[0] = x
                    T = step * x + b
                    vectors.append((tuple(xs[::-1]), rem - w * T * T))
        else:
            for T in range(step * lo + b, step * hi + b, step):
                left = rem - w * T * T
                counts[left] = counts.get(left, 0) + 1

    if budget >= 0:
        rec(n - 1, budget)
    return s * scale, budget, vectors if collect else counts
