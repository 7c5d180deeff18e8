"""Oracle for `dynkin.theta`: theta series counted on the Cartan matrix.

The Gram matrix of the simple roots of an ADE lattice is the Cartan matrix
of its Dynkin type, so Fincke-Pohst on that matrix counts the lattice
vectors by norm with no coordinate model at all.  The rank-7 coset behind
the E7 chain is the A7 Cartan matrix with the shift omega_4.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from voacensus.dynkin import LatticeError

# the glue [4] of A7 in E7: the fundamental weight omega_4 in simple-root
# coordinates, so that E7 = A7 + (omega_4 + A7)
OMEGA4 = (Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(3, 2), 1, Fraction(1, 2))


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


def theta_counts(gram, bound, shift=None) -> dict[Fraction, int]:
    """Counts by norm of the vectors of shift + L with norm <= bound.

    Every vector counts, the zero vector too when the coset holds it.  The
    search counts scaled integer norms; each distinct norm becomes one
    Fraction.
    """
    den, budget, found = _fincke_pohst(gram, bound, shift)
    return {Fraction(budget - left, den): c for left, c in found.items()}


def _fincke_pohst(gram, bound, shift):
    """Fincke-Pohst count of the vectors x + shift with norm <= bound.

    `gram` is an exact rational Gram matrix, `shift` optional rational
    coordinates.  The search is on integers: level i admits the x_i with
    |T_i| <= isqrt(rem // w_i), and a vector's scaled norm is budget - rem
    at the leaf, over one common denominator.  Returns (denominator,
    budget, found): `found` maps each rem to its count, origin included.
    """
    bound = Fraction(bound)
    n = len(gram)
    s = lcm(*(Fraction(x).denominator for row in gram for x in row))
    shift = [Fraction(0)] * n if shift is None else [Fraction(c) for c in shift]
    m = lcm(*(c.denominator for c in shift))
    # reversed, so that coordinate 0 is the outermost level;
    # y = m (x + shift) is integral, s m^2 norm = y g y^T
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
    xs = [0] * n
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
        else:
            for T in range(step * lo + b, step * hi + b, step):
                left = rem - w * T * T
                counts[left] = counts.get(left, 0) + 1

    if budget >= 0:
        rec(n - 1, budget)
    return s * scale, budget, counts
