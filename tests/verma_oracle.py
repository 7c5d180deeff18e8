"""Independent oracle: graded dimensions of irreducible Virasoro modules.

Computes the level-N Gram matrix of the contravariant form on a Verma module
by exact commutator arithmetic and takes its rank over Q.  This route never
touches the alternating-sum character formula it is used to check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def partitions(n: int, maxpart: int | None = None) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    if maxpart is None:
        maxpart = n
    out = []
    for first in range(min(n, maxpart), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return out


class VermaModule:
    """Verma module with exact raising/lowering action on partition states."""

    def __init__(self, c: Fraction, h: Fraction):
        self.c = Fraction(c)
        self.h = Fraction(h)
        self._raise_cache: dict[tuple[int, tuple[int, ...]], dict] = {}

    # states: dict partition -> Fraction
    def lower(self, n: int, state: dict) -> dict:
        out: dict[tuple[int, ...], Fraction] = {}
        for lam, coeff in state.items():
            for mu, c2 in self._lower_one(n, lam).items():
                out[mu] = out.get(mu, Fraction(0)) + coeff * c2
        return {k: v for k, v in out.items() if v}

    def _lower_one(self, n: int, lam: tuple[int, ...]) -> dict:
        # insert L_{-n} in front of L_{-lam} v, reordering to descending parts
        if not lam or n >= lam[0]:
            return {(n,) + lam: Fraction(1)}
        # L_{-n} L_{-m} = L_{-m} L_{-n} + (m - n) L_{-(n+m)}
        m = lam[0]
        rest = lam[1:]
        out: dict[tuple[int, ...], Fraction] = {}
        for mu, c2 in self._lower_one(n, rest).items():
            out[(m,) + mu] = out.get((m,) + mu, Fraction(0)) + c2
        for mu, c2 in self._lower_one(n + m, rest).items():
            out[mu] = out.get(mu, Fraction(0)) + (m - n) * c2
        return {k: v for k, v in out.items() if v}

    def raise_(self, n: int, state: dict) -> dict:
        out: dict[tuple[int, ...], Fraction] = {}
        for lam, coeff in state.items():
            for mu, c2 in self._raise_one(n, lam).items():
                out[mu] = out.get(mu, Fraction(0)) + coeff * c2
        return {k: v for k, v in out.items() if v}

    def _raise_one(self, n: int, lam: tuple[int, ...]) -> dict:
        key = (n, lam)
        if key in self._raise_cache:
            return self._raise_cache[key]
        if not lam:
            result: dict[tuple[int, ...], Fraction] = {}
        else:
            m = lam[0]
            rest = lam[1:]
            result = {}
            # L_n L_{-m} = L_{-m} L_n + (n+m) L_{n-m} + delta (n^3-n)/12 c
            for mu, c2 in self._raise_one(n, rest).items():
                for nu, c3 in self._lower_one(m, mu).items():
                    result[nu] = result.get(nu, Fraction(0)) + c2 * c3
            k = n - m
            if k > 0:
                for mu, c2 in self._raise_one(k, rest).items():
                    result[mu] = result.get(mu, Fraction(0)) + (n + m) * c2
            elif k == 0:
                level = sum(rest)
                scal = (n + m) * (self.h + level)
                result[rest] = result.get(rest, Fraction(0)) + scal
            else:
                for mu, c2 in self._lower_one(-k, rest).items():
                    result[mu] = result.get(mu, Fraction(0)) + (n + m) * c2
            if n == m:
                scal = Fraction(n ** 3 - n, 12) * self.c
                result[rest] = result.get(rest, Fraction(0)) + scal
            result = {k2: v for k2, v in result.items() if v}
        self._raise_cache[key] = result
        return result

    def shapovalov(self, lam: tuple[int, ...], mu: tuple[int, ...]) -> Fraction:
        state = {mu: Fraction(1)}
        for part in lam:
            state = self.raise_(part, state)
            if not state:
                return Fraction(0)
        return state.get((), Fraction(0))

    def irreducible_dim(self, level: int) -> int:
        """Rank of the level-`level` Gram matrix = graded dim of the quotient."""
        basis = partitions(level)
        gram = [[self.shapovalov(a, b) for b in basis] for a in basis]
        return _rank(gram)


def _rank(mat: list[list[Fraction]]) -> int:
    mat = [row[:] for row in mat]
    rows = len(mat)
    if rows == 0:
        return 0
    cols = len(mat[0])
    rank = 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        rank += 1
        r += 1
    return rank


@lru_cache(maxsize=None)
def irreducible_dims(c_num: int, c_den: int, h_num: int, h_den: int,
                     depth: int) -> tuple[int, ...]:
    vm = VermaModule(Fraction(c_num, c_den), Fraction(h_num, h_den))
    return tuple(vm.irreducible_dim(n) for n in range(depth + 1))


def unitary_central_charge(m: int) -> Fraction:
    """c = 1 - 6/((m+2)(m+3)) of the degree-m unitary minimal model."""
    return 1 - Fraction(6, (m + 2) * (m + 3))
