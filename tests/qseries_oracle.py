"""Reference q-series: a sparse map from Fraction exponents to coefficients.

This is the dictionary form `qchar.QSeries` had before it moved to an
integer grid.  Every operation works term by term on exact exponents, with
no grid, offsets or canonical form, so the tests use it as the oracle for
the grid arithmetic.  The checks on affine characters and the boson factor
of the branching rule, which only the tests use, live here too.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from voacensus import qchar


class OracleError(ValueError):
    pass


class QSeries:
    """Sparse exact power series in q with rational exponents."""

    __slots__ = ("coeffs", "cutoff")

    def __init__(self, coeffs: dict, cutoff):
        cut = Fraction(cutoff)
        self.coeffs = {Fraction(e): int(c) for e, c in coeffs.items()
                       if c != 0 and Fraction(e) <= cut}
        self.cutoff = cut

    def coefficient(self, expo) -> int:
        e = Fraction(expo)
        if e > self.cutoff:
            raise OracleError(f"exponent {e} beyond validity bound {self.cutoff}")
        return self.coeffs.get(e, 0)

    def min_exponent(self) -> Fraction:
        return min(self.coeffs) if self.coeffs else Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def denom(self) -> int:
        """Exponent granularity: lcm of exponent denominators."""
        if not self.coeffs:
            return 1
        return lcm(*[e.denominator for e in self.coeffs])

    def items(self):
        return sorted(self.coeffs.items())

    def __add__(self, other: "QSeries") -> "QSeries":
        cut = min(self.cutoff, other.cutoff)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return QSeries(out, cut)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-1) * other

    def __rmul__(self, scalar: int) -> "QSeries":
        return QSeries({e: scalar * c for e, c in self.coeffs.items()}, self.cutoff)

    def __mul__(self, other: "QSeries") -> "QSeries":
        cut = min(self.cutoff + other.min_exponent(),
                  other.cutoff + self.min_exponent())
        out: dict[Fraction, int] = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                e = ea + eb
                if e <= cut:
                    out[e] = out.get(e, 0) + ca * cb
        return QSeries(out, cut)

    def shift(self, delta) -> "QSeries":
        d = Fraction(delta)
        return QSeries({e + d: c for e, c in self.coeffs.items()}, self.cutoff + d)

    def truncate(self, cutoff) -> "QSeries":
        return QSeries(self.coeffs, min(self.cutoff, Fraction(cutoff)))

    def first_mismatch(self, other: "QSeries"):
        """The smallest exponent (within both bounds) where the series differ."""
        bound = min(self.cutoff, other.cutoff)
        expos = {e for e in self.coeffs if e <= bound}
        expos |= {e for e in other.coeffs if e <= bound}
        for e in sorted(expos):
            if self.coeffs.get(e, 0) != other.coeffs.get(e, 0):
                return e
        return None


def z_symmetric(two: qchar.TwoVarSeries) -> bool:
    """Every z-slice of an affine character is symmetric under z -> -z."""
    return all(sl.get(z, 0) == sl.get(-z, 0) for sl in two.slices for z in sl)


def top_term_ok(two: qchar.TwoVarSeries) -> bool:
    """The top (depth 0) carries z^spin with multiplicity one."""
    return two.slices[0].get(two.spin, 0) == 1


def coset_boson_factor(level: int, charge: int, upto) -> qchar.QSeries:
    """Character of the charge sector of the rank-1 lattice boson factor."""
    out: dict[Fraction, int] = {}
    for e, c in qchar._alternating_terms(
            lambda k: ((Fraction((charge + 2 * level * k) ** 2, 4 * level), 1),),
            upto):
        out[e] = out.get(e, 0) + c
    theta = qchar.QSeries(out, upto)
    return (theta * qchar.euler_power(-1, int(upto) + 1)).truncate(upto)
