"""Exact truncated q-series characters: graded dimensions and branching checks.

A QSeries lives on an integer grid: coefficient i sits at exponent
base + i/den, with `base` a Fraction, `den` an int and the coefficients one
tuple of Python ints.  Each series has an inclusive validity bound:
coefficients at exponents <= cutoff are correct, larger exponents are
unknown.  No floating point appears anywhere.

The lattice characters (`vfull`, `vplus`, the rank-7 coset) read their
theta series off the Cartan matrix of the Dynkin type (`dynkin`), so every
character here runs without numpy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import dynkin


class QSeriesError(ValueError):
    pass


class QSeries:
    """Exact power series in q with rational exponents, on an integer grid.

    Coefficient i of `coeffs` sits at exponent base + i/den.  The form is
    canonical after every operation: the first and last coefficients are
    nonzero, none lies past the cutoff, and den is coprime to the indices
    of the nonzero coefficients.  So a series ends at its last nonzero
    coefficient, not at its cutoff, and the lcm of its exponents'
    denominators is lcm(base.denominator, den).  The zero series has base
    0, den 1 and no coefficients.
    """

    __slots__ = ("base", "den", "coeffs", "cutoff")

    def __init__(self, terms: dict, cutoff):
        """The series of an exponent -> coefficient map."""
        cut = Fraction(cutoff)
        terms = {e: c for e, c in ((Fraction(e), int(c)) for e, c in terms.items())
                 if c and e <= cut}
        base = min(terms, default=Fraction(0))
        den = lcm(*[(e - base).denominator for e in terms])
        coeffs = [0] * (int((max(terms, default=base) - base) * den) + 1)
        for e, c in terms.items():
            coeffs[int((e - base) * den)] = c
        self._assign(base, den, coeffs, cut)

    @classmethod
    def grid(cls, base, den: int, coeffs, cutoff) -> "QSeries":
        """The series with coefficient coeffs[i] at exponent base + i/den."""
        series = cls.__new__(cls)
        series._assign(Fraction(base), den, coeffs, Fraction(cutoff))
        return series

    def _assign(self, base: Fraction, den: int, coeffs, cut: Fraction) -> None:
        """Store the canonical form: trim to the cutoff, strip zeros at both
        ends, then coarsen the grid by the gcd of the nonzero indices."""
        hi = min(len(coeffs), (cut - base) * den // 1 + 1) if base <= cut else 0
        while hi and not coeffs[hi - 1]:
            hi -= 1
        lo = 0
        while lo < hi and not coeffs[lo]:
            lo += 1
        if lo == hi:
            base, den, coeffs = Fraction(0), 1, ()
        else:
            coeffs = tuple(coeffs[lo:hi])
            if lo:
                base += Fraction(lo, den)
            step = den
            for i, c in enumerate(coeffs):
                if step == 1:
                    break
                if c and i % step:
                    step = gcd(step, i)
            if step > 1:
                coeffs = coeffs[::step]
                den //= step
        self.base = base
        self.den = den
        self.coeffs = coeffs
        self.cutoff = cut

    # -- inspection ---------------------------------------------------------
    def coefficient(self, expo) -> int:
        e = Fraction(expo)
        if e > self.cutoff:
            raise QSeriesError(f"exponent {e} beyond validity bound {self.cutoff}")
        i = (e - self.base) * self.den
        if i.denominator != 1 or not 0 <= i < len(self.coeffs):
            return 0
        return self.coeffs[int(i)]

    def min_exponent(self) -> Fraction:
        return self.base

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def denom(self) -> int:
        """Exponent granularity: lcm of exponent denominators."""
        return lcm(self.base.denominator, self.den) if self.coeffs else 1

    def items(self):
        return [(self.base + Fraction(i, self.den), c)
                for i, c in enumerate(self.coeffs) if c]

    def nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other: "QSeries") -> "QSeries":
        cut = min(self.cutoff, other.cutoff)
        if not (self.coeffs and other.coeffs):
            s = self if self.coeffs else other
            return QSeries.grid(s.base, s.den, s.coeffs, cut)
        base = min(self.base, other.base)
        den = lcm(self.den, other.den, (self.base - other.base).denominator)
        # (coefficients, offset, stride) of each summand on the common grid
        spans = [(s.coeffs, int((s.base - base) * den), den // s.den)
                 for s in (self, other)]
        out = [0] * max(off + step * len(c) for c, off, step in spans)
        for c, off, step in spans:
            end = off + step * len(c)
            out[off:end:step] = [o + x for o, x in zip(out[off:end:step], c)]
        return QSeries.grid(base, den, out, cut)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-1) * other

    def __rmul__(self, scalar: int) -> "QSeries":
        return QSeries.grid(self.base, self.den, [scalar * c for c in self.coeffs],
                            self.cutoff)

    def __mul__(self, other: "QSeries") -> "QSeries":
        """Truncated convolution on the common grid of the two factors."""
        # a zero factor enters the bound with base 0, its min_exponent
        cut = min(self.cutoff + other.base, other.cutoff + self.base)
        base = self.base + other.base
        if not self.coeffs or not other.coeffs or base > cut:
            return QSeries.grid(0, 1, (), cut)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        # the list ends at the cutoff or at the product's last term
        top = min((cut - base) * den // 1,
                  sa * (len(self.coeffs) - 1) + sb * (len(other.coeffs) - 1))
        out = [0] * (top + 1)
        right = other.coeffs
        for i, ca in enumerate(self.coeffs):
            k = i * sa
            if k > top:
                break
            if ca:
                n = min(len(right), (top - k) // sb + 1)
                end = k + sb * n
                out[k:end:sb] = [o + ca * cb for o, cb in zip(out[k:end:sb], right)]
        return QSeries.grid(base, den, out, cut)

    def shift(self, delta) -> "QSeries":
        d = Fraction(delta)
        return QSeries.grid(self.base + d, self.den, self.coeffs, self.cutoff + d)

    def truncate(self, cutoff) -> "QSeries":
        return QSeries.grid(self.base, self.den, self.coeffs,
                            min(self.cutoff, Fraction(cutoff)))

    # -- comparison --------------------------------------------------------------
    def first_mismatch(self, other: "QSeries"):
        """The smallest exponent (within both bounds) where the series differ.

        The difference is valid through the smaller bound and starts at its
        first nonzero coefficient.
        """
        diff = self - other
        return diff.base if diff.coeffs else None

    def __repr__(self) -> str:
        items = self.items()
        terms = ", ".join(f"{c}*q^{e}" for e, c in items[:6])
        return f"QSeries({terms}{', ...' if len(items) > 6 else ''}; <= {self.cutoff})"


def one(cutoff) -> QSeries:
    return QSeries.grid(0, 1, (1,), cutoff)


# ---------------------------------------------------------------------------
# eta-type products on the integer grid

def euler_power(ell: int, cutoff: int) -> QSeries:
    """prod_{n>=1} (1 - q^n)^ell for a signed ell."""
    return _product_power(ell, cutoff, 1)


def twisted_inverse_power(ell: int, cutoff: int) -> QSeries:
    """prod_{n>=1} (1 + q^n)^(-ell), which is prod over odd n of (1 - q^n)^ell."""
    return _product_power(ell, cutoff, 2)


def _product_power(ell: int, cutoff: int, step: int, _start=(1,)) -> QSeries:
    """`_start` times the prod over n = 1, 1 + step, ... of (1 - q^n)^ell."""
    N = int(cutoff)
    p = list(_start) + [0] * (N + 1 - len(_start))
    for _ in range(abs(ell)):
        for n in range(1, N + 1, step):
            if ell > 0:     # multiply by 1 - q^n, top coefficient first
                for m in range(N, n - 1, -1):
                    p[m] -= p[m - n]
            else:           # divide by 1 - q^n, bottom coefficient first
                for m in range(n, N + 1):
                    p[m] += p[m - n]
    return QSeries.grid(0, 1, p, N)


# ---------------------------------------------------------------------------
# unitary minimal-model data and characters

def _alternating_terms(terms, bound):
    """The terms of an alternating sum over k = 0, 1, -1, 2, -2, ... up to `bound`.

    `terms(k)` lists tuples whose first entry is an exponent; those at most
    `bound` are yielded.  Exponents grow quadratically in |k|, so the walk
    ends at the first k > 0 where neither k nor -k has a term in range.
    """
    k = 0
    while True:
        kept = [t for kk in ((k, -k) if k else (0,)) for t in terms(kk)
                if t[0] <= bound]
        if k and not kept:
            return
        yield from kept
        k += 1


def unitary_central_charge(m: int) -> Fraction:
    return 1 - Fraction(6, (m + 2) * (m + 3))


def unitary_weight(m: int, r: int, s: int) -> Fraction:
    if m < 0:
        raise QSeriesError(f"degree {m} is negative")
    if not (1 <= r <= m + 1 and 1 <= s <= m + 2):
        raise QSeriesError(f"(r,s)=({r},{s}) outside the degree-{m} table")
    return Fraction((r * (m + 3) - s * (m + 2)) ** 2 - 1, 4 * (m + 2) * (m + 3))


@lru_cache(maxsize=None)
def minimal_character(m: int, r: int, s: int, upto: int) -> QSeries:
    """Graded dimension of the irreducible (m+2, m+3) module at (r, s).

    Alternating sum over the embedding lattice divided by the Euler product;
    leading exponent is the conformal weight, no vacuum-energy shift.
    """
    p, pp = m + 2, m + 3
    h = unitary_weight(m, r, s)
    depth = int(upto - h) if upto >= h else -1
    if depth < 0:
        return QSeries({}, Fraction(upto))
    # every exponent is a nonnegative integer: (r, s) lies inside the table
    numer = [0] * (depth + 1)
    for e, c in _alternating_terms(
            lambda k: ((p * pp * k * k + k * (r * pp - s * p), 1),
                       (p * pp * k * k + k * (r * pp + s * p) + r * s, -1)),
            depth):
        numer[e] += c
    return _product_power(-1, depth, 1, numer).shift(h).truncate(upto)


# ---------------------------------------------------------------------------
# lattice characters

def vfull_character(tag: str, upto: int) -> QSeries:
    """Graded dimension of the doubled-lattice vertex algebra.

    The theta series comes from the Cartan matrix of the tag's Dynkin type;
    its norm-2 count must be the root count of that type.
    """
    kind, rank = dynkin.lattice_type(tag)
    counts = dynkin.theta_counts(dynkin.cartan_matrix(kind, rank), max(upto, 2))
    roots, expected = counts.get(Fraction(2), 0), dynkin.root_count(kind, rank)
    if roots != expected:
        raise dynkin.LatticeError(f"{tag}: expected {expected} roots, counted {roots}")
    return _lattice_character(counts, rank, upto)


def _lattice_character(counts: dict[Fraction, int], rank: int, upto: int) -> QSeries:
    """The theta series with these norm counts over the rank-fold Euler product."""
    theta = QSeries(counts, upto)
    return (theta * euler_power(-rank, upto)).truncate(upto)


def vplus_character(tag: str, upto: int) -> QSeries:
    """Graded dimension of the involution-fixed subalgebra."""
    untwisted = vfull_character(tag, upto)
    twisted = twisted_inverse_power(dynkin.lattice_type(tag)[1], upto)
    both = untwisted + twisted
    for i, c in enumerate(both.coeffs):
        if c % 2:
            raise QSeriesError("odd combined multiplicity at exponent "
                               f"{both.base + Fraction(i, both.den)}")
    return QSeries.grid(both.base, both.den, [c // 2 for c in both.coeffs],
                        both.cutoff)


# ---------------------------------------------------------------------------
# level-ell affine sl2 characters and parafermion branching

class TwoVarSeries:
    """z-Laurent slices per integer depth above the lowest weight."""

    def __init__(self, level: int, spin: int, slices: list[dict[int, int]]):
        self.level = level
        self.spin = spin
        self.slices = slices
        self.h = Fraction(spin * (spin + 2), 4 * (level + 2))

    def z_slice(self, k: int) -> QSeries:
        """Depth series of the z^k component (offset none, integer grid)."""
        return QSeries.grid(0, 1, [sl.get(k, 0) for sl in self.slices],
                            len(self.slices) - 1)

    def specialize_z1(self) -> QSeries:
        return QSeries.grid(self.h, 1, [sum(sl.values()) for sl in self.slices],
                            self.h + len(self.slices) - 1)


def _theta_slices(level: int, weight: int, qmax: int) -> list[dict[int, int]]:
    """Slices of the alternating sum at (level, weight), integer q-grid."""
    slices: list[dict[int, int]] = [dict() for _ in range(qmax + 1)]
    for e, z, c in _alternating_terms(
            lambda k: ((level * k * k + weight * k, weight + 2 * level * k, 1),
                       (level * k * k - weight * k, -weight + 2 * level * k, -1)),
            qmax):
        slices[e][z] = slices[e].get(z, 0) + c
    return slices


def _lpoly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for za, ca in a.items():
        for zb, cb in b.items():
            z = za + zb
            out[z] = out.get(z, 0) + ca * cb
    return {z: c for z, c in out.items() if c}


def _lpoly_divide(num: dict[int, int], den: dict[int, int]) -> dict[int, int]:
    """Exact division of z-Laurent polynomials; raises on nonzero remainder."""
    num = dict(num)
    quot: dict[int, int] = {}
    lead = max(den)
    lc = den[lead]
    while num:
        top = max(num)
        c = num[top]
        if c % lc:
            raise QSeriesError("non-exact Laurent division")
        q = c // lc
        shift = top - lead
        quot[shift] = quot.get(shift, 0) + q
        for z, cc in den.items():
            zz = z + shift
            num[zz] = num.get(zz, 0) - q * cc
            if num[zz] == 0:
                del num[zz]
    return quot


@lru_cache(maxsize=None)
def affine_sl2_character(level: int, spin: int, depth: int) -> TwoVarSeries:
    """Integrable level-`level` character with z tracking the Cartan weight.

    Quotient of alternating theta sums, computed slice by slice on the
    integer depth grid; depth 0 carries the finite character of the top.
    """
    if level < 0:
        raise QSeriesError(f"level {level} is negative")
    if not (0 <= spin <= level):
        raise QSeriesError(f"spin {spin} outside 0..{level}")
    N = _theta_slices(level + 2, spin + 1, depth)
    D = _theta_slices(2, 1, depth)
    ch: list[dict[int, int]] = []
    for n in range(depth + 1):
        acc = dict(N[n])
        for i in range(1, n + 1):
            if D[i]:
                prod = _lpoly_mul(D[i], ch[n - i])
                for z, c in prod.items():
                    acc[z] = acc.get(z, 0) - c
                    if acc[z] == 0:
                        del acc[z]
        ch.append(_lpoly_divide(acc, D[0]))
    return TwoVarSeries(level, spin, ch)


def w_character(level: int, spin: int, charge: int, upto) -> QSeries:
    """Graded dimension of the branching module W(spin, charge).

    Extracted from the z^charge slice of the affine character, divided by the
    free-boson coset factor; absolute conformal grading.  Parity-violating
    labels yield the structural zero series.
    """
    if not (0 <= spin <= level and 0 <= charge < 2 * level):
        raise QSeriesError(f"invalid branching label ({spin},{charge}) at level {level}")
    if (spin + charge) % 2:
        return QSeries({}, Fraction(upto))
    h = Fraction(spin * (spin + 2), 4 * (level + 2))
    offset = h - Fraction(charge * charge, 4 * level)
    depth = int(Fraction(upto) - offset) + 1
    two = affine_sl2_character(level, spin, depth)
    sliced = two.z_slice(charge)
    series = sliced * euler_power(1, depth)
    return series.shift(offset).truncate(upto)


def parafermion_central_charge(level: int) -> Fraction:
    return Fraction(2 * (level - 1), level + 2)


# ---------------------------------------------------------------------------
# tower characters over the A-series

def man_character(N: int, twos: int, upto: int) -> QSeries:
    """Vacuum-tower module character: nested sum of minimal-model products.

    Sum over even label chains 0 = k_0, k_1, ..., k_N = twos (k_j <= j + 1) of
    the products of minimal_character(j, k_{j-1} + 1, k_j + 1), walked left to
    right: live[k] sums the partial products ending in label k.  The bound is
    that of the term-by-term sum: a chain that meets a zero factor stops, and
    its bound at that point enters the result's.  Only the last step depends
    on `twos`, so the walk through step N - 1 is shared by every label.
    """
    if N < 1:
        raise QSeriesError(f"tower length {N} is below 1")
    if not (0 <= twos <= N + 1):
        raise QSeriesError(f"label {twos} outside 0..{N + 1}")
    if twos % 2:
        raise QSeriesError("label must be even")
    live, bound = _tower_prefix(N - 1, upto)
    live, bound = _tower_step(live, bound, N, (twos,), upto)
    return dict(live).get(twos, QSeries({}, upto)).truncate(bound)


@lru_cache(maxsize=None)
def _tower_prefix(n: int, upto: int) -> tuple[tuple[tuple[int, QSeries], ...], Fraction]:
    """The tower walk through step n over every label: the (label, partial
    sum) pairs still live, and the running bound of the chains stopped."""
    live: tuple = ((0, one(upto)),)
    bound = Fraction(upto)
    for j in range(1, n + 1):
        live, bound = _tower_step(live, bound, j, range(0, j + 2, 2), upto)
    return live, bound


def _tower_step(live, bound: Fraction, j: int, labels, upto: int):
    """Multiply each live partial sum by the step-j factor into each label."""
    step: dict[int, QSeries] = {}
    for b in labels:
        for a, prefix in live:
            prod = prefix * minimal_character(j, a + 1, b + 1, upto)
            if prod.is_zero():
                bound = min(bound, prod.cutoff)
            else:
                step[b] = step[b] + prod if b in step else prod
    return tuple(step.items()), bound


# ---------------------------------------------------------------------------
# the decomposition report

def _check(name: str, lhs: QSeries, rhs: QSeries, bound=None) -> dict:
    if bound is not None:
        lhs = lhs.truncate(bound)
        rhs = rhs.truncate(bound)
    mism = lhs.first_mismatch(rhs)
    return {"identity": name,
            "status": "pass" if mism is None else "fail",
            "compared_up_to": str(min(lhs.cutoff, rhs.cutoff)),
            "first_mismatch": None if mism is None else str(mism)}


def _coeff_check(name: str, series: QSeries, expo, expect: int) -> dict:
    got = series.coefficient(expo)
    return {"identity": name,
            "status": "pass" if got == expect else "fail",
            "compared_up_to": str(series.cutoff),
            "first_mismatch": None if got == expect else f"{expo} -> {got}"}


def me7_display_character(upto: int, man7=None) -> QSeries:
    """The printed three-term commutant character over the rank-7 chain.

    `man7`, if given, maps the labels 0, 4 and 8 to their rank-7 tower
    characters at `upto`.
    """
    if man7 is None:
        man7 = {twos: man_character(7, twos, upto) for twos in (0, 4, 8)}
    l0 = minimal_character(2, 1, 1, upto)      # c = 7/10, h = 0
    l35 = minimal_character(2, 1, 3, upto)     # h = 3/5
    return (man7[0] * l0 + man7[4] * l35 + man7[8] * l0).truncate(upto)


_ME6_LINES = (
    (0, ((Fraction(0), Fraction(0)), (Fraction(15, 2), Fraction(1, 2)))),
    (2, ((Fraction(13, 4), Fraction(0)), (Fraction(3, 4), Fraction(1, 2)))),
    (4, ((Fraction(3, 4), Fraction(0)), (Fraction(13, 4), Fraction(1, 2)))),
    (6, ((Fraction(15, 2), Fraction(0)), (Fraction(0), Fraction(1, 2)))),
)


def _minimal_at_weight(m: int, h: Fraction, upto: int) -> QSeries:
    """The degree-m minimal character of conformal weight h."""
    for r in range(1, m + 2):
        for s in range(1, m + 3):
            if unitary_weight(m, r, s) == h:
                return minimal_character(m, r, s, upto)
    raise QSeriesError(f"weight {h} not in the degree-{m} table")


def _me6_blocks(upto: int) -> dict[int, QSeries]:
    """Label -> sum of (c=25/28 at h1) * (Ising at h2) over its line of
    _ME6_LINES."""
    return {twos: sum((_minimal_at_weight(5, h1, upto) * _minimal_at_weight(1, h2, upto)
                       for h1, h2 in parts), QSeries({}, upto))
            for twos, parts in _ME6_LINES}


def me6_display_character(upto: int, blocks=None) -> QSeries:
    """The printed four-line commutant character over the rank-6 chain;
    `blocks`, if given, is `_me6_blocks(upto)`."""
    if blocks is None:
        blocks = _me6_blocks(upto)
    return sum((man_character(5, twos, upto) * block for twos, block in blocks.items()),
               QSeries({}, upto))


def com_ma4_display_character(upto: int) -> QSeries:
    """The printed eight-term character of the depth-4 commutant chain."""
    triples = (
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(3, 4), Fraction(13, 4), Fraction(0)),
        (Fraction(13, 4), Fraction(3, 4), Fraction(0)),
        (Fraction(15, 2), Fraction(15, 2), Fraction(0)),
        (Fraction(0), Fraction(15, 2), Fraction(1, 2)),
        (Fraction(3, 4), Fraction(3, 4), Fraction(1, 2)),
        (Fraction(13, 4), Fraction(13, 4), Fraction(1, 2)),
        (Fraction(15, 2), Fraction(0), Fraction(1, 2)),
    )
    return sum((_minimal_at_weight(5, a, upto) * _minimal_at_weight(5, b, upto)
                * _minimal_at_weight(1, c, upto) for a, b, c in triples),
               QSeries({}, upto))


def com_ma4_substituted_character(upto: int, blocks=None) -> QSeries:
    """The same commutant assembled through the nested branching rule;
    `blocks`, if given, is `_me6_blocks(upto)`."""
    if blocks is None:
        blocks = _me6_blocks(upto)
    return sum((minimal_character(5, 1, twos + 1, upto) * block
                for twos, block in blocks.items()), QSeries({}, upto))


def u_factor_character(twos: int, upto: int) -> QSeries:
    """The two-sided c=7/10 module attached to an even tower label."""
    pairs = {
        0: ((Fraction(0), Fraction(0)), (Fraction(3, 2), Fraction(3, 2))),
        2: ((Fraction(3, 5), Fraction(3, 5)), (Fraction(1, 10), Fraction(1, 10))),
        4: ((Fraction(0), Fraction(3, 5)), (Fraction(3, 2), Fraction(1, 10)),
            (Fraction(3, 5), Fraction(0)), (Fraction(1, 10), Fraction(3, 2))),
        6: ((Fraction(3, 5), Fraction(3, 5)), (Fraction(1, 10), Fraction(1, 10))),
        8: ((Fraction(0), Fraction(0)), (Fraction(3, 2), Fraction(3, 2))),
    }
    return sum((_minimal_at_weight(2, h1, upto) * _minimal_at_weight(2, h2, upto)
                for h1, h2 in pairs[twos]), QSeries({}, upto))


def verify_decompositions(depth: int = 8) -> list[dict]:
    """Every character identity of the branching section, checked exactly.

    Constituent series are computed with two spare levels so that every
    comparison is valid through `depth` levels above its leading exponent.
    """
    checks: list[dict] = []
    upto = depth + 2

    # tower resolution of the doubled A-series lattices
    for N in (2, 3):
        rhs = QSeries({}, upto)
        for twos in range(0, N + 2, 2):
            rhs = rhs + man_character(N, twos, upto) * \
                w_character(N + 1, twos, 0, upto)
        checks.append(_check(f"tower_resolution_A{N}",
                             vfull_character(f"A{N}", upto), rhs, bound=depth))

    # rank-7 chain inside the sum-zero model: the coset, the E7 resolution,
    # the U factors and the ME7 display share these labels and branching series
    labels = range(0, 10, 2)
    man7 = {twos: man_character(7, twos, upto) for twos in labels}
    w8 = {twos: w_character(8, twos, 8, upto) for twos in labels}
    w08 = {twos: w_character(8, twos, 0, upto) + w8[twos] for twos in labels}
    coset = _coset_a7_character(upto)
    rhs = sum((man7[twos] * w8[twos] for twos in labels), QSeries({}, upto))
    checks.append(_check("shifted_coset_A7", coset, rhs,
                         bound=coset.min_exponent() + depth))

    rhs_full = sum((man7[twos] * w08[twos] for twos in labels), QSeries({}, upto))
    checks.append(_check("E7_resolution", vfull_character("E7", upto), rhs_full,
                         bound=depth))

    u = {twos: u_factor_character(twos, upto) for twos in labels}
    for twos in labels:
        checks.append(_check(f"U_factor_{twos}", w08[twos], u[twos],
                             bound=w08[twos].min_exponent() + depth))
    checks.append(_check("U0_equals_U8", u[0], u[8], bound=depth))

    # the q^2 checks need upto >= 3 (me7 at upto 2 is valid through 12/7)
    dim_upto = max(upto, 3)
    me7 = me7_display_character(dim_upto, man7 if dim_upto == upto else None)
    checks.append(_coeff_check("ME7_dim2", me7, 2, 63))
    checks.append(_coeff_check("ME7_vacuum", me7, 0, 1))
    checks.append(_coeff_check("ME7_dim1", me7, 1, 0))

    # the ME6 display and the substituted MA4 commutant share the ME6 blocks
    blocks = _me6_blocks(upto)
    me6 = me6_display_character(dim_upto, blocks if dim_upto == upto else None)
    checks.append(_coeff_check("ME6_dim2", me6, 2, 36))
    checks.append(_coeff_check("ME6_vacuum", me6, 0, 1))
    checks.append(_coeff_check("ME6_dim1", me6, 1, 0))
    checks.append({"identity": "ME6_nonnegative",
                   "status": "pass" if me6.nonnegative() else "fail",
                   "compared_up_to": str(me6.cutoff), "first_mismatch": None})

    checks.append(_check("com_MA4_eight_terms", com_ma4_display_character(upto),
                         com_ma4_substituted_character(upto, blocks), bound=depth))

    # branching symmetry at level 4, all labels, to depth 10
    sym_upto = max(upto, depth + 2, 10)
    w4 = {(j, k): w_character(4, j, k, sym_upto)
          for j in range(5) for k in range(8) if (j + k) % 2 == 0}
    mism = None
    for (j, k), series in w4.items():
        m = series.first_mismatch(w4[4 - j, (k + 4) % 8])
        if m is not None:
            mism = f"(j={j},k={k}) at {m}"
            break
    checks.append({"identity": "branching_symmetry_level4",
                   "status": "pass" if mism is None else "fail",
                   "compared_up_to": str(sym_upto), "first_mismatch": mism})

    checks.append(_coeff_check("vplus_E8_dim2", vplus_character("E8", 3), 2, 156))
    checks.append(_coeff_check("vplus_E7_dim2", vplus_character("E7", 3), 2, 91))
    return checks


# the glue [4] of A7 in E7: the fundamental weight omega_4 in simple-root
# coordinates, so that E7 = A7 + (omega_4 + A7)
OMEGA4 = (Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(3, 2), 1, Fraction(1, 2))


def _coset_a7_character(upto: int) -> QSeries:
    """Graded dimension of the omega_4-shifted rank-7 lattice coset module."""
    counts = dynkin.theta_counts(dynkin.cartan_matrix("A", 7), upto, OMEGA4)
    return _lattice_character(counts, 7, upto)
