"""The exact degree-2 commutative algebra of an even frame-doubled root lattice.

Basis of the algebra attached to a root lattice R of rank l: the l(l+1)/2
symmetric Heisenberg quadratics plus one vector per root pair {a, -a}.
Elements are stored as an integer symmetric ambient matrix (the quadratic
part, in stored lattice coordinates) plus an integer vector over root pairs,
over a common positive denominator.  All products, bilinear forms and kernels
are exact; numpy is used only as an integer container.

Structure constants (s2 = metric divisor of stored coordinates):
  quad x quad:   2(AB + BA)/s2
  quad x pair p: (2 r_p A r_p / s2^2) pair_p
  pair x pair:   same pair -> 2 r r^T;  pairs at angle +-1 -> the sum/difference
                 pair with trivial sign; orthogonal pairs -> 0.
The chosen two-cocycle is identically +1: on a doubled root lattice all
inner products are even, so the bimultiplicative recipe collapses to the
trivial cocycle and every structure constant above is sign-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .exact import inverse, kernel
from .rootlat import LatticeError, RootLattice, _hnf_basis

DIM_GUARD = 512
INT_GUARD = 1 << 62


class GriessError(ValueError):
    pass


class SigmaImageError(GriessError):
    """A sigma image failed a check; `row` indexes the first bad partner."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def guard_dimension(rank: int, npairs: int) -> int:
    """The dimension rank(rank+1)/2 + npairs of the algebra over a lattice
    with `npairs` root pairs; GriessError past DIM_GUARD."""
    dim = rank * (rank + 1) // 2 + npairs
    if dim > DIM_GUARD:
        raise GriessError(f"dimension {dim} exceeds guard {DIM_GUARD}")
    return dim


def _guard(bound: int) -> None:
    """Refuse int64 arithmetic whose results may reach `bound` in magnitude."""
    if bound >= INT_GUARD:
        raise GriessError("operands too large for exact int64 arithmetic")


class GriessElement:
    """An element: symmetric matrix `cart` + pair vector `xv`, over `den`."""

    __slots__ = ("alg", "cart", "xv", "den", "mag")

    def __init__(self, alg: "GriessAlgebra", cart: np.ndarray, xv: np.ndarray,
                 den: int):
        self.alg = alg
        if den < 0:
            cart, xv, den = -cart, -xv, -den
        g = int(np.gcd.reduce(np.concatenate(
            [cart.ravel(), xv, np.array([den], dtype=np.int64)])))
        g = g or 1
        self.cart = (cart // g).astype(np.int64)
        self.xv = (xv // g).astype(np.int64)
        self.den = int(den // g)
        # the largest integer held: operations bound their int64 results by it
        self.mag = max(int(np.abs(self.cart).max(initial=0)),
                       int(np.abs(self.xv).max(initial=0)), self.den)
        if self.mag >= INT_GUARD:
            raise GriessError("integer overflow guard tripped")

    @classmethod
    def from_rows(cls, alg: "GriessAlgebra", carts: np.ndarray, xvs: np.ndarray,
                  dens: np.ndarray) -> list["GriessElement"]:
        """The elements carts[k], xvs[k] over dens[k] > 0, normalised row-wise.

        The constructor's canonical form in a few array operations: each
        row divided by the gcd of its integers and its denominator, and its
        `mag` checked against INT_GUARD.  A row past the guard raises
        SigmaImageError (a GriessError) naming the first one.  Each element
        holds copies of its rows, so keeping one keeps no batch array alive.
        """
        if (dens <= 0).any():
            raise GriessError("row denominators must be positive")
        k = len(dens)
        g = np.gcd(np.gcd(np.gcd.reduce(carts.reshape(k, alg.m * alg.m), axis=1),
                          np.gcd.reduce(xvs, axis=1)), dens)
        carts = carts // g[:, None, None]
        xvs = xvs // g[:, None]
        dens = dens // g
        mags = np.maximum(np.maximum(np.abs(carts).max(axis=(1, 2), initial=0),
                                     np.abs(xvs).max(axis=1, initial=0)), dens)
        out = []
        for row, (cart, xv, den, mag) in enumerate(
                zip(carts, xvs, dens.tolist(), mags.tolist())):
            if mag >= INT_GUARD:
                raise SigmaImageError(row, "integer overflow guard tripped")
            el = cls.__new__(cls)
            el.alg, el.cart, el.xv, el.den, el.mag = alg, cart.copy(), xv.copy(), den, mag
            out.append(el)
        return out

    # -- linear structure ---------------------------------------------------
    def __add__(self, other: "GriessElement") -> "GriessElement":
        d = lcm(self.den, other.den)
        _guard(self.mag * (d // self.den) + other.mag * (d // other.den))
        return GriessElement(self.alg,
                             self.cart * (d // self.den) + other.cart * (d // other.den),
                             self.xv * (d // self.den) + other.xv * (d // other.den), d)

    def __sub__(self, other: "GriessElement") -> "GriessElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "GriessElement":
        f = Fraction(scalar)
        _guard(self.mag * max(abs(f.numerator), f.denominator))
        return GriessElement(self.alg, self.cart * f.numerator, self.xv * f.numerator,
                             self.den * f.denominator)

    def __neg__(self) -> "GriessElement":
        return -1 * self

    # -- algebra ------------------------------------------------------------
    def __mul__(self, other: "GriessElement") -> "GriessElement":
        return self.alg.product(self, other)

    def inner(self, other: "GriessElement") -> Fraction:
        return self.alg.inner(self, other)

    def is_zero(self) -> bool:
        return not self.cart.any() and not self.xv.any()

    def key(self) -> tuple:
        return (self.den, self.cart.tobytes(), self.xv.tobytes())

    def __eq__(self, other) -> bool:
        return isinstance(other, GriessElement) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def coords(self) -> list[Fraction]:
        """Exact coordinates over the labeled basis (quadratics then pairs)."""
        return self.alg.expand(self)

    def to_json(self) -> dict:
        return {"basis": self.alg.basis_labels(),
                "coords": [str(c) for c in self.coords()]}


@dataclass(frozen=True)
class ConformalVector:
    """An idempotent-of-weight-2 element with its central charge 2<e,e>."""

    element: GriessElement
    central_charge: Fraction


class GriessAlgebra:
    """Product and bilinear-form tables for the degree-2 algebra over R."""

    def __init__(self, lattice: RootLattice):
        self.lattice = lattice
        m, s2 = lattice.ambient, lattice.scale_sq
        self.m, self.s2 = m, s2
        self.pairs = lattice.pairs
        self.npairs = lattice.npairs
        self.dimension = guard_dimension(lattice.rank, self.npairs)
        P = self.pairs
        # ordered pair-products landing on another pair: (p, q) -> r
        dots = (P @ P.T) // s2
        tp, tq = np.nonzero(np.abs(dots) == 1)
        # the root p - <p,q> q, signed as `pair_of` signs it (first nonzero
        # entry positive); 512 rows at a time, since whole-table temporaries
        # (6,720 x 8 on E8) raised the peak RSS of a rank-8 job
        index = lattice.pair_index
        targets = []
        for lo in range(0, len(tp), 512):
            p, q = tp[lo:lo + 512], tq[lo:lo + 512]
            v = P[p] - dots[p, q][:, None] * P[q]
            lead = v[np.arange(len(v)), np.argmax(v != 0, axis=1)]
            signed = v * np.where(lead < 0, -1, 1)[:, None]
            targets += [index.get(tuple(t), -1) for t in signed.tolist()]
        targets = np.array(targets, dtype=np.int64)
        if (targets < 0).any():
            k = int(np.argmax(targets < 0))
            v = P[tp[k]] - dots[tp[k], tq[k]] * P[tq[k]]
            raise LatticeError(f"{v} is not a root of {lattice.name}")
        # source[q, r] = p for (p, q) -> r, else npairs; p is +-(r + q) or
        # +-(r - q), and only one of them is a root
        source = np.full((self.npairs, self.npairs), self.npairs, dtype=np.int64)
        source[tq, targets] = tp
        if np.count_nonzero(source < self.npairs) != len(tp):
            raise LatticeError(f"{lattice.name}: a pair product has two sources")
        self._pair_source = source
        self._tp, self._tq, self._tr = tp, tq, targets
        self._pair_outer = np.einsum("pi,pj->pij", P, P)
        # |integer| of a product / inner numerator <= gain * a.mag * b.mag
        pmax = int(np.abs(P).max(initial=0))
        self.product_gain = (4 * s2 * m + 2 * s2 * s2 * self.npairs * pmax ** 2
                             + 4 * m * m * pmax ** 2 + s2 * s2 * (len(tp) + 1))
        self.inner_gain = 2 * m * m + 2 * s2 * s2 * self.npairs
        self.omega = self._build_omega(lattice.basis, lattice.gram_inverse)

    def __repr__(self) -> str:
        return f"GriessAlgebra({self.lattice.name}, dim={self.dimension})"

    # -- constructors ---------------------------------------------------------
    def zero(self) -> GriessElement:
        return GriessElement(self, np.zeros((self.m, self.m), dtype=np.int64),
                             np.zeros(self.npairs, dtype=np.int64), 1)

    def from_quadratic(self, u, v) -> GriessElement:
        """The element u_(-1)v_(-1)1 for stored lattice vectors u, v."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        return GriessElement(self, np.outer(u, v) + np.outer(v, u),
                             np.zeros(self.npairs, dtype=np.int64), 2)

    def pair_element(self, p: int) -> GriessElement:
        xv = np.zeros(self.npairs, dtype=np.int64)
        xv[p] = 1
        return GriessElement(self, np.zeros((self.m, self.m), dtype=np.int64), xv, 1)

    def _build_omega(self, basis: np.ndarray, gram_inverse) -> GriessElement:
        # omega = (s2/2) * projection onto the span of `basis`, as an exact
        # matrix; `gram_inverse` is inverse(basis @ basis.T)
        num, den = gram_inverse
        proj_num = basis.T @ num @ basis  # projection * den
        return GriessElement(self, (self.s2 * proj_num).astype(np.int64),
                             np.zeros(self.npairs, dtype=np.int64), 2 * den)

    def w_vector(self, root_or_pair, sign: int) -> ConformalVector:
        """The frame vector (1/8) a a + (sign/4) pair over a root a."""
        if sign not in (1, -1):
            raise GriessError("sign must be +1 or -1")
        p = root_or_pair if isinstance(root_or_pair, int) \
            else self.lattice.pair_of(root_or_pair)
        if not 0 <= p < self.npairs:
            raise GriessError(f"pair index {p} is outside 0..{self.npairs - 1}")
        r = self.pairs[p]
        cart = np.outer(r, r)
        xv = np.zeros(self.npairs, dtype=np.int64)
        xv[p] = 2 * sign
        e = GriessElement(self, cart, xv, 8)
        return ConformalVector(e, Fraction(1, 2))

    def _sum_pairs(self, pair_indices) -> GriessElement:
        xv = np.zeros(self.npairs, dtype=np.int64)
        xv[list(pair_indices)] = 1
        return GriessElement(self, np.zeros((self.m, self.m), dtype=np.int64), xv, 1)

    def _conformal_pair(self, omega: GriessElement, pair_ids, rank: int,
                        h: int) -> tuple[ConformalVector, ConformalVector]:
        """(s, wtilde) = ((h omega - P)/(h+2), (2 omega + P)/(h+2)), P the pair sum."""
        pair_sum = self._sum_pairs(pair_ids)
        s = Fraction(h, h + 2) * omega - Fraction(1, h + 2) * pair_sum
        wt = Fraction(2, h + 2) * omega + Fraction(1, h + 2) * pair_sum
        return (ConformalVector(s, Fraction(rank * h, h + 2)),
                ConformalVector(wt, Fraction(2 * rank, h + 2)))

    def conformal_wtilde(self) -> ConformalVector:
        """(2/(h+2)) omega + (1/(h+2)) * sum of all pair vectors."""
        return self._conformal_pair(self.omega, range(self.npairs), self.lattice.rank,
                                    self.lattice.coxeter_number)[1]

    def conformal_s(self) -> ConformalVector:
        """(h/(h+2)) omega - (1/(h+2)) * sum of all pair vectors."""
        return self._conformal_pair(self.omega, range(self.npairs), self.lattice.rank,
                                    self.lattice.coxeter_number)[0]

    def sublattice_conformal_pair(self, sub_roots) -> tuple[ConformalVector, ConformalVector]:
        """(s, wtilde) of an embedded indecomposable root sublattice."""
        sub = np.array([np.asarray(r, dtype=np.int64) for r in sub_roots])
        sub_basis = _hnf_basis(sub)
        omega_sub = self._build_omega(sub_basis, inverse(sub_basis @ sub_basis.T))
        pair_ids = sorted({self.lattice.pair_of(r) for r in sub})
        return self._conformal_pair(omega_sub, pair_ids, len(sub_basis),
                                    len(sub) // len(sub_basis))

    # -- products and forms ---------------------------------------------------
    def product(self, a: GriessElement, b: GriessElement) -> GriessElement:
        return self.products(a, [b])[0]

    def products(self, e: GriessElement, fs) -> list[GriessElement]:
        """e f for every f in `fs`, after one bound on Python ints:
        product_gain e.mag max f.mag dominates every integer formed."""
        if not fs:
            return []
        _guard(self.product_gain * e.mag * max(f.mag for f in fs))
        B = np.stack([f.cart for f in fs])
        X = np.stack([f.xv for f in fs])
        fden = np.array([f.den for f in fs], dtype=np.int64)
        cart, xv = self._product_numerators(e, B, X)
        return GriessElement.from_rows(self, cart, xv, self.s2 ** 2 * e.den * fden)

    def _product_numerators(self, e: GriessElement, B: np.ndarray, X: np.ndarray):
        """Numerators (carts, pair vectors) of e f over e.den f.den s2^2 for
        the f stacked as carts B and pair vectors X: the structure constants
        on the whole stack, the pair products (p, q) -> r as X @ M for
        M[q, r] = s2^2 a[p] (0 where no p exists)."""
        s2, m, npairs = self.s2, self.m, self.npairs
        s4 = s2 * s2
        A, a = e.cart, e.xv
        outer = self._pair_outer.reshape(npairs, m * m)
        cart = (2 * s2 * (A @ B + B @ A)
                + 2 * s4 * ((a * X) @ outer).reshape(-1, m, m))
        pair_pair = np.append(s4 * a, 0)[self._pair_source]
        xv = (2 * (outer @ A.ravel()) * X + 2 * (B.reshape(-1, m * m) @ outer.T) * a
              + X @ pair_pair)
        return cart, xv

    def inner(self, a: GriessElement, b: GriessElement) -> Fraction:
        _guard(self.inner_gain * a.mag * b.mag)
        s4 = self.s2 * self.s2
        num = 2 * int(np.trace(a.cart @ b.cart)) + 2 * s4 * int(a.xv @ b.xv)
        return Fraction(num, s4 * a.den * b.den)

    def inner_numerators(self, es, fs) -> tuple[np.ndarray, np.ndarray]:
        """int64 (num, den) with <es[i], fs[j]> = num[i, j] / den[i, j], unreduced.

        num = 2 tr(A_e A_f) + 2 s2^2 x_e . x_f, each partial sum at most
        inner_gain e.mag f.mag, and den = s2^2 e.den f.den, at most that too.
        Checked first, on Python ints: 32 inner_gain max e.mag max f.mag, the
        32 so that callers may compare 32 num == den (<e, f> = 1/32) in int64.
        """
        if not es or not fs:
            empty = np.zeros((len(es), len(fs)), dtype=np.int64)
            return empty, empty
        _guard(32 * self.inner_gain * max(e.mag for e in es) * max(f.mag for f in fs))
        s4 = self.s2 * self.s2
        A = np.stack([e.cart.ravel() for e in es])
        B = np.stack([f.cart.T.ravel() for f in fs])
        X = np.stack([e.xv for e in es])
        Y = np.stack([f.xv for f in fs])
        num = 2 * (A @ B.T) + 2 * s4 * (X @ Y.T)
        eden = np.array([e.den for e in es], dtype=np.int64)
        return num, s4 * np.outer(eden, [f.den for f in fs])

    # -- twist automorphisms ----------------------------------------------------
    def twist_signs(self, x) -> np.ndarray:
        """Signs (-1)^<x, a_p> over pairs, for a lattice vector x."""
        x = np.asarray(x, dtype=np.int64)
        dots = (self.pairs @ x)
        if (dots % self.s2).any():
            raise GriessError("twist argument pairs non-integrally with roots")
        return np.where((dots // self.s2) % 2 == 0, 1, -1).astype(np.int64)

    def phi_twist(self, x, v: GriessElement) -> GriessElement:
        """Sign-flip automorphism: fixes quadratics, scales pair p by (-1)^<x,a_p>."""
        if v.alg is not self:
            raise GriessError("element belongs to a different algebra")
        if not (self.lattice.kind == "E" and self.lattice.rank == 8):
            raise GriessError("twist automorphisms require a rank-8 E-type lattice")
        return GriessElement(self, v.cart.copy(), v.xv * self.twist_signs(x), v.den)

    # -- sigma rule -------------------------------------------------------------
    def sigma_image(self, e: GriessElement, f: GriessElement) -> GriessElement:
        """Involution attached to e, applied to f (both norm-1/4 idempotents)."""
        if e == f or self.inner(e, f) == 0:
            return f
        return self.sigma_images(e, [f])[0]

    def sigma_images(self, e: GriessElement, fs) -> list[GriessElement]:
        """sigma_e(f) = e + f - 4 e f for every f in `fs`, each at <e,f> = 1/32.

        The products e f come from `_product_numerators`.  A failed check
        raises SigmaImageError naming the first bad row, before the
        arithmetic it guards: the int64 bound, 32 <e,f> = 1, and <g,g> = 1/4.

        The bound.  With mu = e.mag f.mag, every integer is at most gain mu:
        the inner numerator 2 tr(AB) + 2 s2^2 a.X by inner_gain mu; each
        product numerator, and the intermediate sums that build it, by
        product_gain mu (as in `products`); the image numerators
        e f.den s2^2 + f e.den s2^2 - 4 (e f) and their denominator
        e.den f.den s2^2 by (2 s2^2 + 4 product_gain) mu.  The norm check
        on a normalised image g is bounded by inner_gain g.mag^2.
        """
        if not fs:
            return []
        s4 = self.s2 * self.s2
        gain = self.inner_gain + 2 * s4 + 4 * self.product_gain
        for row, f in enumerate(fs):
            if gain * e.mag * f.mag >= INT_GUARD:
                raise SigmaImageError(
                    row, "operands too large for exact int64 arithmetic")
        A, a = e.cart, e.xv
        B = np.stack([f.cart for f in fs])
        X = np.stack([f.xv for f in fs])
        fden = np.array([f.den for f in fs], dtype=np.int64)
        ip = 2 * np.einsum("ij,kji->k", A, B) + 2 * s4 * (X @ a)
        for row, (num, den) in enumerate(zip(ip.tolist(), fden.tolist())):
            if 32 * num != s4 * e.den * den:
                raise SigmaImageError(
                    row, f"inner product {Fraction(num, s4 * e.den * den)} "
                         "admits no involution rule")
        cart, xv = self._product_numerators(e, B, X)
        g_cart = A * (s4 * fden)[:, None, None] + B * (s4 * e.den) - 4 * cart
        g_xv = a * (s4 * fden)[:, None] + X * (s4 * e.den) - 4 * xv
        images = GriessElement.from_rows(self, g_cart, g_xv, s4 * e.den * fden)
        for row, g in enumerate(images):
            if self.inner_gain * g.mag * g.mag >= INT_GUARD:
                raise SigmaImageError(
                    row, "operands too large for exact int64 arithmetic")
        G = np.stack([g.cart for g in images])
        Y = np.stack([g.xv for g in images])
        norm = 2 * np.einsum("kij,kji->k", G, G) + 2 * s4 * np.einsum("kp,kp->k", Y, Y)
        for row, (num, g) in enumerate(zip(norm.tolist(), images)):
            if 4 * num != s4 * g.den * g.den:
                raise SigmaImageError(
                    row, "sigma image is not a central-charge-1/2 candidate")
        return images

    # -- basis bookkeeping --------------------------------------------------------
    def basis_labels(self) -> list[str]:
        labels = []
        ell = self.lattice.rank
        for i in range(ell):
            for j in range(i, ell):
                labels.append(f"quad:{i},{j}")
        for p in range(self.npairs):
            labels.append("pair:" + ",".join(map(str, self.pairs[p].tolist())))
        return labels

    def expand(self, v: GriessElement) -> list[Fraction]:
        """Exact coordinates of v over the labeled basis (quadratics then pairs).

        With B the lattice basis and G = B B^T, the quadratic part
        C = cart/den is B^T S B for S = G^-1 B C B^T G^-1.  Basis element
        (i, j) is (b_i b_j^T + b_j b_i^T)/2, so its coordinate is S_ii on the
        diagonal and 2 S_ij for i < j.  C lies in the span exactly when
        B^T S B rebuilds it.  The products are taken on Python ints.
        """
        num, gden = self.lattice.gram_inverse
        basis = self.lattice.basis.astype(object)
        lift = num.astype(object) @ basis           # gden * G^-1 B
        cart = v.cart.astype(object)
        s = lift @ cart @ lift.T                    # gden^2 * den * S
        if (basis.T @ s @ basis != gden * gden * cart).any():
            raise GriessError("quadratic part lies outside the root span")
        ell, scale = self.lattice.rank, gden * gden * v.den
        quad = [Fraction(s[i, j] if i == j else 2 * s[i, j], scale)
                for i in range(ell) for j in range(i, ell)]
        return quad + [Fraction(int(x), v.den) for x in v.xv]

    # -- kernels -------------------------------------------------------------------
    def commutant_weight2(self, u: GriessElement) -> list[list[Fraction]]:
        """Reduced echelon basis of ker(v -> u * v) over the labeled basis."""
        cols = [self.expand(g) for g in self.products(u, self._basis_elements())]
        return kernel(list(zip(*cols)))

    def _basis_elements(self) -> list[GriessElement]:
        basis, ell = self.lattice.basis, self.lattice.rank
        return ([self.from_quadratic(basis[i], basis[j])
                 for i in range(ell) for j in range(i, ell)]
                + [self.pair_element(p) for p in range(self.npairs)])

    def in_span(self, v: GriessElement, echelon: list[list[Fraction]]) -> bool:
        """Membership of v in the row space of a reduced echelon basis.

        In reduced form the coefficient of each row is v's entry at the
        row's pivot, so v is in the span iff it equals that combination.
        """
        vec = self.expand(v)
        combo = [Fraction(0)] * len(vec)
        for row in echelon:
            f = vec[next(i for i, x in enumerate(row) if x)]
            if f:
                combo = [a + f * b for a, b in zip(combo, row)]
        return combo == vec


def verify_twist_chain(algebra: GriessAlgebra, alpha0) -> dict:
    """Exact identity checks tying wtilde, its root twist and the frame vector.

    Requires a rank-8 E-type algebra.  Returns a report with one boolean per
    identity: the quarter-sum product rule, the embedded rank-7 wtilde
    expression with its central charge, and idempotency of every ingredient.
    """
    a0 = np.asarray(alpha0, dtype=np.int64)
    lat = algebra.lattice
    wt = algebra.conformal_wtilde().element
    phiwt = algebra.phi_twist(a0, wt)
    wplus = algebra.w_vector(lat.pair_of(a0), 1).element
    perp = [r for r in lat.roots if int(np.dot(r, a0)) == 0]
    s_sub, wt_sub = algebra.sublattice_conformal_pair(perp)
    report = {
        "product_rule": wt * phiwt == Fraction(1, 4) * (wt + phiwt - wplus),
        "embedded_wtilde": wt_sub.element ==
            Fraction(4, 5) * (wt + phiwt) - Fraction(1, 5) * wplus,
        "embedded_central_charge": wt_sub.central_charge == Fraction(7, 10),
        "twist_inner": phiwt.inner(wt) == Fraction(1, 32),
        "twist_idempotent": phiwt * phiwt == 2 * phiwt,
    }
    report["ok"] = all(report.values())
    return report


def verify_orthogonal_split(algebra: GriessAlgebra) -> dict:
    """Exact checks for the rank-6 orthogonal decomposition of omega.

    The A5 + A1 sublattice of the E6 model is its 32 roots with even stored
    coordinates: A5 where coordinate 0 is zero, A1 where it is not.  Splits
    omega into the A5 s-vector, two conformal vectors of central charges
    25/28 and 1/2 built from the A1 summand, and wtilde.
    """
    lat = algebra.lattice
    even = lat.roots[(lat.roots % 2 == 0).all(axis=1)]
    a5_roots, a1_roots = even[even[:, 0] == 0], even[even[:, 0] != 0]
    if len(a5_roots) != 30 or len(a1_roots) != 2:
        raise GriessError(f"{lat.name}: even roots do not split as A5 + A1")
    wt6 = algebra.conformal_wtilde().element
    s_a5, wt_a5 = algebra.sublattice_conformal_pair(a5_roots)
    p1 = lat.pair_of(a1_roots[0])
    omega1 = wt_a5.element + algebra.w_vector(p1, 1).element - wt6
    omega2 = algebra.w_vector(p1, -1).element
    report = {
        "omega1_idempotent": omega1 * omega1 == 2 * omega1,
        "omega1_charge": 2 * omega1.inner(omega1) == Fraction(25, 28),
        "omega2_charge": 2 * omega2.inner(omega2) == Fraction(1, 2),
        "orthogonal": (omega1 * omega2).is_zero() and omega1.inner(omega2) == 0,
        "sum_is_omega":
            s_a5.element + omega1 + omega2 + wt6 == algebra.omega,
    }
    report["ok"] = all(report.values())
    return report
