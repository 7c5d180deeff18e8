import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voacensus import exact, registry, rootlat
from voacensus.census import GRAM_32ND, GRAM_ZERO, gram_from_elements
from voacensus.griess import (INT_GUARD, GriessAlgebra, GriessElement, GriessError,
                              SigmaImageError, verify_orthogonal_split,
                              verify_twist_chain)
from voacensus.registry import algebra

import transpo_oracle

CATALOG = ([f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(2, 13)] +
           ["E6", "E7", "E8", "E8H", "D4C", "D6C", "D8C"])


def test_dimensions():
    assert algebra("E8").dimension == 36 + 120
    assert algebra("A2").dimension == 3 + 3
    assert algebra("E6").dimension == 21 + 36


def test_dimension_guard_refuses_before_building(monkeypatch):
    # D18 is the largest D admitted (171 + 306 = 477); D19 has 190 + 342
    assert max(algebra(tag).dimension for tag in CATALOG) == algebra("D12").dimension == 210
    lattice = rootlat.build_lattice("D19")
    with pytest.raises(GriessError, match="^dimension 532 exceeds guard 512$"):
        GriessAlgebra(lattice)

    def refuse(tag):
        raise AssertionError(f"built {tag}")

    monkeypatch.setattr(rootlat, "build_lattice", refuse)
    for tag in ("D19", "A23", "D200"):
        with pytest.raises(GriessError, match="exceeds guard 512$"):
            registry.lattice(tag)
        with pytest.raises(GriessError, match="exceeds guard 512$"):
            algebra(tag)


def test_commutative_and_invariant_a2():
    # full scan on all basis triples for the smallest algebra
    alg = algebra("A2")
    basis = alg._basis_elements()
    for a in basis:
        for b in basis:
            ab = a * b
            assert ab == b * a
            for c in basis:
                assert ab.inner(c) == b.inner(a * c)


def test_commutative_and_invariant_rank_le_4_full():
    # full basis-triple scans for the small-rank algebras
    for tag in ("A3", "D4"):
        alg = algebra(tag)
        basis = alg._basis_elements()
        products = [[a * b for b in basis] for a in basis]
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert products[i][j] == products[j][i]
                for k, c in enumerate(basis):
                    assert products[i][j].inner(c) == b.inner(products[i][k])


def test_commutative_and_invariant_e8_sampled():
    alg = algebra("E8")
    basis = alg._basis_elements()
    rng = random.Random(11)
    for _ in range(10 ** 4):
        a, b, c = (basis[rng.randrange(len(basis))] for _ in range(3))
        assert (a * b) == (b * a)
        assert (a * b).inner(c) == b.inner(a * c)
    # full commutativity scan on the pair-vector block: the 120 x 120
    # products, one stacked row per left factor, equal their transpose
    pair_elems = [alg.pair_element(p) for p in range(alg.npairs)]
    table = [[ab.key() for ab in alg.products(a, pair_elems)] for a in pair_elems]
    assert table == [list(col) for col in zip(*table)]


def test_omega_acts_as_two():
    for tag in ("A3", "D4", "E6"):
        alg = algebra(tag)
        for e in alg._basis_elements()[::5]:
            assert alg.omega * e == 2 * e
        assert alg.omega.inner(alg.omega) == Fraction(alg.lattice.rank, 2)


def test_w_vectors():
    alg = algebra("E6")
    for p in range(0, alg.npairs, 5):
        for sign in (1, -1):
            w = alg.w_vector(p, sign)
            assert w.element * w.element == 2 * w.element
            assert w.element.inner(w.element) == Fraction(1, 4)
            assert w.central_charge == Fraction(1, 2)
    wp, wm = alg.w_vector(0, 1).element, alg.w_vector(0, -1).element
    assert wp.inner(wm) == 0
    assert (wp * wm).is_zero()


def test_w_gram_table():
    # inner products split by the root pairing, rank-6 model
    alg = algebra("E6")
    lat = alg.lattice
    for p in range(0, alg.npairs, 4):
        for q in range(0, alg.npairs, 4):
            d = abs(int(lat.pairs[p] @ lat.pairs[q]) // lat.scale_sq)
            wpm = alg.w_vector(p, 1).element.inner(alg.w_vector(q, -1).element)
            wmm = alg.w_vector(p, -1).element.inner(alg.w_vector(q, -1).element)
            if p == q:
                assert wpm == 0 and wmm == Fraction(1, 4)
            elif d == 1:
                assert wpm == Fraction(1, 32) and wmm == Fraction(1, 32)
            else:
                assert wpm == 0 and wmm == 0


def test_conformal_sum_charges():
    for tag, ell, h in (("A1", 1, 2), ("E7", 7, 18), ("E8", 8, 30)):
        alg = algebra(tag)
        s = alg.conformal_s()
        wt = alg.conformal_wtilde()
        assert s.central_charge == Fraction(ell * h, h + 2)
        assert wt.central_charge == Fraction(2 * ell, h + 2)
        assert s.element + wt.element == alg.omega
        assert (s.element * wt.element).is_zero()
        assert s.element.inner(wt.element) == 0
        assert s.element * s.element == 2 * s.element


def test_wtilde_inner_with_w():
    alg = algebra("E7")
    h = alg.lattice.coxeter_number
    wt = alg.conformal_wtilde().element
    for p in range(0, alg.npairs, 6):
        assert alg.w_vector(p, -1).element.inner(wt) == 0
        assert alg.w_vector(p, 1).element.inner(wt) == Fraction(1, h + 2)


def test_phi_twist_classes():
    alg = algebra("E8")
    lat = alg.lattice
    wt = alg.conformal_wtilde().element
    for cl in lat.mod2_classes()[:40]:
        img = alg.phi_twist(cl.representative, wt)
        got = img.inner(wt)
        expect = {"zero": Fraction(1, 4), "root-pair": Fraction(1, 32),
                  "frame": Fraction(0)}[cl.kind]
        assert got == expect
        assert img * img == 2 * img


def test_phi_zero_identity_and_rejection():
    alg = algebra("E8")
    wt = alg.conformal_wtilde().element
    assert alg.phi_twist(np.zeros(8, dtype=np.int64), wt) == wt
    with pytest.raises(GriessError):
        algebra("A2").phi_twist(np.zeros(3, dtype=np.int64),
                                algebra("A2").omega)


def test_phi_product_preserving():
    alg = algebra("E8")
    lat = alg.lattice
    x = lat.roots[3]
    basis = alg._basis_elements()
    rng = random.Random(5)
    for _ in range(100):
        a = basis[rng.randrange(len(basis))]
        b = basis[rng.randrange(len(basis))]
        assert alg.phi_twist(x, a * b) == alg.phi_twist(x, a) * alg.phi_twist(x, b)
        assert alg.phi_twist(x, a).inner(alg.phi_twist(x, b)) == a.inner(b)
    for p in range(0, alg.npairs, 9):
        for q in range(0, alg.npairs, 9):
            a, b = alg.pair_element(p), alg.pair_element(q)
            assert alg.phi_twist(x, a * b) == \
                alg.phi_twist(x, a) * alg.phi_twist(x, b)


def test_sigma_reflection_rule():
    alg = algebra("E6")
    lat = alg.lattice
    rng = random.Random(3)
    for _ in range(40):
        p, q = rng.randrange(alg.npairs), rng.randrange(alg.npairs)
        d = int(lat.pairs[p] @ lat.pairs[q]) // lat.scale_sq
        e = alg.w_vector(p, -1).element
        f = alg.w_vector(q, -1).element
        img = alg.sigma_image(e, f)
        if abs(d) == 1:
            refl = lat.weyl_reflect(lat.pairs[p], lat.pairs[q])
            assert img == alg.w_vector(lat.pair_of(refl), -1).element
        else:
            assert img == f
        assert alg.sigma_image(f, e) == (img if abs(d) == 1 else e)


def test_sigma_symmetric_and_errors():
    alg = algebra("E8")
    wt = alg.conformal_wtilde().element
    phiwt = alg.phi_twist(alg.lattice.roots[0], wt)
    assert alg.sigma_image(wt, phiwt) == alg.sigma_image(phiwt, wt)
    with pytest.raises(GriessError):
        alg.sigma_image(wt, 2 * wt)


def test_sigma_twist_chain_image():
    alg = algebra("E8")
    a0 = np.array(registry.alpha0(), dtype=np.int64)
    wt = alg.conformal_wtilde().element
    phiwt = alg.phi_twist(a0, wt)
    wplus = alg.w_vector(alg.lattice.pair_of(a0), 1).element
    assert alg.sigma_image(wt, phiwt) == wplus


def _point_with_partners():
    """e8full point 0, its 1/32 partners and the points orthogonal to it."""
    c = registry.census("e8full")
    row = c.gram[0]
    return (c.algebra, c.elements[0],
            [c.elements[j] for j in np.flatnonzero(row == GRAM_32ND)],
            [c.elements[j] for j in np.flatnonzero(row == GRAM_ZERO)])


def test_sigma_images_refuse_bad_rows():
    alg, e, partners, orthogonal = _point_with_partners()
    f, h = partners[:2]
    assert [g.key() for g in alg.sigma_images(e, [f, h])] == \
        [transpo_oracle.product_sigma_image(alg, e, x).key() for x in (f, h)]
    assert alg.sigma_images(e, []) == []
    # a 0 pair in the batch is not taken for a fixed point
    with pytest.raises(SigmaImageError,
                       match="inner product 0 admits no involution rule") as exc:
        alg.sigma_images(e, [f, orthogonal[0], h])
    assert exc.value.row == 1
    # f + z meets e at 1/32, but with z orthogonal to e, f and sigma_e(f)
    # its image sigma_e(f) + z has norm 1/2
    image = transpo_oracle.product_sigma_image(alg, e, f)
    z = next(z for z in orthogonal if z.inner(f) == 0 and z.inner(image) == 0)
    with pytest.raises(SigmaImageError, match="central-charge-1/2 candidate") as exc:
        alg.sigma_images(e, [h, f + z])
    assert exc.value.row == 1
    # entries near 2^40 with <e, f> = 1/32 still: refused, not wrapped, and
    # before any arithmetic, so also behind a 0 pair
    big = f + Fraction(1, 2 ** 40) * orthogonal[0]
    assert big.inner(e) == Fraction(1, 32) and big.mag >= 2 ** 40
    for batch in ([f, big], [orthogonal[0], big]):
        with pytest.raises(SigmaImageError, match="too large") as exc:
            alg.sigma_images(e, batch)
        assert exc.value.row == 1
    with pytest.raises(GriessError, match="too large"):
        alg.sigma_image(e, big)


def _rows_by_constructor(cls, alg, carts, xvs, dens):
    """Oracle: each row normalised by its own GriessElement constructor."""
    return [GriessElement(alg, c, x, d) for c, x, d in zip(carts, xvs, dens.tolist())]


@pytest.mark.parametrize("spec", ["e8full", "me8", "uc", "code:rm24"])
def test_row_normalised_sigma_images_match_constructor(spec, monkeypatch):
    c = registry.census(spec)
    rows = []
    for s in registry.sigma_table(spec).seeds:
        partners = [c.elements[j] for j in np.flatnonzero(c.gram[s] == GRAM_32ND)]
        rows.append((s, partners, c.algebra.sigma_images(c.elements[s], partners)))
    monkeypatch.setattr(GriessElement, "from_rows", classmethod(_rows_by_constructor))
    for s, partners, got in rows:
        want = c.algebra.sigma_images(c.elements[s], partners)
        assert [(g.key(), g.mag) for g in got] == [(g.key(), g.mag) for g in want]


def test_from_rows_matches_constructor():
    alg = algebra("D4")
    rng = np.random.default_rng(7)
    k, m, p = 40, alg.m, alg.npairs
    carts = rng.integers(-50, 51, size=(k, m, m))
    carts = carts + carts.transpose(0, 2, 1)
    xvs = rng.integers(-50, 51, size=(k, p))
    dens = rng.integers(1, 200, size=k)
    scale = rng.integers(1, 13, size=k)     # common factors to divide out
    carts, xvs, dens = (carts * scale[:, None, None], xvs * scale[:, None],
                        dens * scale)
    carts[3], xvs[3] = 0, 0                 # the zero element over dens[3]
    got = GriessElement.from_rows(alg, carts, xvs, dens)
    want = _rows_by_constructor(GriessElement, alg, carts, xvs, dens)
    assert [(g.key(), g.mag) for g in got] == [(g.key(), g.mag) for g in want]
    assert GriessElement.from_rows(alg, carts[:0], xvs[:0], dens[:0]) == []


def test_batch_elements_own_their_rows():
    # a kept element must not hold a view of its batch's stacked arrays
    alg, e, partners, _ = _point_with_partners()
    for out in (alg.sigma_images(e, partners), alg.products(e, partners)):
        assert out and all(g.cart.base is None and g.xv.base is None for g in out)


def test_from_rows_guards_each_row():
    alg = algebra("A2")
    carts = np.zeros((3, alg.m, alg.m), dtype=np.int64)
    carts[:, 0, 0] = 1
    xvs = np.zeros((3, alg.npairs), dtype=np.int64)
    dens = np.array([1, 2 ** 62 + 1, 3], dtype=np.int64)
    with pytest.raises(SigmaImageError, match="overflow guard") as exc:
        GriessElement.from_rows(alg, carts, xvs, dens)
    assert exc.value.row == 1
    with pytest.raises(GriessError, match="overflow guard"):
        GriessElement(alg, carts[1], xvs[1], 2 ** 62 + 1)
    with pytest.raises(GriessError, match="positive"):
        GriessElement.from_rows(alg, carts, xvs, np.array([1, 0, 3]))


def test_pair_targets_match_pair_of():
    for tag in CATALOG:
        alg = algebra(tag)
        lat, P = alg.lattice, alg.pairs
        dots = (P @ P.T) // lat.scale_sq
        want = [lat.pair_of(P[p] - dots[p, q] * P[q])
                for p, q in zip(alg._tp.tolist(), alg._tq.tolist())]
        assert alg._tr.tolist() == want, tag


@pytest.mark.parametrize("tag,dim", [("A2", 3), ("A3", 6), ("D4", 12),
                                     ("E6", 36), ("E7", 63), ("E8", 120)])
def test_commutant_dimensions(tag, dim):
    alg = algebra(tag)
    kern = alg.commutant_weight2(alg.conformal_wtilde().element)
    assert len(kern) == dim
    assert alg.in_span(alg.w_vector(0, -1).element, kern)
    assert not alg.in_span(alg.w_vector(0, 1).element, kern)


def test_commutant_of_omega_trivial():
    alg = algebra("A3")
    assert alg.commutant_weight2(alg.omega) == []


def test_twist_chain_report():
    report = verify_twist_chain(algebra("E8"), registry.alpha0())
    assert report["ok"]


def test_orthogonal_split_report():
    report = verify_orthogonal_split(algebra("E6"))
    assert report["ok"]
    # E7's even roots are an A7, which has no A5 + A1 split by coordinate 0
    with pytest.raises(GriessError, match="do not split as A5 \\+ A1"):
        verify_orthogonal_split(algebra("E7"))


def test_element_json_roundtrip():
    for tag in CATALOG:
        alg = algebra(tag)
        wt = alg.conformal_wtilde().element
        w = alg.w_vector(0, 1).element
        for elem in (wt, alg.conformal_s().element, wt * w, w * w - wt):
            data = elem.to_json()
            assert len(data["coords"]) == alg.dimension
            assert len(data["basis"]) == alg.dimension
            coords = [Fraction(c) for c in data["coords"]]
            rebuilt = alg.zero()
            for coeff, b in zip(coords, alg._basis_elements()):
                if coeff:
                    rebuilt = rebuilt + coeff * b
            assert rebuilt == elem
    # A3 lives in the sum-zero hyperplane of Z^4: a quadratic with a factor
    # off that hyperplane has no coordinates
    alg = algebra("A3")
    with pytest.raises(GriessError, match="outside the root span"):
        alg.expand(_diagonal_element(alg, 1))
    off = alg.from_quadratic(np.ones(4, dtype=np.int64), alg.lattice.basis[0])
    with pytest.raises(GriessError, match="outside the root span"):
        (off + alg.conformal_wtilde().element).to_json()


@pytest.mark.parametrize("tag", CATALOG)
def test_sublattice_pair_on_all_roots_is_the_full_pair(tag):
    alg = algebra(tag)
    s, wt = alg.sublattice_conformal_pair(alg.lattice.roots)
    assert s == alg.conformal_s()
    assert wt == alg.conformal_wtilde()


def test_commutant_runs_one_elimination(monkeypatch):
    alg = algebra("E6")
    wt = alg.conformal_wtilde().element
    calls, real_rref = [], exact.rref

    def counting_rref(*args):
        calls.append(args)
        return real_rref(*args)

    monkeypatch.setattr(exact, "rref", counting_rref)
    kern = alg.commutant_weight2(wt)
    assert len(calls) == 1
    assert len(kern) == 36
    # a second call eliminates again: no cache outside the registry
    alg.commutant_weight2(wt)
    assert len(calls) == 2


def _diagonal_element(alg, x):
    cart = np.zeros((alg.m, alg.m), dtype=np.int64)
    cart[0, 0] = x
    return GriessElement(alg, cart, np.zeros(alg.npairs, dtype=np.int64), 1)


def test_int64_wrap_is_refused():
    alg = algebra("A2")
    e31, e40 = _diagonal_element(alg, 2 ** 31), _diagonal_element(alg, 2 ** 40)
    # the square's cart[0, 0] is 2**64 exactly, which wrapped to 0
    with pytest.raises(GriessError, match="too large"):
        e31 * e31
    # 2 * 2**80 exactly, which wrapped to 0
    with pytest.raises(GriessError, match="too large"):
        e40.inner(e40)
    # 2**70 exactly, which wrapped to the zero element
    with pytest.raises(GriessError, match="too large"):
        (2 ** 30) * e40
    with pytest.raises(GriessError, match="too large"):
        e40 + GriessElement(alg, e40.cart, e40.xv, 2 ** 23 + 1)
    with pytest.raises(GriessError, match="too large"):
        gram_from_elements([e40, e40])


def test_inner_numerators_match_inner_on_e8_census():
    c = registry.census("lattice:E8")
    cons = [registry.constraint_element(c.algebra, name)
            for name in ("wtilde", "s", "phi:alpha0")]
    nums, dens = c.algebra.inner_numerators(c.elements, cons)
    assert nums.shape == dens.shape == (len(c), 3)
    for e, num_row, den_row in zip(c.elements, nums.tolist(), dens.tolist()):
        assert [Fraction(n, d) for n, d in zip(num_row, den_row)] == \
            [c.algebra.inner(e, f) for f in cons]


def _object_product(alg, a, b):
    """Product of a and b with Python integers, from the structure constants."""
    s2, P = alg.s2, alg.pairs.astype(object)
    A, B = a.cart.astype(object), b.cart.astype(object)
    ax, bx = a.xv.astype(object), b.xv.astype(object)
    cart = 2 * s2 * (A.dot(B) + B.dot(A))
    xv = np.zeros(alg.npairs, dtype=object)
    for p in range(alg.npairs):
        cart = cart + 2 * s2 * s2 * ax[p] * bx[p] * np.outer(P[p], P[p])
        xv[p] += 2 * P[p].dot(A).dot(P[p]) * bx[p] + 2 * P[p].dot(B).dot(P[p]) * ax[p]
        for q in range(alg.npairs):
            d = P[p].dot(P[q]) // s2
            if abs(d) == 1:
                xv[alg.lattice.pair_of(alg.pairs[p] - d * alg.pairs[q])] += \
                    s2 * s2 * ax[p] * bx[q]
    return cart, xv, a.den * b.den * s2 * s2


@st.composite
def _element_pair(draw):
    alg = algebra(draw(st.sampled_from(["A2", "A3"])))
    if draw(st.booleans()):
        ints = st.integers(-1000, 1000)
    else:
        # operands as large as the product bound, or the stacked inner
        # bound of `inner_numerators`, admits
        gain = draw(st.sampled_from([alg.product_gain, 32 * alg.inner_gain]))
        hi = isqrt((INT_GUARD - 1) // gain)
        ints = st.builds(lambda x, sign: sign * x, st.integers(hi // 2, hi),
                         st.sampled_from([1, -1]))

    def element():
        upper = np.array([[draw(ints) if i <= j else 0 for j in range(alg.m)]
                          for i in range(alg.m)], dtype=np.int64)
        xv = np.array([draw(ints) for _ in range(alg.npairs)], dtype=np.int64)
        return GriessElement(alg, upper + np.triu(upper, 1).T, xv,
                             draw(st.integers(1, 50)))
    return alg, element(), element()


@settings(max_examples=60, deadline=None)
@given(_element_pair())
def test_product_and_inner_match_object_reference(case):
    alg, a, b = case
    s4 = alg.s2 * alg.s2
    got_prod, got_inner = alg.product(a, b), alg.inner(a, b)
    stacked = alg.products(a, [b, a])
    pair = transpo_oracle.pair_product(alg, a, b)
    for got, (x, y) in ((got_prod, (a, b)), (stacked[0], (a, b)), (pair, (a, b)),
                        (stacked[1], (a, a))):
        cart, xv, den = _object_product(alg, x, y)
        assert [Fraction(int(v), got.den) for v in got.cart.ravel()] == \
            [Fraction(v, den) for v in cart.ravel()]
        assert [Fraction(int(v), got.den) for v in got.xv] == \
            [Fraction(v, den) for v in xv]
    num = 2 * np.trace(a.cart.astype(object).dot(b.cart.astype(object))) \
        + 2 * s4 * a.xv.astype(object).dot(b.xv.astype(object))
    assert got_inner == Fraction(num, s4 * a.den * b.den)
    if 32 * alg.inner_gain * a.mag * b.mag < INT_GUARD:
        nums, dens = alg.inner_numerators([a, b], [b, a])
        assert [[Fraction(int(n), int(d)) for n, d in zip(*row)]
                for row in zip(nums, dens)] == \
            [[alg.inner(e, f) for f in (b, a)] for e in (a, b)]
    else:
        with pytest.raises(GriessError, match="too large"):
            alg.inner_numerators([a], [b])
