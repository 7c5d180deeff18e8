import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import isqrt

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from voacensus import dynkin, gf2code, registry
from voacensus import rootlat as rl
from voacensus.exact import inverse

import lattice_oracle
import theta_oracle

CATALOG = ([f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(2, 13)] +
           ["E6", "E7", "E8", "E8H", "D4C", "D6C", "D8C"])


@pytest.mark.parametrize("tag,count", [
    ("A1", 2), ("A2", 6), ("A5", 30), ("A7", 56),
    ("D2", 4), ("D4", 24), ("D6", 60), ("D8", 112),
    ("E6", 72), ("E7", 126), ("E8", 240),
    ("E8H", 240), ("D4C", 24), ("D6C", 60), ("D8C", 112),
])
def test_root_counts(tag, count):
    lat = rl.build_lattice(tag)
    assert len(lat.roots) == count
    assert lat.coxeter_number * lat.rank == count
    norms = (lat.roots * lat.roots).sum(axis=1)
    assert (norms == 2 * lat.scale_sq).all()


def _vector(n, entries):
    v = [0] * n
    for i, x in entries:
        v[i] = x
    return tuple(v)


def _set_builder_roots(tag):
    """The stored roots of a model, by its textbook description: A_n =
    {e_i - e_j}, D_n = {+-e_i +-e_j}, E8 = {2(+-e_i +-e_j)} with the
    (+-1)^8 of an even number of -1, E7 and E6 the E8 roots with x.1 = 0 and
    with x_0 + x_7 = x_1 + ... + x_6 = 0, and a code frame {+-2e_i} with
    +-1 on the support of each weight-4 codeword."""
    kind, rank = dynkin.lattice_type(tag)
    if tag == "E8H" or tag.endswith("C"):
        code = (gf2code.hamming8_code() if tag == "E8H"
                else gf2code.dual(gf2code.frame_pair_code(rank)))
        n = code.length
        supports = [[i for i in range(n) if w >> i & 1]
                    for w in code.words() if gf2code.weight(w) == 4]
        return ({_vector(n, [(i, s)]) for i in range(n) for s in (2, -2)} |
                {_vector(n, zip(sup, signs)) for sup in supports
                 for signs in product((1, -1), repeat=4)})
    if kind == "A":
        return {_vector(rank + 1, [(i, 1), (j, -1)])
                for i, j in permutations(range(rank + 1), 2)}
    if kind == "D":
        return {_vector(rank, [(i, si), (j, sj)])
                for i, j in combinations(range(rank), 2)
                for si, sj in product((1, -1), repeat=2)}
    e8 = {_vector(8, [(i, si), (j, sj)]) for i, j in combinations(range(8), 2)
          for si, sj in product((2, -2), repeat=2)}
    e8 |= {x for x in product((1, -1), repeat=8) if x.count(-1) % 2 == 0}
    if rank == 7:
        return {x for x in e8 if sum(x) == 0}
    if rank == 6:
        return {x for x in e8 if x[0] + x[7] == 0 and sum(x[1:7]) == 0}
    return e8


@pytest.mark.parametrize("tag", CATALOG + ["A20", "D20", "D12C"])
def test_roots_match_set_builder_description(tag):
    roots = rl.build_lattice(tag).roots.tolist()
    want = _set_builder_roots(tag)
    assert len(roots) == len(want) == dynkin.root_count(*dynkin.lattice_type(tag))
    assert set(map(tuple, roots)) == want


def test_coxeter_and_charges():
    e8 = rl.build_lattice("E8")
    assert e8.coxeter_number == 30
    assert Fraction(2 * 8, 30 + 2) == Fraction(1, 2)
    a1 = rl.build_lattice("A1")
    assert a1.coxeter_number == 2
    assert Fraction(2 * 1, 2 + 2) == Fraction(1, 2)
    e7 = rl.build_lattice("E7")
    assert len(e7.pairs) == 63


def test_invalid_tags():
    for bad in ("F4", "A0", "Q3", "D1", "E08", "DC", "DXC", "D4CC", "A\u00b2"):
        with pytest.raises(rl.LatticeError, match="unknown lattice tag"):
            rl.build_lattice(bad)
    for bad in ("D2C", "D5C"):
        with pytest.raises(rl.LatticeError, match="even rank >= 4"):
            rl.build_lattice(bad)


def test_weyl_reflect_basics():
    lat = rl.build_lattice("E8")
    alpha = lat.roots[0]
    assert (lattice_oracle.weyl_reflect(lat, alpha, alpha) == -alpha).all()
    perp = next(r for r in lat.roots if int(np.dot(r, alpha)) == 0)
    assert (lattice_oracle.weyl_reflect(lat, alpha, perp) == perp).all()
    with pytest.raises(rl.LatticeError):
        lattice_oracle.weyl_reflect(lat, np.array([1, 0, 0, 0, 0, 0, 0, 0]), alpha)


def test_weyl_reflect_preserves_gram():
    lat = rl.build_lattice("E6")
    rng = np.random.RandomState(7)
    roots = lat.roots
    for _ in range(50):
        a = roots[rng.randint(len(roots))]
        u = roots[rng.randint(len(roots))]
        v = roots[rng.randint(len(roots))]
        ru = lattice_oracle.weyl_reflect(lat, a, u)
        rv = lattice_oracle.weyl_reflect(lat, a, v)
        assert lattice_oracle.inner(lat, ru, rv) == lattice_oracle.inner(lat, u, v)


def test_root_orbit_transitive():
    # the reflection closure of one root reaches all of them
    lat = rl.build_lattice("E8")
    roots = {tuple(r) for r in lat.roots.tolist()}
    seen = {tuple(lat.roots[0])}
    frontier = [lat.roots[0]]
    gens = lat.roots[:16]
    while frontier:
        v = frontier.pop()
        for a in gens:
            w = tuple(lattice_oracle.weyl_reflect(lat, a, v))
            if w not in seen:
                seen.add(w)
                frontier.append(np.array(w))
    assert seen == roots


def test_mod2_census():
    lat = rl.build_lattice("E8")
    classes = lat.mod2_classes()
    kinds = {}
    for cl in classes:
        kinds[cl.kind] = kinds.get(cl.kind, 0) + 1
    assert kinds == {"zero": 1, "root-pair": 120, "frame": 135}
    assert len(classes) == 256


def _mod2_classes_per_vector(lat):
    """Oracle: the coset classification `mod2_classes` made one vector at a
    time, bucketing each short vector under its tuple key."""
    buckets = {}
    for coeffs, norm in rl.short_vectors(rl._basis_gram(lat), Fraction(4)):
        key = tuple(c % 2 for c in coeffs)
        vec = tuple(int(x) for x in np.asarray(coeffs, dtype=np.int64) @ lat.basis)
        buckets.setdefault(key, []).append((vec, int(norm)))
    classes = [rl.Mod2Class(tuple([0] * lat.rank), "zero",
                            tuple([0] * lat.ambient), ())]
    for key in sorted(buckets):
        if all(k == 0 for k in key):
            continue
        vecs = buckets[key]
        min_norm = min(n for _, n in vecs)
        mins = tuple(sorted(v for v, n in vecs if n == min_norm))
        if min_norm == 2:
            kind = "root-pair"
            if len(mins) != 2:
                raise rl.LatticeError(f"root-pair class with {len(mins)} minimal vectors")
        else:
            kind = "frame"
            if len(mins) != 16:
                raise rl.LatticeError(f"frame class with {len(mins)} minimal vectors")
            arr = np.array(mins, dtype=np.int64)
            if not np.isin(arr @ arr.T // lat.scale_sq, [-4, 0, 4]).all():
                raise rl.LatticeError("frame class minimal vectors are not a frame")
        classes.append(rl.Mod2Class(key, kind, max(mins), mins))
    if len(classes) != 1 << lat.rank:
        raise rl.LatticeError(f"found {len(classes)} cosets, expected {1 << lat.rank}")
    return classes


@pytest.mark.parametrize("tag", ["E8", "E8H"])
def test_mod2_classes_match_per_vector_oracle(tag):
    lat = rl.build_lattice(tag)
    got = lat.mod2_classes()
    assert got == _mod2_classes_per_vector(lat)
    # plain Python ints throughout, as the census labels and twists use them
    assert all(type(x) is int for cl in got for x in cl.key + cl.representative)


@pytest.mark.parametrize("tag", ["A1", "A2", "A3", "D2", "D4", "D8", "E6", "E7", "D6C",
                                 "D10C", "D12"])
def test_mod2_classes_errors_match_per_vector_oracle(tag):
    lat = rl.build_lattice(tag)
    try:
        want = _mod2_classes_per_vector(lat)
    except rl.LatticeError as exc:
        with pytest.raises(rl.LatticeError) as got:
            lat.mod2_classes()
        assert str(got.value) == str(exc)
    else:
        assert lat.mod2_classes() == want


@pytest.mark.parametrize("tag", [f"A{n}" for n in range(1, 13)]
                         + [f"D{n}" for n in range(2, 13)] + ["E6", "E7", "E8", "E8H"]
                         + [f"D{n}C" for n in range(4, 13, 2)])
def test_norm4_vectors_from_roots_match_enumeration(tag):
    lat = rl.build_lattice(tag)
    coeffs, vecs, norms = lat.norm4_vectors()
    assert (coeffs @ lat.basis == vecs).all()
    got = sorted(zip(map(tuple, coeffs.tolist()), norms.tolist()))
    want = [(x, int(n)) for x, n in rl.short_vectors(rl._basis_gram(lat), 4)]
    assert got == want


def test_mod2_frame_classes_are_frames():
    lat = rl.build_lattice("E8")
    for cl in lat.mod2_classes():
        if cl.kind == "frame":
            arr = np.array(cl.min_vectors, dtype=np.int64)
            assert len(arr) == 16
            gram = arr @ arr.T // lat.scale_sq
            assert np.isin(gram, [-4, 0, 4]).all()
            assert (np.diag(gram) == 4).all()
        elif cl.kind == "root-pair":
            assert len(cl.min_vectors) == 2


def test_class_of_consistency():
    lat = rl.build_lattice("E8")
    class_of = lattice_oracle.class_lookup(lat)
    cl = class_of(lat.roots[5])
    assert cl.kind == "root-pair"
    assert class_of(np.zeros(8, dtype=np.int64)).kind == "zero"
    doubled = 2 * lat.basis[0]
    assert class_of(doubled).kind == "zero"


def test_coords_are_exact_on_non_lattice_vectors():
    lat = rl.build_lattice("A2")
    half = np.array([0.5, -0.5, 0.0])
    # a half-root is in the rational span but not in the lattice; it must not
    # be truncated to an integer vector on the way in
    coeffs = lat.coords(half)
    recon = [sum(c * int(b[k]) for c, b in zip(coeffs, lat.basis)) for k in range(3)]
    assert recon == [Fraction(1, 2), Fraction(-1, 2), 0]
    assert half not in lat
    assert np.array([1, -1, 0]) in lat
    with pytest.raises(rl.LatticeError):
        lat.coords(np.array([1, 0, 0]))
    assert np.array([1, 0, 0]) not in lat


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CATALOG), st.data())
def test_coords_against_sympy_rank(tag, data):
    lat = registry.lattice(tag)
    n, m = lat.rank, lat.ambient
    # in the span: rational coordinates come back exactly
    x = data.draw(st.lists(st.fractions(-5, 5, max_denominator=4),
                           min_size=n, max_size=n))
    v = [sum(c * int(b[k]) for c, b in zip(x, lat.basis)) for k in range(m)]
    assert lat.coords(v) == tuple(x)
    # an integer vector: coordinates iff sympy puts it in the row span
    b = data.draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m))
    basis = sympy.Matrix(lat.basis.tolist())
    if basis.col_join(sympy.Matrix([b])).rank() == n:
        coeffs = lat.coords(np.array(b, dtype=np.int64))
        assert [sum(c * int(r[k]) for c, r in zip(coeffs, lat.basis))
                for k in range(m)] == b
    else:
        with pytest.raises(rl.LatticeError, match="not in the lattice span"):
            lat.coords(np.array(b, dtype=np.int64))


# the glue of A7 in the E7 sum-zero model, in stored coordinates: the
# coordinate-model oracle of the omega_4 coset that `qchar` counts
XI = (1, 1, 1, 1, -1, -1, -1, -1)


def a7_in_e7() -> rl.RootLattice:
    """A7 as its own lattice: the 56 roots of the cached E7 model whose
    stored coordinates are all even."""
    e7 = registry.lattice("E7")
    return rl.RootLattice("A7@E7", "A", 7, 8, e7.scale_sq,
                          e7.roots[(e7.roots % 2 == 0).all(axis=1)])


def test_sublattice_embedding_a1_e7():
    # alpha0 is the largest root of the cached E8; its perp is an E7
    e8 = registry.lattice("E8")
    a0 = registry.alpha0()
    assert a0 == max(map(tuple, e8.roots.tolist()))
    perp = e8.roots[e8.roots @ np.array(a0) == 0]
    assert len(perp) == 126
    rl.RootLattice("E7@E8", "E", 7, 8, e8.scale_sq, perp)


def test_sublattice_embedding_a7_e7():
    e7 = registry.lattice("E7")
    a7 = a7_in_e7()
    assert len(a7.roots) == 56 and all(lattice_oracle.is_root(e7, r) for r in a7.roots)
    xi = np.array(XI, dtype=np.int64)
    assert not lattice_oracle.is_root(a7, xi)
    # xi is in the ambient lattice, 2*xi is in the sublattice, xi is not
    assert xi in e7 and 2 * xi in a7 and xi not in a7
    # index two: every ambient root is in the sublattice or in xi + it
    assert all(r in a7 or r - xi in a7 for r in e7.roots)


def test_sublattice_embedding_e6():
    # the split verify_orthogonal_split reads off the cached E6
    e6 = registry.lattice("E6")
    even = e6.roots[(e6.roots % 2 == 0).all(axis=1)]
    l1, l2 = even[even[:, 0] == 0], even[even[:, 0] != 0]
    assert len(l1) == 30 and len(l2) == 2
    assert (l1[:, 7] == 0).all()
    assert l2[0].tolist() == [-2, 0, 0, 0, 0, 0, 0, 2]
    rl.RootLattice("A5@E6", "A", 5, 8, e6.scale_sq, l1)
    assert np.array(XI, dtype=np.int64) in e6


def test_norm_counts_known_thetas():
    counts = rl.norm_counts(rl.build_lattice("E8"), 4)
    assert counts[Fraction(0)] == 1
    assert counts[Fraction(2)] == 240
    assert counts[Fraction(4)] == 2160
    counts7 = rl.norm_counts(rl.build_lattice("E7"), 2)
    assert counts7[Fraction(2)] == 126


def test_norm_counts_zero_vector_counted_once_for_any_lattice_shift():
    a2 = rl.build_lattice("A2")
    expect = {Fraction(0): 1, Fraction(2): 6}
    assert rl.norm_counts(a2, 2) == expect
    assert rl.norm_counts(a2, 2, np.zeros(3, dtype=np.int64)) == expect
    assert rl.norm_counts(a2, 2, np.array([1, -1, 0])) == expect
    # a coset without the zero vector, and a bound below every norm
    assert rl.norm_counts(a2, 2, np.array([Fraction(1, 2), Fraction(-1, 2), 0],
                                          dtype=object)) == \
        {Fraction(1, 2): 2, Fraction(3, 2): 2}
    assert rl.norm_counts(a2, -1) == {}
    assert rl.norm_counts(a2, -1, np.zeros(3, dtype=np.int64)) == {}


def test_norm_counts_shifted_coset():
    lat = a7_in_e7()
    counts = rl.norm_counts(lat, 4, np.array(XI, dtype=np.int64))
    # the shifted coset has no vectors of norm below 3/2 and none of norm 0
    assert all(n >= Fraction(3, 2) for n in counts)
    assert sum(c for n, c in counts.items() if n == min(counts)) > 0


@pytest.mark.parametrize("tag", CATALOG)
def test_cartan_theta_matches_built_model(tag):
    # a theta series depends on the Dynkin type alone: the type's textbook
    # coordinate model against the HNF basis of the catalog model
    lat = rl.build_lattice(tag)
    kind, rank = dynkin.lattice_type(tag)
    assert (kind, rank) == (lat.kind, lat.rank)
    theta = dynkin.theta(kind, rank, 6)
    assert theta == rl.norm_counts(lat, 6)
    assert theta[2] == dynkin.root_count(kind, rank) == len(lat.roots)


def _coset_theta(upto):
    """The counts of the coset omega_4 + A7: those of E7 less those of A7."""
    a7 = dynkin.theta("A", 7, upto)
    coset = {n: c - a7.get(n, 0) for n, c in dynkin.theta("E", 7, upto).items()}
    return {n: c for n, c in coset.items() if c}


def test_omega4_coset_matches_xi_coset_of_e7_model():
    want = rl.norm_counts(a7_in_e7(), 8, np.array(XI, dtype=np.int64))
    got = _coset_theta(8)
    assert got == want
    assert min(got) == 2 and got[2] == 70


_TYPES = ([("A", n) for n in range(1, 21)] + [("D", n) for n in range(2, 21)] +
          [("E", n) for n in (6, 7, 8)])


@pytest.mark.parametrize("kind,rank", _TYPES)
def test_theta_matches_cartan_oracle(kind, rank):
    # Fincke-Pohst on the Cartan matrix counts the same lattice
    cartan = theta_oracle.cartan_matrix(kind, rank)
    for bound in range(9 if rank <= 12 else 5):
        assert dynkin.theta(kind, rank, bound) == theta_oracle.theta_counts(cartan, bound)


def test_coset_theta_matches_omega4_oracle():
    cartan = theta_oracle.cartan_matrix("A", 7)
    for bound in range(2, 9):
        assert _coset_theta(bound) == \
            theta_oracle.theta_counts(cartan, bound, theta_oracle.OMEGA4)


def test_theta_below_zero_is_empty():
    assert all(dynkin.theta(kind, rank, -1) == {} for kind, rank in _TYPES)


def test_theta_memory_is_linear_in_rank_and_bound():
    # one int list per residue of the coordinate sum mod n+1; a dict keyed on
    # the exact sum peaks near 2 MiB here
    tracemalloc.start()
    try:
        dynkin.theta("A", 8, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_root_isometry_models():
    e8 = rl.build_lattice("E8")
    e8h = rl.build_lattice("E8H")
    T = lattice_oracle.root_isometry(e8, e8h)
    assert T is not None
    # bijective on roots with exact preservation of inner products
    imgs = set()
    for r in e8.roots:
        img = lattice_oracle.apply_fraction_map(T, r)
        assert all(x.denominator == 1 for x in img)
        imgs.add(tuple(int(x) for x in img))
    assert imgs == {tuple(r) for r in e8h.roots.tolist()}


# ---------------------------------------------------------------------------
# short-vector enumeration against the Fraction Fincke-Pohst it replaced


def _fraction_enumerate_short(gram, bound: Fraction, shift=None):
    """Oracle: Fincke-Pohst over Fractions with a float-seeded radius."""
    n = len(gram)
    L = [[Fraction(0)] * n for _ in range(n)]
    D = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            s = gram[i][j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))
            L[i][j] = s / D[j]
        D[i] = gram[i][i] - sum(L[i][k] ** 2 * D[k] for k in range(i))
        if D[i] <= 0:
            raise rl.LatticeError("Gram matrix is not positive definite")
        L[i][i] = Fraction(1)
    shift = [Fraction(0)] * n if shift is None else [Fraction(s) for s in shift]
    shift_zero = all(s == 0 for s in shift)
    out = []
    coeffs_full = [Fraction(0)] * n

    def rec(i: int, rem: Fraction, coeffs: list[int]):
        if i < 0:
            if shift_zero and all(c == 0 for c in coeffs):
                return
            out.append((tuple(reversed(coeffs)), bound - rem))
            return
        center = -shift[i] - sum(L[k][i] * (coeffs_full[k] + shift[k])
                                 for k in range(i + 1, n))
        radius = _fsqrt_upper(rem / D[i])
        c = _ceil_fr(center - radius)
        while Fraction(c) <= center + radius:
            coeffs_full[i] = Fraction(c)
            used = D[i] * (Fraction(c) - center) ** 2
            if used <= rem:
                coeffs.append(c)
                rec(i - 1, rem - used, coeffs)
                coeffs.pop()
            c += 1

    rec(n - 1, bound, [])
    return sorted(out)


def _fsqrt_upper(x: Fraction) -> Fraction:
    if x < 0:
        return Fraction(-1)
    r = Fraction(int((float(x) ** 0.5 + 1e-9) * 10 ** 9) + 2, 10 ** 9)
    while r * r < x:
        r += Fraction(1, 10 ** 6)
    return r


def _ceil_fr(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _inner_gram(lat):
    return [[lattice_oracle.inner(lat, a, b) for b in lat.basis] for a in lat.basis]


@pytest.mark.parametrize("bound", [4, 6])
@pytest.mark.parametrize("tag", CATALOG)
def test_enumeration_matches_fraction_oracle(tag, bound):
    lat = rl.build_lattice(tag)
    gram = _inner_gram(lat)
    assert rl._basis_gram(lat) == gram
    got = rl.short_vectors(gram, Fraction(bound))
    assert got == _fraction_enumerate_short(gram, Fraction(bound))


@pytest.mark.parametrize("bound", [Fraction(5, 2), Fraction(4), Fraction(8)])
def test_shifted_enumeration_matches_fraction_oracle(bound):
    lat = a7_in_e7()
    shift = lat.coords(np.array(XI, dtype=np.int64))
    assert any(c.denominator > 1 for c in shift)
    gram = _inner_gram(lat)
    got = rl.short_vectors(gram, bound, shift)
    assert got and got == _fraction_enumerate_short(gram, bound, shift)


def test_enumeration_rejects_indefinite_gram():
    for gram in ([[1, 2], [2, 1]], [[2, 0], [0, 0]], [[-1]]):
        with pytest.raises(rl.LatticeError, match="not positive definite"):
            rl.short_vectors(gram, Fraction(4))


def test_enumeration_leaves_out_origin_only_for_zero_shift():
    assert rl.short_vectors([[1]], Fraction(1), [Fraction(0)]) == \
        rl.short_vectors([[1]], Fraction(1)) == [((-1,), 1), ((1,), 1)]
    assert rl.short_vectors([[1]], Fraction(1), [1]) == \
        [((-2,), 1), ((-1,), 0), ((0,), 1)]


def _brute_force_short(g_int, scale, bound, shift):
    """Every x in a box around -shift with norm <= bound (x = 0 left out
    when the shift is zero), by direct sums."""
    n = len(g_int)
    sh = [Fraction(0)] * n if shift is None else shift
    num, den = inverse(g_int)
    # |x_i + shift_i| <= sqrt(bound * (gram^-1)_ii) on the ellipsoid
    box = []
    for i in range(n):
        radius = isqrt(max(0, -((-bound * scale * int(num[i][i])) // den))) + 1
        box.append(np.arange(int(-sh[i]) - radius - 1, int(-sh[i]) + radius + 2))
    xs = np.array(np.meshgrid(*box, indexing="ij")).reshape(n, -1).T
    # s m^2 norm = y G y^T for the integer y = m (x + shift)
    m = int(np.lcm.reduce([c.denominator for c in sh]))
    ys = m * xs + np.array([int(c * m) for c in sh])
    quad = np.einsum("ki,ij,kj->k", ys, np.array(g_int), ys)
    out = []
    for x, q in zip(xs.tolist(), quad.tolist()):
        norm = Fraction(q, scale * m * m)
        if norm <= bound and (any(sh) or any(x)):
            assert all(r[0] < xi < r[-1] for xi, r in zip(x, box))
            out.append((tuple(x), norm))
    return out


_rational = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_enumeration_matches_brute_force(data):
    n = data.draw(st.integers(1, 4))
    a = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                           min_size=n, max_size=n))
    # A^T A + I is a positive definite integer Gram
    g_int = [[sum(a[k][i] * a[k][j] for k in range(n)) + (i == j) for j in range(n)]
             for i in range(n)]
    scale = data.draw(st.integers(1, 2))
    bound = Fraction(data.draw(st.integers(-1, 7)), data.draw(st.integers(1, 2)))
    shift = data.draw(st.none() | st.lists(_rational, min_size=n, max_size=n))
    gram = [[Fraction(x, scale) for x in row] for row in g_int]
    expected = _brute_force_short(g_int, scale, bound, shift)
    assert rl.short_vectors(gram, bound, shift) == expected
    # the counting oracle: the same norms, the origin counted when it is there
    counts = Counter(norm for _, norm in expected)
    if not any(shift or ()) and bound >= 0:
        counts[Fraction(0)] += 1
    assert theta_oracle.theta_counts(gram, bound, shift) == counts
