from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qseries_oracle
from voacensus import qchar as qc
from verma_oracle import irreducible_dims


def test_unitary_table_values():
    assert qc.unitary_central_charge(1) == Fraction(1, 2)
    assert qc.unitary_central_charge(2) == Fraction(7, 10)
    assert qc.unitary_central_charge(4) == Fraction(6, 7)
    assert qc.unitary_central_charge(5) == Fraction(25, 28)
    assert qc.unitary_weight(1, 1, 2) == Fraction(1, 16)
    assert qc.unitary_weight(1, 1, 3) == Fraction(1, 2)
    with pytest.raises(qc.QSeriesError):
        qc.unitary_weight(1, 3, 1)


def test_degree_seven_tuples():
    tup = [qc.unitary_weight(1, 1, 3), qc.unitary_weight(2, 3, 3),
           qc.unitary_weight(3, 3, 5), qc.unitary_weight(4, 5, 5),
           qc.unitary_weight(5, 5, 7), qc.unitary_weight(6, 7, 7),
           qc.unitary_weight(7, 7, 9)]
    assert tup == [Fraction(1, 2), Fraction(1, 10), Fraction(2, 5),
                   Fraction(1, 7), Fraction(5, 14), Fraction(1, 6),
                   Fraction(1, 3)]
    assert sum(tup) == 2
    tup2 = [qc.unitary_weight(5, 1, 3), qc.unitary_weight(6, 3, 5),
            qc.unitary_weight(7, 5, 5)]
    assert tup2 == [Fraction(3, 4), Fraction(7, 12), Fraction(1, 15)]


def test_minimal_character_against_verma_oracle():
    # every irreducible in the first three unitary tables, to depth 8
    for m in (1, 2, 3):
        c = qc.unitary_central_charge(m)
        seen = set()
        for r in range(1, m + 2):
            for s in range(1, m + 3):
                h = qc.unitary_weight(m, r, s)
                if h in seen:
                    continue
                seen.add(h)
                depth = 8
                dims = irreducible_dims(c.numerator, c.denominator,
                                        h.numerator, h.denominator, depth)
                ch = qc.minimal_character(m, r, s, int(h) + depth + 1)
                got = tuple(ch.coefficient(h + n) for n in range(depth + 1))
                assert got == dims, (m, r, s)


def test_qseries_basics():
    a = qc.QSeries({Fraction(0): 1, Fraction(1, 2): 3}, 4)
    b = qc.QSeries({Fraction(1, 2): -3, Fraction(2): 5}, 4)
    s = a + b
    assert s.coefficient(Fraction(1, 2)) == 0
    assert s.coefficient(2) == 5
    with pytest.raises(qc.QSeriesError):
        s.coefficient(5)
    assert (a - a).is_zero()
    assert a.denom == 2


def test_qseries_mul_cutoff_tracking():
    a = qc.QSeries({Fraction(1): 1}, 3)     # valid through exponent 3
    b = qc.QSeries({Fraction(2): 1}, 10)
    p = a * b
    assert p.coefficient(3) == 1
    # validity: min(3 + 2, 10 + 1) = 5
    assert p.cutoff == 5


@st.composite
def small_series(draw):
    n_terms = draw(st.integers(0, 5))
    coeffs = {}
    for _ in range(n_terms):
        num = draw(st.integers(0, 12))
        den = draw(st.sampled_from([1, 2, 3, 4]))
        coeffs[Fraction(num, den)] = draw(st.integers(-5, 5))
    return qc.QSeries(coeffs, 6)


@settings(max_examples=50, deadline=None)
@given(small_series(), small_series(), small_series())
def test_qseries_ring_axioms(a, b, c):
    assert (a + b).first_mismatch(b + a) is None
    assert ((a + b) + c).first_mismatch(a + (b + c)) is None
    assert (a * b).first_mismatch(b * a) is None
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert lhs.truncate(min(lhs.cutoff, rhs.cutoff)).first_mismatch(rhs) is None


def _fraction(num_lo, num_hi, den_hi=12):
    return st.builds(Fraction, st.integers(num_lo, num_hi), st.integers(1, den_hi))


@st.composite
def grid_terms(draw):
    """Terms on a random grid base + i/den; base denominators run 1..12.

    Coefficients may be 0 and the index list may be empty, so zero series
    come up, and the cutoff may fall below the base.
    """
    base = draw(_fraction(-24, 24))
    den = draw(st.integers(1, 6))
    indices = draw(st.lists(st.integers(0, 12), max_size=6))
    terms = {base + Fraction(i, den): draw(st.integers(-3, 3)) for i in indices}
    return base, den, terms, base + draw(_fraction(-4, 16, 6))


def _pair(drawn):
    """The same series as a grid QSeries, built both ways, and as the oracle."""
    base, den, terms, cutoff = drawn
    grid = [terms.get(base + Fraction(i, den), 0) for i in range(13)]
    new = qc.QSeries(terms, cutoff)
    _assert_same(qc.QSeries.grid(base, den, grid, cutoff), new)
    return new, qseries_oracle.QSeries(terms, cutoff)


def _assert_same(new, old):
    assert new.items() == old.items()
    assert (new.cutoff, new.denom, new.min_exponent(), new.is_zero()) == \
        (old.cutoff, old.denom, old.min_exponent(), old.is_zero())


@settings(max_examples=300, deadline=None)
@given(grid_terms(), grid_terms(), _fraction(-12, 12), _fraction(-6, 12),
       _fraction(-24, 36))
def test_grid_qseries_matches_dict_oracle(x, y, delta, below, probe):
    (a, a_old), (b, b_old) = _pair(x), _pair(y)
    _assert_same(a + b, a_old + b_old)
    _assert_same(a - b, a_old - b_old)
    _assert_same(a * b, a_old * b_old)
    _assert_same(b * a, b_old * a_old)
    _assert_same(a - a, a_old - a_old)
    _assert_same(a.shift(delta), a_old.shift(delta))
    # a truncation point anywhere, including below the minimum exponent
    cut = a.min_exponent() + below
    _assert_same(a.truncate(cut), a_old.truncate(cut))
    assert a.first_mismatch(b) == a_old.first_mismatch(b_old)
    assert b.first_mismatch(a) == b_old.first_mismatch(a_old)
    assert a.first_mismatch(a.truncate(cut)) == \
        a_old.first_mismatch(a_old.truncate(cut))
    for e in [*a_old.coeffs, probe, a.min_exponent() + probe]:
        if e <= a.cutoff:
            assert a.coefficient(e) == a_old.coefficient(e)
        else:
            with pytest.raises(qc.QSeriesError):
                a.coefficient(e)


def test_grid_form_is_canonical():
    # a list ends at its last nonzero coefficient, never at the cutoff
    big = qc.one(10 ** 12)
    assert (big.base, big.den, big.coeffs) == (0, 1, (1,))
    assert (big * big).coeffs == (1,)
    # zeros at both ends go, and the grid coarsens to the nonzero indices
    s = qc.QSeries.grid(Fraction(1, 3), 6, [0, 0, 5, 0, 0, 0, 7, 0, 0], 3)
    assert (s.base, s.den, s.coeffs) == (Fraction(2, 3), 3, (5, 0, 7))
    assert s.items() == [(Fraction(2, 3), 5), (Fraction(4, 3), 7)]
    assert s.denom == 3
    # the tuple shares the cached series immutably
    assert isinstance(qc.minimal_character(2, 1, 1, 6).coeffs, tuple)


def test_euler_products_invert():
    for ell in (1, 3, 8):
        p = qc.euler_power(ell, 10) * qc.euler_power(-ell, 10)
        assert p.truncate(10).first_mismatch(qc.one(10)) is None


def test_twisted_inverse_power_inverts_plus_product():
    N = 12
    for ell in (1, 7, 8):
        # prod_{n>=1} (1 + q^n)^ell, one factor at a time
        p = [1] + [0] * N
        for _ in range(ell):
            for n in range(1, N + 1):
                for m in range(N, n - 1, -1):
                    p[m] += p[m - n]
        plus = qc.QSeries({Fraction(n): c for n, c in enumerate(p)}, N)
        prod = plus * qc.twisted_inverse_power(ell, N)
        assert prod.cutoff == N and prod.first_mismatch(qc.one(N)) is None, ell


def test_vplus_vacuum_and_dims():
    for tag in ("A2", "D4", "E6"):
        v = qc.vplus_character(tag, 2)
        assert v.coefficient(0) == 1
        assert v.coefficient(1) == 0
    assert qc.vplus_character("E8", 3).coefficient(2) == 156
    assert qc.vplus_character("E7", 3).coefficient(2) == 91
    # oracle: quadratic part + root pairs
    from voacensus.registry import algebra
    for tag in ("E7", "E8", "A3"):
        alg = algebra(tag)
        ell = alg.lattice.rank
        assert qc.vplus_character(tag, 3).coefficient(2) == \
            ell * (ell + 1) // 2 + alg.npairs


def test_vfull_refuses_a_cartan_matrix_of_the_wrong_type(monkeypatch):
    # the norm-2 count of the theta series is checked against the root count
    # of the tag's type, also below cutoff 2
    cartan = qc.dynkin.cartan_matrix
    monkeypatch.setattr(qc.dynkin, "cartan_matrix",
                        lambda kind, rank: cartan("A", rank))
    with pytest.raises(qc.dynkin.LatticeError,
                       match="D4: expected 24 roots, counted 20"):
        qc.vfull_character("D4", 0)


def test_affine_character_symmetry_and_top():
    for level, spin in ((1, 0), (2, 1), (4, 2), (8, 0)):
        two = qc.affine_sl2_character(level, spin, 8)
        assert qseries_oracle.z_symmetric(two)
        assert qseries_oracle.top_term_ok(two)


def test_affine_character_rejects_bad_labels():
    with pytest.raises(qc.QSeriesError, match="level -1 is negative"):
        qc.affine_sl2_character(-1, 0, 4)
    with pytest.raises(qc.QSeriesError, match="spin 3 outside 0..2"):
        qc.affine_sl2_character(2, 3, 4)


def test_affine_level_one_is_lattice():
    # level-one vacuum character: theta of the even rank-one lattice over eta
    two = qc.affine_sl2_character(1, 0, 10)
    pinv = qc.euler_power(-1, 10)
    for n in range(11):
        for z in range(-7, 8):
            got = two.slices[n].get(z, 0)
            if z % 2 or z * z // 4 > n:
                assert got == 0
            else:
                assert got == pinv.coefficient(n - z * z // 4)


def test_w_character_identifications():
    ising = qc.minimal_character(1, 1, 1, 8)
    assert qc.w_character(2, 0, 0, 8).first_mismatch(ising) is None
    assert qc.w_character(2, 1, 1, 8).first_mismatch(qc.minimal_character(1, 1, 2, 8)) is None
    assert qc.w_character(2, 0, 2, 8).first_mismatch(qc.minimal_character(1, 1, 3, 8)) is None
    assert qc.parafermion_central_charge(8) == Fraction(7, 5)
    assert qc.parafermion_central_charge(2) == Fraction(1, 2)


def test_w_character_parity_zero():
    z = qc.w_character(4, 1, 2, 6)
    assert z.is_zero()
    with pytest.raises(qc.QSeriesError):
        qc.w_character(4, 5, 0, 6)


def test_branching_reassembly():
    # coset factors times branching modules rebuild the affine character
    for level in range(1, 9):
        for spin in (0, level // 2, level):
            two = qc.affine_sl2_character(level, spin, 6)
            z1 = two.specialize_z1()
            total = qc.QSeries({}, z1.cutoff)
            for k in range(2 * level):
                if (spin + k) % 2:
                    continue
                w = qc.w_character(level, spin, k, 8)
                if w.is_zero():
                    continue
                total = total + qseries_oracle.coset_boson_factor(level, k, 8) * w
            bound = min(total.cutoff, z1.cutoff)
            assert total.truncate(bound).first_mismatch(z1.truncate(bound)) is None, \
                (level, spin)


def test_man_character_values():
    ising = qc.minimal_character(1, 1, 1, 8)
    assert qc.man_character(1, 0, 8).first_mismatch(ising) is None
    for N in range(1, 6):
        assert qc.man_character(N, 0, 4).coefficient(2) == N * (N + 1) // 2
    with pytest.raises(qc.QSeriesError):
        qc.man_character(3, 3, 4)
    with pytest.raises(qc.QSeriesError):
        qc.man_character(3, 6, 4)
    for N in (0, -1):
        with pytest.raises(qc.QSeriesError):
            qc.man_character(N, 0, 4)


def _man_by_tuples(N, twos, upto):
    """Term-by-term tower sum over every even label tuple: the chain-sum oracle."""
    tuples = [()]
    for j in range(N):
        tuples = [t + (k,) for t in tuples for k in range(0, j + 2, 2)]
    total = qc.QSeries({}, upto)
    for tup in tuples:
        ks = list(tup) + [twos]
        prod = qc.one(upto)
        for j in range(1, N + 1):
            prod = prod * qc.minimal_character(j, ks[j - 1] + 1, ks[j] + 1, upto)
            if prod.is_zero():
                break
        total = total + prod.truncate(upto)
    return total


def test_man_character_chain_sum_matches_tuple_oracle():
    # every label of a rank reads one cached walk through step N - 1: asked
    # for in ascending order, in descending order or alone, each label gives
    # the oracle's series and bound
    for N in range(1, 8):
        for upto in ((2, 4) if N == 7 else (2, 5, 8)):
            labels = range(0, N + 2, 2)
            want = {twos: _man_by_tuples(N, twos, upto) for twos in labels}
            for order in [list(labels), list(reversed(labels))] + [[t] for t in labels]:
                qc._tower_prefix.cache_clear()
                for twos in order:
                    got = qc.man_character(N, twos, upto)
                    assert (got.items(), got.cutoff) == \
                        (want[twos].items(), want[twos].cutoff), (N, twos, upto, order)
    # chains that meet a zero factor set these bounds
    assert qc.man_character(6, 4, 2).cutoff == Fraction(12, 7)
    assert qc.man_character(6, 6, 2).cutoff == Fraction(12, 7)
    assert qc.man_character(7, 4, 4).cutoff == Fraction(22, 7)


def _count_products(monkeypatch):
    """Clear the tower walks and count QSeries products from here on."""
    qc._tower_prefix.cache_clear()
    calls = [0]
    mul = qc.QSeries.__mul__

    def counting(self, other):
        calls[0] += 1
        return mul(self, other)
    monkeypatch.setattr(qc.QSeries, "__mul__", counting)
    return calls


def test_verify_computes_each_series_once(monkeypatch):
    # one tower walk per rank, and each branching series computed once and
    # read by every check that needs it: 223 products at this depth
    calls = _count_products(monkeypatch)
    checks = qc.verify_decompositions(4)
    assert all(c["status"] == "pass" for c in checks)
    assert calls[0] <= 250


@pytest.mark.parametrize("N, twos, products", [(6, 0, 37), (4, 2, 15)])
def test_single_label_makes_no_extra_products(monkeypatch, N, twos, products):
    calls = _count_products(monkeypatch)
    qc.man_character(N, twos, 8)
    assert calls[0] == products


def test_display_characters():
    me7 = qc.me7_display_character(4)
    assert me7.coefficient(0) == 1
    assert me7.coefficient(1) == 0
    assert me7.coefficient(2) == 63
    me6 = qc.me6_display_character(4)
    assert me6.coefficient(2) == 36
    assert me6.nonnegative()


def test_verify_decompositions_all_pass():
    checks = qc.verify_decompositions(6)
    assert checks
    failures = [c for c in checks if c["status"] != "pass"]
    assert not failures, failures


def test_character_positivity():
    for series in (qc.vfull_character("A3", 8), qc.vplus_character("D4", 6),
                   qc.man_character(4, 2, 8), qc.w_character(6, 2, 4, 8)):
        assert series.nonnegative()
