from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracle import fraction_rref
from voacensus import exact, registry

SRC = Path(__file__).resolve().parent.parent / "src" / "voacensus"


@st.composite
def int_matrix(draw, square=False):
    """Small integer matrices; about half are products of thinner factors,
    so rank-deficient inputs come up often."""
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 5))
    entry = st.integers(-4, 4)
    if draw(st.booleans()):
        inner = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        left = np.array(draw(st.lists(st.lists(entry, min_size=inner, max_size=inner),
                                      min_size=rows, max_size=rows)), dtype=object)
        right = np.array(draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                       min_size=inner, max_size=inner)), dtype=object)
        return (left @ right).tolist()
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


def _fr(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def _sympy_rows(mat: sympy.Matrix) -> list[list[Fraction]]:
    return [[_fr(x) for x in mat.row(i)] for i in range(mat.rows)]


@settings(max_examples=150, deadline=None)
@given(int_matrix())
def test_rref_matches_sympy(rows):
    red, pivots = exact.rref(rows)
    want, want_pivots = sympy.Matrix(rows).rref()
    assert pivots == list(want_pivots)
    assert red == _sympy_rows(want)[:len(want_pivots)]


@st.composite
def mixed_matrix(draw):
    """Rational matrices as Fraction rows or np.int64 arrays, often rank
    deficient, with a pivot-column bound of None or 0..cols."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    if draw(st.booleans()):
        entry = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    else:
        entry = st.integers(-(1 << 40), 1 << 40) | st.integers(-3, 3)
    mat = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows))
    if rows > 1 and draw(st.booleans()):
        # a combination of earlier rows, so some rows reduce to zero
        k = draw(st.integers(1, rows - 1))
        mat[k] = [2 * a - b for a, b in zip(mat[0], mat[k - 1])]
    if isinstance(mat[0][0], int) and draw(st.booleans()):
        mat = np.array(mat, dtype=np.int64)
    ncols = draw(st.none() | st.integers(0, cols))
    return mat, ncols


@settings(max_examples=300, deadline=None)
@given(mixed_matrix())
def test_rref_matches_fraction_elimination(case):
    # the integer elimination returns the Fraction one's pivot rows; the
    # rows left past the pivots, nonzero only in carried columns, are dropped
    mat, ncols = case
    want, pivots = fraction_rref(mat, ncols)
    assert exact.rref(mat, ncols) == (want[:len(pivots)], pivots)


@settings(max_examples=150, deadline=None)
@given(int_matrix())
def test_kernel_matches_sympy_nullspace(rows):
    # the kernel basis is the unique RREF of the null space
    null = sympy.Matrix(rows).nullspace()
    want = _sympy_rows(sympy.Matrix.hstack(*null).T.rref()[0]) if null else []
    assert exact.kernel(rows) == want


@settings(max_examples=150, deadline=None)
@given(int_matrix(square=True))
def test_inverse_matches_sympy(rows):
    m = sympy.Matrix(rows)
    if m.det() == 0:
        with pytest.raises(ValueError):
            exact.inverse(rows)
        return
    num, den = exact.inverse(np.array(rows, dtype=np.int64))
    assert [[Fraction(int(x), den) for x in row] for row in num] == \
        _sympy_rows(m.inv())


def test_int64_entries_do_not_wrap():
    # products of 2**40-sized entries leave int64; numpy scalars that reached
    # the Fractions would wrap instead of growing
    big = 1 << 40
    mat = np.array([[big + 1, big, 3], [big, big - 1, 5], [7, 11, big]],
                   dtype=np.int64)
    # this inverse has numerators past int64, which must raise, not wrap
    with pytest.raises(OverflowError):
        exact.inverse(mat)
    unimodular = np.array([[big + 1, big, 0], [big, big - 1, 0], [0, 0, 1]],
                          dtype=np.int64)
    num, den = exact.inverse(unimodular)
    assert den == 1
    assert num.tolist() == [[1 - big, big, 0], [big, -1 - big, 0], [0, 0, 1]]
    red, pivots = exact.rref(mat)
    assert pivots == [0, 1, 2]
    assert all(type(x.numerator) is int for row in red for x in row)
    # coordinates of large multiples of wtilde on E7 pass through
    # G^-1 B C B^T G^-1, which for the 2**56 + 1 multiple is past int64;
    # they must rebuild the element exactly
    alg = registry.algebra("E7")
    basis = [b.astype(object) for b in alg.lattice.basis]
    ell = alg.lattice.rank
    labels = [(i, j) for i in range(ell) for j in range(i, ell)]
    for k in (big + 1, (1 << 56) + 1):
        elem = k * alg.conformal_wtilde().element
        coords = elem.coords()
        quad = sum(c * (np.outer(basis[i], basis[j]) + np.outer(basis[j], basis[i]))
                   / 2 for c, (i, j) in zip(coords, labels))
        assert (quad == elem.cart.astype(object) * Fraction(1, elem.den)).all()
        assert coords[len(labels):] == [Fraction(int(x), elem.den) for x in elem.xv]


def test_rref_edge_shapes():
    assert exact.rref([]) == ([], [])
    assert exact.rref([[0, 0], [0, 0]]) == ([], [])
    # augmented columns are carried but never pivoted on, and a row left
    # past the pivots is dropped although it is nonzero in them
    red, pivots = exact.rref([[1, 2, 1, 0], [2, 4, 0, 1]], 2)
    assert pivots == [0]
    assert red == [[1, 2, 1, 0]]


def test_no_float_linear_algebra_in_src():
    hits = [f"{p.name}:{i}" for p in sorted(SRC.glob("*.py"))
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if "np.linalg" in line or "numpy.linalg" in line]
    assert hits == []
