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


def _matmul_dtype(monkeypatch, a, b):
    """The dtype `int_product(a, b)` hands to np.matmul, and its result."""
    seen, matmul = [], np.matmul

    def spy(x, y):
        seen.append(x.dtype)
        return matmul(x, y)
    with monkeypatch.context() as patch:
        patch.setattr(np, "matmul", spy)
        out = exact.int_product(a, b, error=ValueError)
    return seen[0], out


def test_int_product_path_follows_the_bound(monkeypatch):
    # bound k max|a| max|b| = 4 * 2^25 * (2^26 - 1) = 2^53 - 2^27, reached by
    # the sum itself: below 2^53, so float64 through BLAS
    a = np.full((1, 4), 1 << 25, dtype=np.int64)
    b = np.full((4, 1), (1 << 26) - 1, dtype=np.int64)
    dtype, out = _matmul_dtype(monkeypatch, a, -b)
    assert dtype == np.float64 and out.dtype == np.int64
    assert out.tolist() == [[-((1 << 53) - (1 << 27))]]
    # exactly 2^53: int64
    dtype, out = _matmul_dtype(monkeypatch, a, b + 1)
    assert dtype == np.int64 and out.tolist() == [[1 << 53]]
    # the int64 minimum has no int64 absolute value; its bound is read on
    # Python ints, and against a zero operand it is 0
    low = np.array([[np.iinfo(np.int64).min]])
    dtype, out = _matmul_dtype(monkeypatch, low, np.zeros((1, 2), dtype=np.int64))
    assert dtype == np.float64 and out.tolist() == [[0, 0]]
    # past INT_GUARD the caller's error, before anything is multiplied
    big = np.full((2, 2), 1 << 31, dtype=np.int64)
    assert 2 * (1 << 31) ** 2 > exact.INT_GUARD
    with pytest.raises(OverflowError, match="too large"):
        exact.int_product(big, big, error=OverflowError)
    with pytest.raises(ValueError, match="too large"):
        exact.int_product(low, np.ones((1, 1), dtype=np.int64), error=ValueError)
    with pytest.raises(ValueError, match="too large"):
        exact.int_product(big[0], big, "i,ij->j", error=ValueError)


@pytest.mark.parametrize("shapes,subscripts", [
    (((3, 4), (4, 5)), None), (((4,), (4, 2)), None), (((3, 4), (4,)), None),
    (((6,), (6,)), None), (((2, 3, 4), (4, 5)), None), (((4, 4), (3, 4, 4)), None),
    (((2, 3, 4), (2, 4, 5)), None), (((0, 3), (3, 2)), None),
    (((2, 0), (0, 3)), None), (((0, 2, 3), (3, 4)), None),
    (((8, 8), (5, 8, 8)), "ij,kji->k"), (((5, 8, 8), (5, 8, 8)), "kij,kji->k"),
    (((5, 7), (5, 7)), "kp,kp->k"), (((6, 3), (6, 3)), "pi,pj->pij"),
    (((4, 3, 2), (4, 5, 2)), "fim,fjm->fij"), (((0, 8, 8), (0, 8, 8)), "kij,kji->k"),
])
@pytest.mark.parametrize("scale", [4, 1 << 20, 1 << 27])
def test_int_product_matches_python_ints(shapes, subscripts, scale):
    # small entries take the float path, 2^27-sized ones the int64 path
    rng = np.random.default_rng(sum(map(sum, shapes)) + scale)
    a, b = (rng.integers(-scale, scale + 1, size=s, dtype=np.int64) for s in shapes)
    want = (a.astype(object) @ b.astype(object) if subscripts is None
            else np.einsum(subscripts, a.astype(object), b.astype(object)))
    got = exact.int_product(a, b, subscripts, error=ValueError)
    assert got.dtype == np.int64 and got.shape == np.shape(want)
    assert np.array_equal(got.astype(object), want)
