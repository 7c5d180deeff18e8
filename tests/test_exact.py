from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from voacensus import exact

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


@settings(max_examples=150, deadline=None)
@given(int_matrix())
def test_kernel_matches_sympy_nullspace(rows):
    want = [[_fr(x) for x in v] for v in sympy.Matrix(rows).nullspace()]
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


@settings(max_examples=150, deadline=None)
@given(int_matrix(), st.lists(st.integers(-5, 5), min_size=5, max_size=5),
       st.lists(st.integers(-5, 5), min_size=5, max_size=5))
def test_left_solver_against_sympy_rank(rows, x, b):
    a = sympy.Matrix(rows)
    if a.rank() < a.cols:
        with pytest.raises(ValueError):
            exact.LeftSolver(rows)
        return
    solver = exact.LeftSolver(rows)
    x = x[:a.cols]
    assert solver.solve([int(v) for v in a * sympy.Matrix(x)]) == x
    b = b[:a.rows]
    on_span = a.row_join(sympy.Matrix(b)).rank() == a.rank()
    got = solver.solve(b)
    assert (got is not None) == on_span
    if on_span:
        assert list(a * sympy.Matrix(got)) == b


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
    solver = exact.LeftSolver(mat)
    x = [Fraction(3), Fraction(-1, 2), Fraction(5)]
    b = mat.astype(object) @ np.array(x, dtype=object)
    assert solver.solve(np.array([int(v) for v in 2 * b], dtype=np.int64)) == \
        [2 * v for v in x]


def test_rref_edge_shapes():
    assert exact.rref([]) == ([], [])
    assert exact.rref([[0, 0], [0, 0]]) == ([], [])
    # augmented columns are carried but never pivoted on
    red, pivots = exact.rref([[1, 2, 1, 0], [2, 4, 0, 1]], 2)
    assert pivots == [0]
    assert red == [[1, 2, 1, 0], [0, 0, -2, 1]]


def test_no_float_linear_algebra_in_src():
    hits = [f"{p.name}:{i}" for p in sorted(SRC.glob("*.py"))
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if "np.linalg" in line or "numpy.linalg" in line]
    assert hits == []
