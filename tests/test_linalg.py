import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rookmonoid.linalg import SpanBasis, SparseMatrix, nullspace

from oracles import mat_vec, matmul, matrix_is_zero, matrix_rank as rank, transpose


def dense(rows) -> SparseMatrix:
    return SparseMatrix(
        len(rows),
        len(rows[0]),
        {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)},
    )


def test_matrix_equality_and_transpose():
    m = dense([[1, 0], [Fraction(1, 2), 3]])
    assert m.entries == {
        (0, 0): Fraction(1),
        (1, 0): Fraction(1, 2),
        (1, 1): Fraction(3),
    }
    assert transpose(m).entries == {
        (0, 0): Fraction(1),
        (0, 1): Fraction(1, 2),
        (1, 1): Fraction(3),
    }
    assert m == SparseMatrix(2, 2, {(0, 0): 1, (1, 0): Fraction(1, 2), (1, 1): 3})
    assert matrix_is_zero(SparseMatrix(3, 3, {(0, 1): 0, (2, 2): Fraction(0)}))
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, {(0, 5): 1})


def test_matmul_small():
    a = dense([[1, 2], [0, 1]])
    b = dense([[1, 0], [3, 1]])
    assert matmul(a, b) == dense([[7, 2], [3, 1]])
    assert mat_vec(a, {0: 1, 1: 1}) == {0: 3, 1: 1}


def test_rank_small():
    assert rank(dense([[1, 2], [2, 4]])) == 1
    assert rank(dense([[1, 0], [0, 1]])) == 2
    assert rank(SparseMatrix(3, 3)) == 0


def test_nullspace_small():
    m = dense([[1, 2, 3]])
    basis = nullspace(m)
    assert len(basis) == 2
    for v in basis:
        assert not mat_vec(m, v)


def test_nullspace_exact_fractions():
    m = dense([[Fraction(1, 3), Fraction(1, 7)], [Fraction(2, 3), Fraction(2, 7)]])
    basis = nullspace(m)
    assert len(basis) == 1
    assert not mat_vec(m, basis[0])


def test_span_insert_grows_and_detects_membership():
    b = SpanBasis(3)
    grew = b.insert({0: Fraction(1), 1: Fraction(1)})
    assert grew and b.dimension == 1
    grew = b.insert({0: Fraction(2), 1: Fraction(2)})
    assert not grew and b.dimension == 1
    assert b.contains({0: Fraction(-3), 1: Fraction(-3)})
    assert not b.contains({0: Fraction(1)})


def test_span_rows_are_pivot_normalized():
    b = SpanBasis(3)
    b.insert({0: Fraction(-2, 3), 2: Fraction(4, 3)})
    b.insert({1: 6, 2: 9})
    rows = b.int_rows()
    assert rows == [{0: 1, 2: -2}, {1: 2, 2: 3}]
    for row in rows:
        assert all(type(v) is int for v in row.values())
        assert math.gcd(*row.values()) == 1
        assert row[min(row)] > 0
    assert b.pivots() == (0, 1)


def test_span_equality_is_canonical_under_insertion_order():
    vecs = [
        {0: Fraction(1), 1: Fraction(2), 3: Fraction(1)},
        {1: Fraction(1), 2: Fraction(-1)},
        {0: Fraction(3), 2: Fraction(1, 2)},
    ]
    rng = random.Random(7)
    reference = None
    for _ in range(6):
        order = vecs[:]
        rng.shuffle(order)
        basis = SpanBasis(4)
        for v in order:
            basis.insert(v)
        if reference is None:
            reference = basis
        assert basis == reference
        assert basis.int_rows() == reference.int_rows()


def test_span_rejects_wrong_dimension():
    b = SpanBasis(2)
    with pytest.raises(ValueError):
        b.insert({2: Fraction(1)})
    with pytest.raises(ValueError):
        b.contains({-1: 1})


@st.composite
def fraction_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    numer = st.integers(min_value=-6, max_value=6)
    denom = st.integers(min_value=1, max_value=4)
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if draw(st.booleans()):
                entries[(r, c)] = Fraction(draw(numer), draw(denom))
    return SparseMatrix(rows, cols, entries)


@settings(max_examples=120, deadline=None)
@given(fraction_matrices())
def test_rank_nullity_and_kernel_exactness(m):
    kernel = nullspace(m)
    assert rank(m) + len(kernel) == m.cols
    for v in kernel:
        assert not mat_vec(m, v)
        assert all(type(c) is int for c in v.values())
        assert math.gcd(*v.values()) == 1
    assert rank(m) == rank(transpose(m))


@settings(max_examples=80, deadline=None)
@given(fraction_matrices())
def test_row_space_contains_every_row(m):
    basis = SpanBasis(m.cols)
    for row in m.row_dicts().values():
        basis.insert(row)
    for row in m.row_dicts().values():
        assert basis.contains(row)
