import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rookmonoid.linalg import (
    SpanBasis,
    SparseMatrix,
    SparseVector,
    from_rows,
    mat_vec,
    matmul,
    nullspace,
    rank,
)


def test_sparse_vector_drops_zeros():
    v = SparseVector(3, {0: Fraction(1), 2: Fraction(0)})
    assert v.entries == {0: Fraction(1)}
    assert SparseVector(3).is_zero()
    with pytest.raises(ValueError):
        SparseVector(2, {5: Fraction(1)})


def test_sparse_vector_json_roundtrip():
    v = SparseVector(4, {1: Fraction(2, 3), 3: Fraction(-5)})
    assert SparseVector.from_json(v.to_json()) == v


def test_matrix_equality_and_transpose():
    m = from_rows([[1, 0], [Fraction(1, 2), 3]])
    assert m.entries == {
        (0, 0): Fraction(1),
        (1, 0): Fraction(1, 2),
        (1, 1): Fraction(3),
    }
    assert m.transpose().entries == {
        (0, 0): Fraction(1),
        (0, 1): Fraction(1, 2),
        (1, 1): Fraction(3),
    }


def test_triplet_text_roundtrip():
    m = from_rows([[Fraction(1, 3), 0], [0, Fraction(-7, 2)]])
    assert SparseMatrix.from_triplet_text(m.to_triplet_text()) == m


def test_matmul_small():
    a = from_rows([[1, 2], [0, 1]])
    b = from_rows([[1, 0], [3, 1]])
    assert matmul(a, b) == from_rows([[7, 2], [3, 1]])
    v = SparseVector(2, {0: Fraction(1), 1: Fraction(1)})
    assert mat_vec(a, v) == SparseVector(2, {0: Fraction(3), 1: Fraction(1)})


def test_rank_small():
    assert rank(from_rows([[1, 2], [2, 4]])) == 1
    assert rank(from_rows([[1, 0], [0, 1]])) == 2
    assert rank(SparseMatrix(3, 3)) == 0


def test_nullspace_small():
    m = from_rows([[1, 2, 3]])
    basis = nullspace(m)
    assert len(basis) == 2
    for v in basis:
        assert mat_vec(m, v).is_zero()


def test_nullspace_exact_fractions():
    m = from_rows([[Fraction(1, 3), Fraction(1, 7)], [Fraction(2, 3), Fraction(2, 7)]])
    basis = nullspace(m)
    assert len(basis) == 1
    assert mat_vec(m, basis[0]).is_zero()


def test_span_insert_grows_and_detects_membership():
    b0 = SpanBasis(3)
    b1 = b0.copy()
    grew = b1.insert(SparseVector(3, {0: Fraction(1), 1: Fraction(1)}))
    assert grew and b1.dimension == 1
    assert b0.dimension == 0
    b2 = b1.copy()
    grew = b2.insert(SparseVector(3, {0: Fraction(2), 1: Fraction(2)}))
    assert not grew and b2.dimension == 1
    assert b1.contains(SparseVector(3, {0: Fraction(-3), 1: Fraction(-3)}))
    assert not b1.contains(SparseVector(3, {0: Fraction(1)}))


def test_span_rows_are_pivot_normalized():
    b = SpanBasis(3)
    b.insert({0: Fraction(2), 2: Fraction(4)})
    b.insert({1: Fraction(3), 2: Fraction(3)})
    rows = b.rows()
    assert rows[0].entries == {0: Fraction(1), 2: Fraction(2)}
    assert rows[1].entries == {1: Fraction(1), 2: Fraction(1)}
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
        b.insert(SparseVector(3, {0: Fraction(1)}))


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
        assert mat_vec(m, v).is_zero()
    assert rank(m) == rank(m.transpose())


@settings(max_examples=80, deadline=None)
@given(fraction_matrices())
def test_row_space_contains_every_row(m):
    basis = SpanBasis(m.cols)
    for row in m.row_dicts().values():
        basis.insert(row)
    for row in m.row_dicts().values():
        assert basis.contains(row)
