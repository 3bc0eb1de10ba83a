import itertools
import math
from fractions import Fraction

import pytest

from rookmonoid.algebra import (
    AlgebraElement,
    tableau_quasi_idempotent,
    top_antisymmetrizer,
)
from rookmonoid.caps import DEFAULT_MAX_CELLS, SizeCapError, check_tensor_cap, phi_entry_count
from rookmonoid.diagrams import all_diagrams, generator, identity, monoid_order, multiply
from rookmonoid.linalg import SparseMatrix, nullspace
from rookmonoid.specht import all_shapes, column_filled_tableau, row_filled_tableau
from rookmonoid.tensor import (
    annihilator_basis,
    diagram_map,
    element_matrix,
    phi_matrix,
    phi_rank,
    tensor_dim,
)

from oracles import (
    diagram_entries,
    diagram_matrix,
    element_from_coordinates,
    mat_vec,
    matmul,
    matrix_rank as rank,
    tensor_index,
)


def test_tensor_dim():
    assert tensor_dim(1, 2) == 4
    assert tensor_dim(2, 3) == 27
    assert tensor_dim(0, 4) == 1


def test_tensor_index_big_endian():
    assert tensor_index((0, 0), 1) == 0
    assert tensor_index((0, 1), 1) == 1
    assert tensor_index((1, 0), 1) == 2
    assert tensor_index((1, 2), 2) == 5
    with pytest.raises(ValueError):
        tensor_index((3,), 2)


@pytest.mark.parametrize(
    "m, n", [(m, n) for n in range(1, 6) for m in range(3)] + [(3, n) for n in range(1, 5)]
)
def test_diagram_map_matches_the_digit_by_digit_action(m, n):
    # each column of the reference matrix holds at most one 1, at the row
    # the map sends it to; the map sends every other column to dim
    dim = tensor_dim(m, n)
    for d in all_diagrams(n):
        expect = [dim] * (dim + 1)
        for row, col in diagram_entries(d, m):
            assert expect[col] == dim, (d, col)
            expect[col] = row
        assert diagram_map(d, m) == tuple(expect), (m, d)


def test_identity_diagram_is_identity_matrix():
    for m, n in ((1, 1), (1, 2), (2, 2)):
        mat = diagram_matrix(identity(n), m)
        dim = tensor_dim(m, n)
        assert mat.entries == {(i, i): Fraction(1) for i in range(dim)}


def test_swap_matrix_n2():
    # s_1 swaps the two tensor factors
    m = 2
    s = generator(2, "s", 1)
    mat = diagram_matrix(s, m)
    for a, b in itertools.product(range(m + 1), repeat=2):
        col = tensor_index((a, b), m)
        row = tensor_index((b, a), m)
        assert mat.entries.get((row, col)) == Fraction(1)
    assert len(mat.entries) == (m + 1) ** 2


def test_deletion_matrix_n1():
    # p_1 on a single factor: only digit 0 passes through
    mat = diagram_matrix((0,), 1)
    assert mat.entries == {(0, 0): Fraction(1)}


def test_deletion_matrix_frozen_n2():
    # p_1 = (0, 2): bottom 1 is isolated so input digit at slot 1 must be 0,
    # top 1 is isolated so output digit at slot 1 is 0
    mat = diagram_matrix((0, 2), 1)
    assert mat.entries == {
        (tensor_index((0, 0), 1), tensor_index((0, 0), 1)): Fraction(1),
        (tensor_index((0, 1), 1), tensor_index((0, 1), 1)): Fraction(1),
    }


def test_action_is_monoid_homomorphism_exhaustive():
    m, n = 1, 2
    mats = {d: diagram_matrix(d, m) for d in all_diagrams(n)}
    for d1, d2 in itertools.product(all_diagrams(n), repeat=2):
        # digits enter at the bottom of d1 d2 (= bottom of d2), exit at the top
        assert mats[multiply(d1, d2)] == matmul(mats[d1], mats[d2])


def test_columns_agree_with_factorized_permutation():
    # on inputs that survive (digit 0 at every isolated bottom), a diagram
    # moves digits exactly like the permutation part of its factorization
    from rookmonoid.diagrams import factorize, inverse

    m, n = 1, 3
    for d in all_diagrams(n):
        q = factorize(d)
        w = multiply(multiply(inverse(q.d1), q.sigma), q.d2)
        mat_d = diagram_matrix(d, m)
        mat_w = diagram_matrix(w, m)
        cols_d = {c for (_, c) in mat_d.entries}
        for (row, col), val in mat_d.entries.items():
            assert mat_w.entries.get((row, col)) == val
        # and w has no extra entries on the surviving columns
        for (row, col), val in mat_w.entries.items():
            if col in cols_d:
                assert mat_d.entries.get((row, col)) == val


def test_element_matrix_is_linear():
    m, n = 1, 2
    diags = all_diagrams(n)
    a = AlgebraElement(n, {diags[1]: Fraction(1, 2), diags[4]: Fraction(-3)})
    b = AlgebraElement(n, {diags[1]: Fraction(1, 2), diags[6]: Fraction(5)})
    ma = element_matrix(a, m)
    mb = element_matrix(b, m)
    msum = element_matrix(a + b, m)
    combined: dict[tuple[int, int], Fraction] = dict(ma.entries)
    for key, val in mb.entries.items():
        acc = combined.get(key, Fraction(0)) + val
        if acc:
            combined[key] = acc
        else:
            combined.pop(key, None)
    assert msum == SparseMatrix(ma.rows, ma.cols, combined)


def test_element_matrix_cancels_exactly():
    # d - d maps to the zero matrix with no stored entries
    n, m = 2, 1
    d = all_diagrams(n)[3]
    a = AlgebraElement.from_diagram(d)
    assert element_matrix(a - a, m).entries == {}


def test_top_antisymmetrizer_kills_small_tensor_space():
    # with m + 1 factors antisymmetrized over only m + 1 distinct digits,
    # the action collapses: Y_{m+1} acts as zero whenever m < n
    for m, n in ((1, 2), (1, 3), (2, 3)):
        y = top_antisymmetrizer(m + 1, n)
        assert element_matrix(y, m).entries == {}


def test_top_antisymmetrizer_faithful_when_wide():
    # m >= n leaves room: Y_n acts nonzero
    for m, n in ((2, 2), (3, 3)):
        y = top_antisymmetrizer(n, n)
        assert element_matrix(y, m).entries != {}


def test_phi_matrix_shape_and_columns():
    m, n = 1, 2
    phi = phi_matrix(m, n)
    dim = tensor_dim(m, n)
    assert (phi.rows, phi.cols) == (dim * dim, monoid_order(n))
    diags = all_diagrams(n)
    for col, d in enumerate(diags):
        expect = {
            (out_i * dim + in_i, col): v
            for (out_i, in_i), v in diagram_matrix(d, m).entries.items()
        }
        got = {k: v for k, v in phi.entries.items() if k[1] == col}
        assert got == expect


def test_phi_rank_frozen():
    assert phi_rank(1, 1) == 2
    assert phi_rank(1, 2) == 6
    assert phi_rank(2, 2) == 7


def test_phi_full_rank_iff_wide():
    # faithful exactly when m >= n
    assert phi_rank(1, 1) == monoid_order(1)
    assert phi_rank(2, 2) == monoid_order(2)
    assert phi_rank(1, 2) < monoid_order(2)


def test_annihilator_basis_frozen_dims():
    assert annihilator_basis(1, 2).dimension == 1
    assert annihilator_basis(2, 2).dimension == 0
    assert annihilator_basis(1, 3).dimension == 14


def test_annihilator_vectors_annihilate():
    m, n = 1, 2
    basis = annihilator_basis(m, n)
    for row in basis.int_rows():
        mat = element_matrix(element_from_coordinates(n, row), m)
        assert mat.entries == {}


def test_exact_core_is_integer():
    # phi, the quasi-idempotents and the kernel basis carry plain ints
    assert all(type(v) is int for v in phi_matrix(1, 3).entries.values())
    for shape in all_shapes(3):
        for t in (row_filled_tableau(shape, 3), column_filled_tableau(shape, 3)):
            terms = tableau_quasi_idempotent(t).terms
            assert all(type(c) is int for c in terms.values())
    phi = phi_matrix(1, 4)
    kernel = nullspace(phi)
    assert len(kernel) == monoid_order(4) - phi_rank(1, 4)
    for x in kernel:
        assert all(type(c) is int for c in x.values())
        assert math.gcd(*x.values()) == 1
        assert not mat_vec(phi, x)


def test_rank_nullity_across_phi():
    for m, n in ((1, 2), (1, 3), (2, 3)):
        assert phi_rank(m, n) + annihilator_basis(m, n).dimension == monoid_order(n)


def test_phi_entry_count_matches_phi():
    for m, n in ((1, 3), (2, 3), (3, 3), (1, 4)):
        assert phi_entry_count(m, n) == len(phi_matrix(m, n).entries), (m, n)


def test_size_cap_refusal():
    # the guard that the CLI runs before phi is built; the library builds
    # whatever it is asked for
    with pytest.raises(SizeCapError) as exc:
        check_tensor_cap(9, 12, DEFAULT_MAX_CELLS)
    assert "tensor matrix cells" in str(exc.value)
    assert "exceeds the size cap" in str(exc.value)
    # 65536 cells but 101,817,089 entries
    with pytest.raises(SizeCapError) as exc:
        check_tensor_cap(1, 8, DEFAULT_MAX_CELLS)
    assert "phi matrix entries" in str(exc.value)
    assert exc.value.value == phi_entry_count(1, 8) == 101_817_089
    assert rank(element_matrix(AlgebraElement.one(2), 1)) == 4
