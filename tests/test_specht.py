import math
from fractions import Fraction

import pytest

from rookmonoid.algebra import AlgebraElement, tableau_quasi_idempotent
from rookmonoid.diagrams import (
    all_diagrams,
    generator,
    identity,
    monoid_order,
    multiply,
)
from rookmonoid.specht import (
    Tableau,
    act_on_tabloid,
    act_on_tabloid_vector,
    all_shapes,
    all_tableaux,
    all_tabloids,
    column_filled_tableau,
    column_sets,
    conjugate,
    is_shape,
    partitions_of,
    partner_map,
    polytabloid,
    row_filled_tableau,
    specht_basis,
    specht_dimension,
    tabloid_index,
    tabloid_map,
    vector_coordinates,
)

from oracles import (
    act_on_tableau,
    act_on_tabloid_vector_by_terms,
    specht_basis_by_polytabloids,
    standard_tableau_count,
    tabloid_of,
    transposition,
)


def test_partitions_counts():
    counts = [len(partitions_of(r)) for r in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_partitions_frozen_order_r4():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_all_shapes_includes_every_rank():
    shapes = all_shapes(3)
    assert () in shapes
    assert (2, 1) in shapes
    assert len(shapes) == 1 + 1 + 2 + 3


def test_is_shape():
    assert is_shape((3, 1))
    assert is_shape(())
    assert not is_shape((1, 3))
    assert not is_shape((2, 0))


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate(conjugate((4, 2, 1))) == (4, 2, 1)


def test_tableau_validation():
    Tableau((2, 1), 3, ((1, 3), (2,)))
    with pytest.raises(ValueError):
        Tableau((2, 1), 3, ((1, 1), (2,)))  # repeated entry
    with pytest.raises(ValueError):
        Tableau((2, 1), 3, ((1, 4), (2,)))  # entry out of range
    with pytest.raises(ValueError):
        Tableau((2, 1), 3, ((1,), (2,)))  # row length mismatch
    with pytest.raises(ValueError):
        Tableau((2, 1), 2, ((1, 2), (3,)))  # shape does not fit inside 1..n


def test_tableau_is_an_immutable_value():
    t = Tableau((2, 1), 3, ((1, 3), (2,)))
    same = Tableau((2, 1), 3, ((1, 3), (2,)))
    assert t == same and hash(t) == hash(same) and len({t, same}) == 1
    assert t != Tableau((2, 1), 4, ((1, 3), (2,)))
    assert t != Tableau((2, 1), 3, ((1, 2), (3,)))
    assert t != ((2, 1), 3, ((1, 3), (2,)))
    for name in ("shape", "n", "rows", "other"):
        with pytest.raises(AttributeError):
            setattr(t, name, None)
    with pytest.raises(AttributeError):
        del t.rows
    assert (t.shape, t.n, t.rows, t.content) == ((2, 1), 3, ((1, 3), (2,)), {1, 2, 3})


def test_canonical_fillings():
    t = row_filled_tableau((2, 1), 4)
    assert t.rows == ((1, 2), (3,))
    c = column_filled_tableau((2, 1), 4)
    assert c.rows == ((1, 3), (2,))
    assert column_sets(t) == ((1, 3), (2,))


def test_all_tableaux_count():
    # distinct entries from 1..n placed in r cells: n!/(n-r)! fillings
    for n in (2, 3, 4):
        for r in range(n + 1):
            for shape in partitions_of(r):
                count = sum(1 for _ in all_tableaux(shape, n))
                assert count == math.perm(n, r)


def test_all_tabloids_count():
    # fillings modulo row order
    for n in (2, 3, 4):
        for r in range(n + 1):
            for shape in partitions_of(r):
                rows_factor = math.prod(math.factorial(k) for k in shape)
                assert len(all_tabloids(shape, n)) == math.perm(n, r) // rows_factor


def test_tabloid_of_sorts_rows():
    t = Tableau((2, 1), 3, ((3, 1), (2,)))
    assert tabloid_of(t) == ((1, 3), (2,))


def test_tabloid_index_is_consistent():
    idx = tabloid_index((2,), 3)
    tabs = all_tabloids((2,), 3)
    assert sorted(idx.values()) == list(range(len(tabs)))
    for tb, i in idx.items():
        assert tabs[i] == tb


def test_act_on_tableau_permutation_renames():
    t = Tableau((2,), 3, ((1, 2),))
    s1 = generator(3, "s", 1)
    out = act_on_tableau(s1, t)
    assert out is not None and out.rows == ((2, 1),)


def test_act_on_tableau_deletion_kills():
    t = Tableau((1,), 2, ((1,),))
    p1 = generator(2, "p", 1)
    assert act_on_tableau(p1, t) is None
    p2 = generator(2, "p", 2)
    out = act_on_tableau(p2, t)
    assert out is not None and out.rows == ((1,),)


def test_act_on_tabloid_matches_tableau_action():
    n = 3
    shape = (2, 1)
    for d in all_diagrams(n):
        for t in all_tableaux(shape, n):
            via_tableau = act_on_tableau(d, t)
            via_tabloid = act_on_tabloid(partner_map(d), tabloid_of(t))
            if via_tableau is None:
                assert via_tabloid is None
            else:
                assert via_tabloid == tabloid_of(via_tableau)


def test_tabloid_map_matches_act_on_tabloid():
    # every diagram on every shape at n <= 4, a killed tabloid going to the
    # sentinel len(tabloids)
    killed = 0
    for n in range(1, 5):
        for shape in all_shapes(n):
            tabloids = all_tabloids(shape, n)
            for d in all_diagrams(n):
                tau = tabloid_map(d, shape, n)
                assert len(tau) == len(tabloids)
                for tb, j in zip(tabloids, tau):
                    image = act_on_tabloid(partner_map(d), tb)
                    if image is None:
                        assert j == len(tabloids), (d, tb)
                        killed += 1
                    else:
                        assert tabloids[j] == image, (d, tb)
    assert killed > 0


def _terms(a, shape, n):
    return [(tabloid_map(d, shape, n), c) for d, c in a.terms.items()]


def test_action_agrees_with_factorized_permutation():
    # when no entry is killed, a diagram renames entries exactly like the
    # permutation part of its canonical factorization
    from rookmonoid.diagrams import factorize, inverse, multiply

    n = 3
    for d in all_diagrams(n):
        q = factorize(d)
        w = multiply(multiply(inverse(q.d1), q.sigma), q.d2)
        for shape in ((1,), (2,), (1, 1), (2, 1)):
            for t in all_tableaux(shape, n):
                image = act_on_tableau(d, t)
                if image is not None:
                    assert image == act_on_tableau(w, t)


def test_identity_acts_trivially():
    n = 3
    for shape in ((2,), (1, 1), (2, 1)):
        for tb in all_tabloids(shape, n):
            assert act_on_tabloid(partner_map(identity(n)), tb) == tb


def test_tabloid_vector_action_is_left_module():
    # entries are renamed through star, so (d1 d2).v == d1.(d2.v)
    n = 3
    shape = (2,)
    vec = {i: Fraction(i + 1) for i in range(len(all_tabloids(shape, n)))}
    diagrams = all_diagrams(n)
    for d1 in diagrams[::5]:
        for d2 in diagrams[::7]:
            a1 = AlgebraElement.from_diagram(d1)
            a2 = AlgebraElement.from_diagram(d2)
            lhs = act_on_tabloid_vector(_terms(a1 * a2, shape, n), vec)
            rhs = act_on_tabloid_vector(
                _terms(a1, shape, n), act_on_tabloid_vector(_terms(a2, shape, n), vec)
            )
            assert lhs == rhs


def test_polytabloid_column_shape_n2():
    t = Tableau((1, 1), 2, ((1,), (2,)))
    e = polytabloid(t)
    assert e == {
        ((1,), (2,)): Fraction(1),
        ((2,), (1,)): Fraction(-1),
    }


def test_polytabloid_row_shape_is_single_tabloid():
    t = row_filled_tableau((2,), 3)
    assert polytabloid(t) == {((1, 2),): Fraction(1)}


def test_polytabloid_alternates_in_columns():
    # swapping two entries of the same column negates the polytabloid
    t = column_filled_tableau((2, 2), 4)
    swapped = act_on_tableau(transposition(4, *t.rows[0][:1] + t.rows[1][:1]), t)
    e = polytabloid(t)
    f = polytabloid(swapped)
    assert f == {tb: -c for tb, c in e.items()}


def test_specht_dimension_matches_standard_count():
    # dim S(shape) = C(n, r) * (number of standard tableaux of the shape)
    for n in (1, 2, 3, 4, 5, 6):
        for r in range(n + 1):
            for shape in partitions_of(r):
                expected = math.comb(n, r) * standard_tableau_count(shape)
                assert specht_dimension(shape, n) == expected


def test_specht_basis_matches_all_polytabloids():
    # the swap saturation of one polytabloid is the span of all of them, and
    # the canonical echelon form makes the two bases equal row for row
    for n in (1, 2, 3, 4, 5):
        for shape in all_shapes(n):
            assert specht_basis(shape, n) == specht_basis_by_polytabloids(shape, n), (shape, n)


def test_specht_dimension_frozen_n4():
    dims = {shape: specht_dimension(shape, 4) for shape in all_shapes(4)}
    assert dims == {
        (): 1,
        (1,): 4,
        (2,): 6,
        (1, 1): 6,
        (3,): 4,
        (2, 1): 8,
        (1, 1, 1): 4,
        (4,): 1,
        (3, 1): 3,
        (2, 2): 2,
        (2, 1, 1): 3,
        (1, 1, 1, 1): 1,
    }


def test_wedderburn_sum_of_squares():
    for n in (1, 2, 3, 4, 5):
        total = sum(specht_dimension(shape, n) ** 2 for shape in all_shapes(n))
        assert total == monoid_order(n)


def test_specht_module_is_invariant():
    # acting on a polytabloid lands back in the span of polytabloids
    n = 3
    for shape in ((2,), (1, 1), (2, 1), (1,), ()):
        basis = specht_basis(shape, n)
        for t in all_tableaux(shape, n):
            e = vector_coordinates(polytabloid(t), shape, n)
            for d in all_diagrams(n)[::3]:
                moved = act_on_tabloid_vector([(tabloid_map(d, shape, n), 1)], e)
                assert basis.contains(moved)


def test_tabloid_vector_action_matches_term_by_term_oracle():
    for n in (1, 2, 3, 4):
        shapes = all_shapes(n)
        elements = [AlgebraElement.from_diagram(d) for d in all_diagrams(n)[::5]]
        elements += [tableau_quasi_idempotent(row_filled_tableau(s, n)) for s in shapes]
        for shape in shapes:
            tabloids = all_tabloids(shape, n)
            for a in elements:
                terms = _terms(a, shape, n)
                for row in specht_basis(shape, n).int_rows():
                    vec = {tabloids[i]: c for i, c in row.items()}
                    want = vector_coordinates(act_on_tabloid_vector_by_terms(a, vec), shape, n)
                    assert act_on_tabloid_vector(terms, row) == want
