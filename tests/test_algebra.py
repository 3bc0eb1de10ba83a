import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rookmonoid.algebra import (
    AlgebraElement,
    antisymmetrizer,
    element_coordinates,
    full_projector,
    quasi_idempotent_factors,
    symmetrizer,
    tableau_quasi_idempotent,
    top_antisymmetrizer,
)
from rookmonoid.diagrams import (
    all_diagrams,
    all_permutations,
    diagram_sign,
    generator,
    identity,
    multiply,
    perm_sign,
    rank,
    rank_class,
)
from rookmonoid.specht import (
    Tableau,
    all_shapes,
    all_tableaux,
    column_filled_tableau,
    row_filled_tableau,
)

from oracles import (
    brute_sign,
    element_from_coordinates,
    element_star,
    expanded_quasi_idempotent,
    product_by_terms,
    transposition,
)


def test_element_arithmetic_basics():
    n = 2
    e = AlgebraElement.from_diagram(identity(n))
    s = AlgebraElement.from_diagram(generator(n, "s", 1))
    assert (e + s) - s == e
    assert e * s == s
    assert s * s == e
    assert (s.scale(Fraction(1, 2)) * 2) == s
    assert 2 * s == s + s
    assert (e - e).is_zero()
    assert -s == s.scale(-1)


def test_coefficients_stay_exact():
    # ints and Fractions are kept as given; other numbers go through Fraction
    d = identity(1)
    assert type(AlgebraElement(1, {d: 3}).terms[d]) is int
    assert AlgebraElement(1, {d: Fraction(1, 2)}).terms[d] == Fraction(1, 2)
    assert AlgebraElement(1, {d: 0.25}).terms == {d: Fraction(1, 4)}
    assert AlgebraElement(1, {d: "2/3"}).terms == {d: Fraction(2, 3)}
    assert type(AlgebraElement(1, {d: "-2"}).terms[d]) is Fraction
    assert AlgebraElement(1, {d: 0}).is_zero()
    s = AlgebraElement.from_diagram(generator(2, "s", 1))
    assert type(s.scale(-2).terms[generator(2, "s", 1)]) is int
    assert s.scale(0.5).terms == {generator(2, "s", 1): Fraction(1, 2)}
    assert all(type(c) is int for c in (s * s.scale(3)).terms.values())


def test_element_mul_is_convolution():
    # (1 + p_1)(1 - p_1) = 1 - p_1 in FR_1: p_1 is idempotent
    p = AlgebraElement.from_diagram((0,))
    one = AlgebraElement.one(1)
    assert (one + p) * (one - p) == one - p


def test_element_rejects_size_mismatch():
    a = AlgebraElement.one(2)
    b = AlgebraElement.one(3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_star_is_linear_anti_automorphism():
    n = 3
    diagrams = all_diagrams(n)
    a = AlgebraElement(n, {diagrams[5]: Fraction(2), diagrams[10]: Fraction(-1, 3)})
    b = AlgebraElement(n, {diagrams[3]: Fraction(1), diagrams[20]: Fraction(7)})
    assert element_star(a * b) == element_star(b) * element_star(a)
    assert element_star(element_star(a)) == a
    assert element_star(a + b) == element_star(a) + element_star(b)


def test_symmetrizer_single_point_frozen():
    # X_{1} in FR_2: identity plus the rank-1 diagram deleting vertex 1
    x = symmetrizer((1,), 2)
    assert x.terms == {(1, 2): Fraction(1), (0, 2): Fraction(-1)}


def test_symmetrizer_full_frozen_n2():
    x = symmetrizer((1, 2), 2)
    assert x.terms == {
        (1, 2): Fraction(1),
        (2, 1): Fraction(1),
        (0, 2): Fraction(-1),
        (2, 0): Fraction(-1),
        (0, 1): Fraction(-1),
        (1, 0): Fraction(-1),
        (0, 0): Fraction(2),
    }


def test_antisymmetrizer_full_frozen_n2():
    y = antisymmetrizer((1, 2), 2)
    assert y.terms == {
        (1, 2): Fraction(1),
        (2, 1): Fraction(-1),
        (0, 2): Fraction(-1),
        (2, 0): Fraction(1),
        (0, 1): Fraction(1),
        (1, 0): Fraction(-1),
    }


def test_antisymmetrizer_signs_match_brute_oracle():
    # every term of Y_{1..n} carries the diagram sign: permutations via the
    # usual inversion count, single-deletion diagrams via the factorization
    for n in (2, 3):
        y = antisymmetrizer(tuple(range(1, n + 1)), n)
        for d, coeff in y.terms.items():
            assert coeff == Fraction(brute_sign(d))


@pytest.mark.parametrize("k", range(1, 7))
def test_single_deletion_sign_is_minus_the_cleared_permutations(k):
    # clearing slot a of w reaches each single-deletion diagram once, and
    # its diagram_sign (factorize and three lengths) is -sgn(w); the
    # antisymmetrizer's single-deletion terms carry exactly those signs
    cleared = {
        w[:a] + (0,) + w[a + 1 :]: -perm_sign(w) for w in all_permutations(k) for a in range(k)
    }
    assert sorted(cleared) == list(rank_class(k, 1))
    assert all(diagram_sign(d) == s for d, s in cleared.items())
    y = top_antisymmetrizer(k, k)
    assert {d: c for d, c in y.terms.items() if rank(d) == k - 1} == cleared


def test_symmetrizer_eigen_equations():
    # s_ij X_S = X_S and p_j X_S = 0 for i,j in S
    for n in (2, 3, 4):
        subsets = [s for k in range(1, n + 1) for s in itertools.combinations(range(1, n + 1), k)]
        for subset in subsets:
            x = symmetrizer(subset, n)
            for i, j in itertools.combinations(subset, 2):
                t = AlgebraElement.from_diagram(transposition(n, i, j))
                assert t * x == x
                assert x * t == x
            for j in subset:
                p = AlgebraElement.from_diagram(generator(n, "p", j))
                assert (p * x).is_zero()
                assert (x * p).is_zero()


def test_antisymmetrizer_eigen_equations():
    for n in (2, 3, 4):
        subsets = [s for k in range(2, n + 1) for s in itertools.combinations(range(1, n + 1), k)]
        for subset in subsets:
            y = antisymmetrizer(subset, n)
            for i, j in itertools.combinations(subset, 2):
                t = AlgebraElement.from_diagram(transposition(n, i, j))
                assert t * y == -y
                assert y * t == -y


def test_antisymmetrizer_is_quasi_idempotent():
    import math

    for n in (2, 3, 4):
        for k in range(1, n + 1):
            subset = tuple(range(1, k + 1))
            y = antisymmetrizer(subset, n)
            assert y * y == y.scale(math.factorial(k))
    # a non-prefix subset as well
    y = antisymmetrizer((2, 4), 4)
    assert y * y == y.scale(2)


def test_top_antisymmetrizer_matches_prefix_subset():
    for n in (2, 3, 4, 5):
        for k in range(1, n + 1):
            assert top_antisymmetrizer(k, n) == antisymmetrizer(tuple(range(1, k + 1)), n)


def test_full_projector_absorbs_everything():
    # the rank-zero diagram is a two-sided absorbing idempotent
    for n in (2, 3):
        z = full_projector(n)
        assert z * z == z
        for d in all_diagrams(n):
            a = AlgebraElement.from_diagram(d)
            assert a * z == z
            assert z * a == z


def test_quasi_idempotent_empty_shape():
    # shape () deletes every vertex: e(t) is the all-zero diagram
    for n in (1, 2, 3):
        t = Tableau((), n, ())
        e = tableau_quasi_idempotent(t)
        assert e.terms == {(0,) * n: Fraction(1)}


def test_quasi_idempotent_nonzero_all_shapes():
    for n in (2, 3, 4):
        for r in range(n + 1):
            for shape in all_shapes(r):
                for t in (row_filled_tableau(shape, n), column_filled_tableau(shape, n)):
                    assert not tableau_quasi_idempotent(t).is_zero()


def test_quasi_idempotent_row_shape_frozen_n2():
    # shape (2): no column antisymmetrizer beyond singletons, one row symmetrizer
    t = row_filled_tableau((2,), 2)
    e = tableau_quasi_idempotent(t)
    assert e == symmetrizer((1, 2), 2)


def test_quasi_idempotent_column_shape_is_quasi_idempotent_n2():
    t = row_filled_tableau((1, 1), 2)
    e = tableau_quasi_idempotent(t)
    ee = e * e
    # e(t)^2 = c e(t) with nonzero scalar c
    d0 = min(e.terms)
    c = ee.terms.get(d0, Fraction(0)) / e.terms[d0]
    assert c != 0
    assert ee == e.scale(c)


def _permutation_sum(subset, n, *, signed):
    # each permutation of the subset, identity elsewhere, signed by its
    # inversions; built without the algebra module's transport
    terms = {}
    for image in itertools.permutations(subset):
        d = list(identity(n))
        for a, b in zip(subset, image):
            d[a - 1] = b
        inversions = sum(1 for x, y in itertools.combinations(image, 2) if x > y)
        terms[tuple(d)] = (-1) ** inversions if signed else 1
    return AlgebraElement(n, terms)


def _deletion(n, i):
    return AlgebraElement.from_diagram(generator(n, "p", i))


def test_symmetrizers_factor_into_permutation_sums_and_deletion_factors():
    # symmetrizer(R) = (sum pi) prod_{i in R} (1 - p_i) and
    # antisymmetrizer(C) = (sum sgn(pi) pi) (1 - sum_{i in C} p_i), with the
    # factors in either order: every subset at n <= 5, the full set at k = 6
    cases = [
        (subset, n)
        for n in range(1, 6)
        for k in range(1, n + 1)
        for subset in itertools.combinations(range(1, n + 1), k)
    ] + [(tuple(range(1, 7)), 6)]
    for subset, n in cases:
        one = AlgebraElement.one(n)
        filters = one
        for i in subset:
            filters = filters * (one - _deletion(n, i))
        scale = one
        for i in subset:
            scale = scale - _deletion(n, i)
        plain = _permutation_sum(subset, n, signed=False)
        signed = _permutation_sum(subset, n, signed=True)
        assert plain * filters == symmetrizer(subset, n) == filters * plain, subset
        assert signed * scale == antisymmetrizer(subset, n) == scale * signed, subset


def test_quasi_idempotent_factors_multiply_to_the_quasi_idempotent():
    # every tableau at n <= 4, the row- and column-filled ones at n = 5
    cases = [t for n in range(1, 5) for shape in all_shapes(n) for t in all_tableaux(shape, n)]
    cases += [
        fill(shape, 5)
        for shape in all_shapes(5)
        for fill in (row_filled_tableau, column_filled_tableau)
    ]
    for t in cases:
        factors = quasi_idempotent_factors(t)
        product = AlgebraElement.one(t.n)
        for f in factors:
            product = product * f
        assert product == expanded_quasi_idempotent(t), t
        assert tableau_quasi_idempotent(t) == product, t
        # no factor is a permutation sum: a chain factor has at most k terms
        # over a row or column of k vertices, and a deletion factor at most 2
        longest = max(t.shape + (len(t.shape),))
        assert all(len(f.terms) <= max(longest, 2) for f in factors)


def test_leaving_out_any_quasi_idempotent_factor_changes_the_product():
    # no factor is redundant: every (tableau, factor) case at n <= 4
    cases = 0
    for n in range(1, 5):
        for shape in all_shapes(n):
            for t in all_tableaux(shape, n):
                factors = quasi_idempotent_factors(t)
                expected = expanded_quasi_idempotent(t)
                for i in range(len(factors)):
                    product = AlgebraElement.one(n)
                    for f in factors[:i] + factors[i + 1 :]:
                        product = product * f
                    assert product != expected, (t, i)
                    cases += 1
    assert cases == 1606


def test_relabelling_a_tableau_conjugates_its_quasi_idempotent():
    # e_(wt) = w e_t w^-1 for w in S_n, which makes one tableau per shape
    # exhaustive in check_specht_orthogonality: every tableau t at n <= 4
    # against the row-filled t0 of its shape, with w sending t0's boxes
    # onto t's and the rest of 1..n onto the rest in order.  w reads as
    # a -> w[a - 1]; the product has (d1 d2)[a] = d2[d1[a]], so w e w^-1 is
    # the product w^-1 * e * w
    cases = 0
    for n in range(1, 5):
        for shape in all_shapes(n):
            e0 = tableau_quasi_idempotent(row_filled_tableau(shape, n))
            for t in all_tableaux(shape, n):
                boxes = [e for row in t.rows for e in row]  # t0 holds 1, 2, .. row by row
                w = tuple(boxes + [a for a in range(1, n + 1) if a not in t.content])
                w_inv = tuple(w.index(b) + 1 for b in range(1, n + 1))
                conjugate = (
                    AlgebraElement.from_diagram(w_inv) * e0 * AlgebraElement.from_diagram(w)
                )
                assert tableau_quasi_idempotent(t) == conjugate, t
                cases += 1
    assert cases == 264


def test_each_chain_multiplies_to_the_permutation_sum():
    # a row's factors open with its Jucys-Murphy chain, the k - 1 factors
    # 1 + L_j, and a column's with 1 - L_j; the entries are listed
    # descending, so the chain must sort them
    for n in range(1, 7):
        one = AlgebraElement.one(n)
        for k in range(1, n + 1):
            entries = tuple(range(n, n - k, -1))
            row = Tableau((k,), n, (entries,))
            column = Tableau((1,) * k, n, tuple((e,) for e in entries))
            for t, signed in ((row, False), (column, True)):
                chain = quasi_idempotent_factors(t)[: k - 1]
                assert [len(f.terms) for f in chain] == list(range(2, k + 1)), t
                product = one
                for f in chain:
                    product = product * f
                assert product == _permutation_sum(sorted(entries), n, signed=signed), t


def test_coordinates_roundtrip():
    n = 2
    a = symmetrizer((1, 2), n)
    v = element_coordinates(a)
    assert element_from_coordinates(n, v) == a
    assert all(isinstance(c, int) for c in v.values())
    assert set(v.values()) == {1, -1, 2}
    # a strictly fractional element keeps its exact coordinates
    half = a.scale(Fraction(1, 2))
    assert element_coordinates(half) == {i: Fraction(c, 2) for i, c in v.items()}
    assert element_from_coordinates(n, element_coordinates(half)) == half


def test_mul_matches_diagram_table():
    # element product of two basis diagrams is the product diagram
    n = 3
    diagrams = all_diagrams(n)
    for d1 in diagrams[::7]:
        for d2 in diagrams[::11]:
            a = AlgebraElement.from_diagram(d1) * AlgebraElement.from_diagram(d2)
            assert a == AlgebraElement.from_diagram(multiply(d1, d2))


@st.composite
def element_pair(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    diags = all_diagrams(n)
    coeff = st.integers(min_value=-2, max_value=2)
    # few diagrams and small coefficients, so products often cancel
    support = st.sampled_from(diags[: draw(st.integers(min_value=1, max_value=len(diags)))])
    element = st.dictionaries(support, coeff, max_size=8).map(lambda t: AlgebraElement(n, t))
    return draw(element), draw(element)


@settings(max_examples=200, deadline=None)
@given(element_pair())
def test_mul_matches_term_by_term_oracle(pair):
    a, b = pair
    product = a * b
    assert product == product_by_terms(a, b)
    assert all(product.terms.values())


def test_mul_drops_cancelled_terms():
    for n in (2, 3):
        one = AlgebraElement.one(n)
        s1 = AlgebraElement.from_diagram(generator(n, "s", 1))
        assert ((one - s1) * (one + s1)).terms == {}
