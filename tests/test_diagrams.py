import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from rookmonoid import diagrams as dg

import oracles


def diagram_strategy(n: int):
    """Random partial injections built from a permutation and a kill mask."""

    def build(perm, mask):
        return tuple(b if keep else 0 for b, keep in zip(perm, mask))

    return st.builds(
        build,
        st.permutations(range(1, n + 1)),
        st.lists(st.booleans(), min_size=n, max_size=n),
    )


def test_identity_and_generators():
    assert dg.identity(2) == (1, 2)
    assert dg.generator(2, "s", 1) == (2, 1)
    assert dg.generator(2, "p", 1) == (0, 2)
    assert dg.generator(3, "p", 2) == (1, 0, 3)
    with pytest.raises(ValueError):
        dg.generator(2, "s", 2)
    with pytest.raises(ValueError):
        dg.generator(2, "p", 0)
    with pytest.raises(ValueError):
        dg.generator(2, "q", 1)


def test_multiply_matches_path_following():
    for n in (1, 2, 3):
        diags = dg.all_diagrams(n)
        for a in diags:
            for b in diags:
                assert dg.multiply(a, b) == oracles.compose_by_paths(a, b), (a, b)
    assert dg.multiply((1,), (0,)) == (0,)
    assert dg.multiply((1,), (1,)) == (1,)
    assert dg.multiply((), ()) == ()


def test_identity_is_neutral():
    for n in range(1, 5):
        one = dg.identity(n)
        for d in dg.all_diagrams(n):
            assert dg.multiply(d, one) == d
            assert dg.multiply(one, d) == d


def test_multiply_concatenates_edges():
    assert dg.multiply((0, 2), (2, 1)) == (0, 1)
    p1, s1 = (0, 2), (2, 1)
    assert dg.multiply(dg.multiply(p1, s1), p1) == (0, 0)
    assert dg.multiply(p1, (1, 0)) == (0, 0)


def test_multiply_rejects_size_mismatch():
    with pytest.raises(ValueError):
        dg.multiply((1, 2), (1, 2, 3))


def test_multiply_associative_exhaustive_n2():
    diags = dg.all_diagrams(2)
    for a, b, c in itertools.product(diags, repeat=3):
        assert dg.multiply(dg.multiply(a, b), c) == dg.multiply(a, dg.multiply(b, c))


@settings(max_examples=150)
@given(diagram_strategy(4), diagram_strategy(4), diagram_strategy(4))
def test_multiply_associative_random(a, b, c):
    assert dg.multiply(dg.multiply(a, b), c) == dg.multiply(a, dg.multiply(b, c))


@settings(max_examples=150)
@given(diagram_strategy(4), diagram_strategy(4))
def test_product_is_partial_injection_and_rank_drops(a, b):
    ab = dg.multiply(a, b)
    assert dg.is_diagram(ab)
    assert dg.rank(ab) <= min(dg.rank(a), dg.rank(b))


def test_is_diagram_keeps_the_slot_by_slot_definition():
    # every tuple over -1..n+1, so out-of-range, repeated and zero entries
    # meet in every combination; the empty tuple is the one diagram of size 0
    def by_slots(img):
        n = len(img)
        hit = [b for b in img if b != 0]
        return all(0 <= b <= n for b in img) and len(hit) == len(set(hit))

    for n in range(5):
        tuples = list(itertools.product(range(-1, n + 2), repeat=n))
        for img in tuples:
            assert dg.is_diagram(img) == by_slots(img), img
        assert sum(map(dg.is_diagram, tuples)) == dg.monoid_order(n)
    assert dg.is_diagram(()) and dg.is_diagram([2, 0, 1]) and not dg.is_diagram([2, 2, 0])


def test_star_basics():
    assert dg.star((2, 1)) == (2, 1)
    assert dg.star((0, 2)) == (0, 2)
    assert dg.star((2, 0)) == (0, 1)
    for d in dg.all_diagrams(3):
        assert dg.star(dg.star(d)) == d


def test_star_reverses_products():
    diags = dg.all_diagrams(3)
    for a in diags:
        for b in diags:
            assert dg.star(dg.multiply(a, b)) == dg.multiply(dg.star(b), dg.star(a))


def test_enumeration_counts():
    assert len(dg.all_diagrams(2)) == 7
    assert len(dg.all_diagrams(3)) == 34
    for n in range(1, 7):
        assert dg.monoid_order(n) == sum(
            math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1)
        )
    assert [dg.monoid_order(n) for n in range(1, 7)] == [2, 7, 34, 209, 1546, 13327]


def test_enumeration_sorted_and_duplicate_free():
    for n in range(1, 5):
        diags = dg.all_diagrams(n)
        assert list(diags) == sorted(set(diags))
        assert len(diags) == dg.monoid_order(n)


def test_rank_classes():
    assert len(dg.rank_class(3, 1)) == 18
    for n in range(1, 6):
        for r in range(n + 1):
            cls = dg.rank_class(n, r)
            assert len(cls) == math.comb(n, r) ** 2 * math.factorial(n - r)
            assert all(len(oracles.isolated_top(d)) == r for d in cls)
    assert len(dg.rank_class(5, 0)) == math.factorial(5)


def test_coset_reps_against_filter():
    for n in range(1, 5):
        for r in range(n + 1):
            expected = sorted(
                w
                for w in itertools.permutations(range(1, n + 1))
                if all(w[i] < w[i + 1] for i in range(r - 1))
                and all(w[i] < w[i + 1] for i in range(r, n - 1))
            )
            assert list(dg.coset_reps(n, r)) == expected


def test_coset_reps_counts_and_max_length():
    assert len(dg.coset_reps(4, 2)) == 6
    assert max(dg.perm_length(w) for w in dg.coset_reps(4, 2)) == 4
    for n in range(1, 6):
        for r in range(n + 1):
            reps = dg.coset_reps(n, r)
            assert len(reps) == math.comb(n, r)
            assert max(dg.perm_length(w) for w in reps) == r * (n - r)


def test_factorize_frozen_examples():
    assert dg.factorize((0, 2)) == dg.Quadruple((1, 2), (1, 2), 1, (1, 2))
    assert dg.factorize((2, 0)) == dg.Quadruple((2, 1), (1, 2), 1, (1, 2))
    assert dg.factorize((0, 1)) == dg.Quadruple((1, 2), (2, 1), 1, (1, 2))
    w = (3, 1, 2)
    assert dg.factorize(w) == dg.Quadruple((1, 2, 3), (1, 2, 3), 0, w)


def test_factorize_matches_brute_force_n3():
    for d in dg.all_diagrams(3):
        assert dg.factorize(d) == oracles.brute_factorize(d)


def test_factorize_roundtrip():
    for n in range(1, 5):
        for d in dg.all_diagrams(n):
            q = dg.factorize(d)
            assert dg.compose_quadruple(q) == d
            reps = dg.coset_reps(n, q.r)
            assert q.d1 in reps and q.d2 in reps
            assert q.sigma[: q.r] == tuple(range(1, q.r + 1))


def test_factorization_unique_n4():
    for n in range(1, 5):
        seen = {}
        for q in oracles.brute_quadruples(n):
            d = dg.compose_quadruple(q)
            assert d not in seen, f"two quadruples give {d}"
            seen[d] = q
        assert len(seen) == dg.monoid_order(n)


def test_perm_length_and_sign():
    assert dg.perm_length((1, 2, 3)) == 0
    assert dg.perm_length((2, 1, 3)) == 1
    assert dg.perm_length((3, 2, 1)) == 3
    assert dg.perm_sign((2, 1, 3)) == -1
    assert dg.perm_sign((2, 3, 1)) == 1


def test_diagram_sign_frozen_values():
    assert dg.diagram_sign((0, 2)) == -1
    assert dg.diagram_sign((1, 0)) == -1
    assert dg.diagram_sign((2, 0)) == 1
    assert dg.diagram_sign((0, 1)) == 1
    assert dg.diagram_sign((0, 0)) == 1
    for n in range(1, 5):
        assert dg.diagram_sign(dg.identity(n)) == 1


def test_sign_of_all_deleting_diagram():
    for n in range(1, 5):
        d = dg.identity(n)
        for i in range(1, n + 1):
            d = dg.multiply(d, dg.generator(n, "p", i))
        assert d == (0,) * n
        assert dg.diagram_sign(d) == (-1) ** n


def test_diagram_sign_extends_perm_sign():
    for n in range(1, 5):
        for w in dg.all_permutations(n):
            assert dg.diagram_sign(w) == dg.perm_sign(w)
            assert dg.diagram_length(w) == dg.perm_length(w)


def test_diagram_sign_matches_brute_force_n3():
    for d in dg.all_diagrams(3):
        assert dg.diagram_sign(d) == oracles.brute_sign(d)


def test_sign_is_not_multiplicative():
    diags = dg.all_diagrams(2)
    assert any(
        dg.diagram_sign(dg.multiply(a, b)) != dg.diagram_sign(a) * dg.diagram_sign(b)
        for a in diags
        for b in diags
    )


def test_presentation_holds():
    for n in (2, 3, 4, 5):
        rep = dg.verify_presentation(n)
        assert rep["pass"], rep


def test_presentation_detects_broken_multiplication(monkeypatch):
    def sloppy(d1, d2):
        # keeps the left factor's target when the right factor is undefined
        out = []
        for b in d1:
            if b and d2[b - 1]:
                out.append(d2[b - 1])
            else:
                out.append(b)
        return tuple(out)

    monkeypatch.setattr(dg, "multiply", sloppy)
    rep = dg.verify_presentation(3)
    assert not rep["pass"]
    failed = {a["name"] for a in rep["assertions"] if not a["pass"]}
    assert "p_i s_i p_i = p_i p_i+1" in failed


def test_isolated_vertices():
    assert oracles.isolated_top((0, 2)) == (1,)
    assert oracles.isolated_bottom((0, 2)) == (1,)
    assert oracles.isolated_bottom((0, 1)) == (2,)
    assert dg.rank((0, 0)) == 0
    assert dg.rank((2, 1)) == 2
