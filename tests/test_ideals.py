import random
from fractions import Fraction

import pytest

from rookmonoid import ideals
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
from rookmonoid.diagrams import all_diagrams, generator, identity, rank, rank_class_size
from rookmonoid.ideals import (
    DEFAULT_SEED,
    SAMPLE_PAIRS,
    annihilator_dimension_formula,
    block_ideal,
    block_pairs,
    check_absorption,
    check_annihilator_ideal,
    check_block_decomposition,
    check_faithful_action,
    check_one_dimensional_ideals,
    check_specht_orthogonality,
    two_sided_ideal,
)
from rookmonoid import specht
from rookmonoid.specht import all_shapes, row_filled_tableau, specht_dimension
from rookmonoid.tensor import annihilator_basis

import oracles
from oracles import (
    act_on_tabloid_vector_by_terms,
    expanded_quasi_idempotent,
    floor_span,
    one_dimensional_ideals_by_all_generators,
    two_sided_ideal_exhaustive,
)


def _floors(a):
    """The floor coordinates of an element, as one primitive row."""
    (row,) = floor_span(a.n, [element_coordinates(a)]).int_rows()
    return row


def _exhaustive_floors(a):
    return floor_span(a.n, two_sided_ideal_exhaustive(a).basis.int_rows())


def test_saturation_matches_exhaustive():
    for n in (2, 3):
        diags = all_diagrams(n)
        for seed in (diags[0], diags[len(diags) // 2], diags[-1]):
            a = AlgebraElement.from_diagram(seed)
            fast = two_sided_ideal(a)
            assert fast.basis == _exhaustive_floors(a)


def test_saturation_matches_exhaustive_on_sums():
    n = 3
    diags = all_diagrams(n)
    a = AlgebraElement(n, {diags[2]: Fraction(1), diags[17]: Fraction(-1, 2)})
    assert two_sided_ideal(a).basis == _exhaustive_floors(a)


def test_rank_zero_ideal_is_one_dimensional():
    for n in (2, 3, 4):
        ideal = two_sided_ideal(full_projector(n))
        assert ideal.dimension == 1
        assert ideal.basis.contains(_floors(full_projector(n)))


def test_deletion_chain_ideals_span_low_ranks():
    # the ideal generated by p_1 ... p_r is the span of diagrams of rank <= n - r
    n = 3
    for r in range(1, n + 1):
        d = tuple(0 for _ in range(r)) + tuple(range(r + 1, n + 1))
        ideal = two_sided_ideal(AlgebraElement.from_diagram(d))
        expected = sum(rank_class_size(n, k) for k in range(r, n + 1))
        assert ideal.dimension == expected
        for diag in all_diagrams(n):
            inside = rank(diag) <= n - r
            assert ideal.basis.contains(_floors(AlgebraElement.from_diagram(diag))) == inside


def test_block_ideal_dimensions_are_squared_specht():
    for n in (2, 3):
        for shape in all_shapes(n):
            assert block_ideal(shape, n).dimension == specht_dimension(shape, n) ** 2


def test_block_ideal_contains_its_generator():
    n = 3
    for shape in all_shapes(n):
        e = tableau_quasi_idempotent(row_filled_tableau(shape, n))
        assert block_ideal(shape, n).basis.contains(_floors(e))


def test_annihilator_dimension_formula_frozen():
    assert annihilator_dimension_formula(1, 2) == 1
    assert annihilator_dimension_formula(1, 3) == 14
    assert annihilator_dimension_formula(2, 3) == 1
    assert annihilator_dimension_formula(1, 4) == 139
    assert annihilator_dimension_formula(2, 4) == 26
    assert annihilator_dimension_formula(3, 4) == 1
    # wide case: nothing is annihilated
    assert annihilator_dimension_formula(2, 2) == 0
    assert annihilator_dimension_formula(5, 3) == 0


def test_annihilator_formula_counts_tall_shapes():
    # the formula adds squared dimensions over shapes with more than m rows
    m, n = 1, 3
    expected = sum(
        specht_dimension(shape, n) ** 2
        for shape in all_shapes(n)
        if len(shape) > m
    )
    assert annihilator_dimension_formula(m, n) == expected


def test_one_dimensional_ideals_report():
    for n in (1, 2, 3, 4):
        rep = check_one_dimensional_ideals(n)
        assert rep["pass"], rep
        assert all(a["pass"] for a in rep["assertions"])
        assert rep["assertions"][0]["witness"] == {"dim": 1}
        assert rep["assertions"][1]["witness"] == {"expected": {"s": 1, "p": 0}}


def _substitute(monkeypatch, name, elem):
    """Put ``elem`` in place of the element that ``name`` builds, in the
    check and in its all-generator reference alike."""
    for module in (ideals, oracles):
        monkeypatch.setattr(module, name, lambda *args: elem)


def _verdicts(rep):
    return [(a["name"], a["pass"]) for a in rep["assertions"]]


def test_one_dimensional_ideals_catch_a_span_that_is_not_an_ideal(monkeypatch):
    # 1 + s_1 at n = 3: c (1 + s_1) = c + c s_1 is no multiple of it (as is
    # s_2 (1 + s_1), which the all-generator reference names instead)
    n = 3
    _substitute(monkeypatch, "symmetrizer", AlgebraElement(n, {(1, 2, 3): 1, (2, 1, 3): 1}))
    rep = check_one_dimensional_ideals(n)
    assert not rep["pass"]
    verdicts = {a["name"]: a for a in rep["assertions"]}
    assert not verdicts["symmetrizer ideal is one-dimensional"]["pass"]
    assert "c" in verdicts["symmetrizer ideal is one-dimensional"]["witness"]["outside"]
    assert verdicts["antisymmetrizer ideal is one-dimensional"]["pass"]
    reference = one_dimensional_ideals_by_all_generators(n)
    assert "s_2" in reference["assertions"][0]["witness"]["outside"]
    assert _verdicts(rep) == _verdicts(reference)


def test_only_the_cycle_catches_a_symmetrizer_of_part_of_the_vertices(monkeypatch):
    # s_1 acts as 1 and p_1 as 0 on both sides of the symmetrizer of {1, 2},
    # as on the full one; s_2 and p_3 move vertex 3, and of the three
    # generators only the cycle does
    n = 3
    _substitute(monkeypatch, "symmetrizer", symmetrizer((1, 2), n))
    symmetrizer_verdicts = check_one_dimensional_ideals(n)["assertions"][:2]
    assert [a["witness"] for a in symmetrizer_verdicts] == [{"outside": ["c"]}, {"violations": ["c"]}]
    reference = one_dimensional_ideals_by_all_generators(n)["assertions"][:2]
    assert [a["pass"] for a in reference] == [False, False]
    assert {"s_2", "p_3"} <= set(reference[1]["witness"]["violations"])


def test_three_generators_decide_what_all_generators_decide(monkeypatch):
    # the real elements, each also in the others' places (an ideal with the
    # wrong eigenvalues), and spans that are no ideal
    for n in range(1, 5):
        assert _verdicts(check_one_dimensional_ideals(n)) == _verdicts(
            one_dimensional_ideals_by_all_generators(n)
        ), n
        everything = range(1, n + 1)
        elements = [symmetrizer(everything, n), antisymmetrizer(everything, n), full_projector(n)]
        elements += [AlgebraElement.from_diagram(generator(n, "p", 1))]
        for k in range(1, n):
            elements += [symmetrizer(range(1, k + 1), n), antisymmetrizer(range(1, k + 1), n)]
            elements += [symmetrizer(range(n - k + 1, n + 1), n)]
        if n > 1:
            elements += [AlgebraElement(n, {identity(n): 1, generator(n, "s", 1): 1})]
        seen = set()  # (ideal, eigenvalues) verdicts on the substituted element
        for slot, name in enumerate(("symmetrizer", "antisymmetrizer", "full_projector")):
            for elem in elements:
                _substitute(monkeypatch, name, elem)
                verdicts = _verdicts(check_one_dimensional_ideals(n))
                assert verdicts == _verdicts(one_dimensional_ideals_by_all_generators(n)), (n, name, elem)
                seen.add((verdicts[2 * slot][1], verdicts[2 * slot + 1][1]))
            monkeypatch.undo()
        # at n = 1 the substitutes are 1 - p_1 and p_1, and both span ideals
        assert seen == {(True, True), (True, False)} | ({(False, False)} if n > 1 else set()), n


def test_block_decomposition_report():
    rep = check_block_decomposition(2)
    assert rep["pass"], rep
    rep = check_block_decomposition(3)
    assert rep["pass"], rep
    # every ordered pair of basis elements from distinct blocks: 34^2 - sum d^4
    assert rep["assertions"][-1]["witness"] == {"pairs_checked": 894, "exhaustive": True}
    assert rep["params"]["exhaustive"] is True


def test_block_pairs_decode_the_sample_of_the_listed_pairs():
    n = 4
    sizes = [(shape, block_ideal(shape, n).dimension) for shape in all_shapes(n)]
    listed = [
        (s1, i, s2, j)
        for s1, k1 in sizes
        for s2, k2 in sizes
        if s1 != s2
        for i in range(k1)
        for j in range(k2)
    ]
    assert len(listed) == 36_044
    assert block_pairs(sizes, None) == listed
    for seed in (0, 1, 5, 41, DEFAULT_SEED):
        assert block_pairs(sizes, seed) == random.Random(seed).sample(listed, SAMPLE_PAIRS)


def test_specht_orthogonality_report():
    for n in (2, 3):
        rep = check_specht_orthogonality(n)
        assert rep["pass"], rep
        assert rep["check"] == "verify-lemma-3-10"
        assert set(rep["params"]) == {"n", "seed"}

    def checked(rep):
        return [
            a["witness"]["tableaux_checked"]
            for a in rep["assertions"]
            if a["name"].endswith("kills the other shapes")
        ]

    # by default one tableau per shape, which conjugation makes exhaustive
    assert checked(rep) == [1] * 7
    # at n = 3 no shape has more than 12 tableaux, so all of them are checked
    rep = check_specht_orthogonality(3, sample_tableaux=12)
    assert rep["pass"], rep
    assert checked(rep) == [1, 3, 6, 6, 6, 6, 6]


def test_specht_orthogonality_catches_a_quasi_idempotent_that_kills_nothing(
    monkeypatch,
):
    # the identity kills no nonzero vector, so every shape must fail, which
    # an empty or mis-mapped Specht basis would hide
    monkeypatch.setattr(
        ideals, "quasi_idempotent_factors", lambda t: [AlgebraElement.one(t.n)]
    )
    rep = check_specht_orthogonality(3)
    kills = [a for a in rep["assertions"] if a["name"].endswith("kills the other shapes")]
    assert len(kills) == len(all_shapes(3))
    for a in kills:
        assert not a["pass"], a
        assert a["witness"] and all("tableau" in w for w in a["witness"])


def test_specht_orthogonality_refuses_an_empty_sample():
    # a sample of no tableaux would check nothing and pass
    for bad in (0, -1):
        with pytest.raises(ValueError, match="sample_tableaux"):
            check_specht_orthogonality(3, sample_tableaux=bad)
    rep = check_specht_orthogonality(3, sample_tableaux=1)
    assert rep["pass"], rep


def test_acting_factor_by_factor_matches_the_expanded_quasi_idempotent():
    # every tableau at n <= 3, the row- and column-filled ones at n = 4, on
    # every echelon row of every Specht module
    cases = [
        t for n in (1, 2, 3) for shape in all_shapes(n) for t in specht.all_tableaux(shape, n)
    ] + [
        fill(shape, 4)
        for shape in all_shapes(4)
        for fill in (specht.row_filled_tableau, specht.column_filled_tableau)
    ]
    nonzero = 0
    for t in cases:
        n = t.n
        expanded = expanded_quasi_idempotent(t)
        for shape in all_shapes(n):
            tabloids = specht.all_tabloids(shape, n)
            factors = [
                [(specht.tabloid_map(d, shape, n), c) for d, c in f.terms.items()]
                for f in quasi_idempotent_factors(t)
            ]
            for row in specht.specht_basis(shape, n).int_rows():
                got = ideals._act_by_factors(factors, row)
                vec = {tabloids[i]: c for i, c in row.items()}
                want = act_on_tabloid_vector_by_terms(expanded, vec)
                assert got == specht.vector_coordinates(want, shape, n), (t, shape, row)
                nonzero += bool(got)
    assert nonzero > 0


def test_absorption_report():
    rep = check_absorption(1, 2)
    assert rep["pass"], rep
    assert rep["check"] == "verify-lemma-4-4"
    rep = check_absorption(2, 3)
    assert rep["pass"], rep


def test_faithful_action_report():
    rep = check_faithful_action(2, 2)
    assert rep["pass"], rep
    rep = check_faithful_action(3, 2)
    assert rep["pass"], rep


def test_annihilator_ideal_report_names_every_claim():
    rep = check_annihilator_ideal(1, 2)
    assert rep["pass"], rep
    names = [a["name"] for a in rep["assertions"]]
    assert len(names) == 6
    assert len(set(names)) == 6
    assert "Specht characters decide every level" in names


def test_annihilator_ideal_report_small_cases():
    for m, n in ((1, 3), (2, 3)):
        rep = check_annihilator_ideal(m, n)
        assert rep["pass"], rep


def test_annihilator_equals_generator_ideal_as_canonical_bases():
    # the echelon form is canonical, so equal bases mean equal subspaces
    for n in range(1, 5):
        for m in range(n):
            ideal = two_sided_ideal(top_antisymmetrizer(m + 1, n))
            assert floor_span(n, annihilator_basis(m, n).int_rows()) == ideal.basis, (m, n)


def test_generator_ideal_dimension_matches_annihilator_formula():
    # dimension of the ideal generated by Y_{m+1} equals the annihilator count
    for m, n in ((1, 2), (1, 3), (2, 3)):
        y = top_antisymmetrizer(m + 1, n)
        ideal = two_sided_ideal(y)
        assert ideal.dimension == annihilator_dimension_formula(m, n)
