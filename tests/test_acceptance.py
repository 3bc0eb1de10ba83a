"""Acceptance suite: one test per published claim, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every equality is exact; there are no floating tolerances anywhere.
"""

import time

from rookmonoid.algebra import top_antisymmetrizer
from rookmonoid.diagrams import monoid_order, verify_presentation
from rookmonoid.ideals import (
    annihilator_dimension_formula,
    check_absorption,
    check_annihilator_ideal,
    check_block_decomposition,
    check_faithful_action,
    check_one_dimensional_ideals,
    check_specht_orthogonality,
)
from rookmonoid.tensor import element_matrix
from rookmonoid.verify import (
    check_counting,
    check_factorization,
    check_specht_dimension_sum,
    check_tensor_homomorphism,
)

from oracles import matrix_is_zero


def _conclude(label, description, budget, started, reports):
    elapsed = time.monotonic() - started
    failed = [rep for rep in reports if not rep["pass"]]
    ok = not failed and elapsed < budget
    line = f"[{label}] {description}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)"
    print(line)
    assert not failed, (line, failed)
    assert elapsed < budget, line


def test_criterion_01_counting():
    started = time.monotonic()
    reports = [check_counting(n) for n in range(1, 7)]
    orders = [monoid_order(n) for n in range(1, 7)]
    assert orders == [2, 7, 34, 209, 1546, 13327]
    _conclude(
        "criterion 1",
        "diagram counts match the closed formula for n = 1..6",
        5.0,
        started,
        reports,
    )


def test_criterion_02_presentation():
    started = time.monotonic()
    reports = [verify_presentation(n) for n in range(2, 6)]
    _conclude(
        "criterion 2",
        "all eight relation families hold for n <= 5",
        1.0,
        started,
        reports,
    )


def test_criterion_03_factorization():
    started = time.monotonic()
    reports = [check_factorization(n) for n in range(1, 6)]
    _conclude(
        "criterion 3",
        "factorization round-trips for n <= 5, unique by count for n <= 5",
        10.0,
        started,
        reports,
    )


def test_criterion_04_one_dimensional_ideals():
    started = time.monotonic()
    reports = [check_one_dimensional_ideals(n) for n in (2, 3, 4)]
    _conclude(
        "criterion 4",
        "symmetrizer, antisymmetrizer and full deletion span 1-dim ideals",
        30.0,
        started,
        reports,
    )


def test_criterion_05_representation_homomorphism():
    started = time.monotonic()
    reports = [
        check_tensor_homomorphism(n, m)
        for n, m in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1))
    ]
    _conclude(
        "criterion 5",
        "tensor matrices multiply like diagrams (exhaustive through (4,2) and (5,1))",
        60.0,
        started,
        reports,
    )


def test_criterion_06_faithful_when_wide():
    started = time.monotonic()
    reports = [check_faithful_action(m, n) for m, n in ((2, 2), (3, 3), (3, 2))]
    _conclude(
        "criterion 6",
        "the action is faithful for m >= n",
        30.0,
        started,
        reports,
    )


def test_criterion_07_annihilator_headline():
    started = time.monotonic()
    frozen = {(1, 2): 1, (1, 3): 14, (2, 3): 1, (1, 4): 139, (2, 4): 26, (3, 4): 1}
    reports = []
    for (m, n), dim in frozen.items():
        assert annihilator_dimension_formula(m, n) == dim
        reports.append(check_annihilator_ideal(m, n))
    _conclude(
        "criterion 7",
        "annihilator equals the antisymmetrizer ideal, dims exact, m < n <= 4",
        300.0,
        started,
        reports,
    )


def test_criterion_08_block_decomposition():
    started = time.monotonic()
    reports = [check_block_decomposition(n) for n in (2, 3, 4)]
    _conclude(
        "criterion 8",
        "block ideals decompose the algebra (exhaustive n <= 3, sampled n = 4)",
        300.0,
        started,
        reports,
    )


def test_criterion_09_specht_orthogonality():
    started = time.monotonic()
    reports = [check_specht_orthogonality(n) for n in (2, 3)]
    _conclude(
        "criterion 9",
        "quasi-idempotents kill Specht modules of other shapes",
        30.0,
        started,
        reports,
    )


def test_criterion_10_antisymmetrizer_collapse_and_absorption():
    started = time.monotonic()
    pairs = [(m, n) for n in (2, 3, 4) for m in range(1, n)]
    for m, n in pairs:
        assert matrix_is_zero(element_matrix(top_antisymmetrizer(m + 1, n), m))
    reports = [check_absorption(m, n) for m, n in pairs]
    _conclude(
        "criterion 10",
        "Y_{m+1} kills the tensor power and rescales tall quasi-idempotents",
        60.0,
        started,
        reports,
    )


def test_criterion_11_dimension_identity():
    started = time.monotonic()
    reports = [check_specht_dimension_sum(n) for n in (1, 2, 3, 4)]
    assert monoid_order(3) == 34
    assert monoid_order(4) == 209
    _conclude(
        "criterion 11",
        "squared Specht dimensions add up to the monoid order for n <= 4",
        60.0,
        started,
        reports,
    )


def test_stretch_annihilator_n5():
    started = time.monotonic()
    frozen = {(1, 5): 1294, (2, 5): 428}
    reports = []
    for (m, n), dim in frozen.items():
        assert annihilator_dimension_formula(m, n) == dim
        reports.append(check_annihilator_ideal(m, n))
    _conclude(
        "stretch",
        "annihilator headline at n = 5 for m in {1, 2}",
        1800.0,
        started,
        reports,
    )
