import json

import pytest

from rookmonoid import verify
from rookmonoid.caps import DEFAULT_MAX_CELLS, SizeCapError, check_tensor_map_cap
from rookmonoid.diagrams import (
    all_diagrams,
    identity,
    monoid_order,
    three_generators,
    verify_presentation,
)
from rookmonoid.reporting import jsonable
from rookmonoid.tensor import tensor_dim
from rookmonoid.verify import (
    check_counting,
    check_factorization,
    check_specht_dimension_sum,
    check_tensor_homomorphism,
)

import oracles


def _well_formed(rep):
    assert set(rep) == {"check", "params", "pass", "assertions"}
    assert isinstance(rep["check"], str)
    assert isinstance(rep["assertions"], list) and rep["assertions"]
    for a in rep["assertions"]:
        assert set(a) <= {"name", "pass", "witness"}
        assert isinstance(a["pass"], bool)
    assert rep["pass"] == all(a["pass"] for a in rep["assertions"])


def test_counting_reports():
    for n in (1, 2, 3, 4, 5):
        rep = check_counting(n)
        assert rep["pass"], rep
        _well_formed(rep)


def test_counting_witness_carries_order():
    # a passing report still shows the observed count
    rep = check_counting(3)
    text = json.dumps(jsonable(rep))
    assert "34" in text


def test_presentation_reports():
    for n in (2, 3, 4):
        rep = verify_presentation(n)
        assert rep["pass"], rep
        _well_formed(rep)


def test_factorization_reports():
    for n in (1, 2, 3, 4):
        rep = check_factorization(n)
        assert rep["pass"], rep
        _well_formed(rep)
        # the counted quadruples are the ones the oracle enumerates
        witness = rep["assertions"][-1]["witness"]
        assert witness["quadruples"] == len(list(oracles.brute_quadruples(n)))
        assert witness["quadruples"] == witness["diagrams"] == monoid_order(n)


def test_tensor_homomorphism_exhaustive():
    for n, m in ((1, 1), (2, 1), (2, 2), (3, 1)):
        rep = check_tensor_homomorphism(n, m)
        assert rep["pass"], rep
        _well_formed(rep)
        witness = rep["assertions"][-1]["witness"]
        assert witness == {"products": monoid_order(n) * len(three_generators(n))}


def test_tensor_homomorphism_catches_a_corrupted_diagram(monkeypatch):
    # (0, 0, 1) is no generator, so only the products reveal it; its
    # column 1 is zero, and the corruption sends it to row 0
    corrupt = (0, 0, 1)
    real = verify.diagram_map
    assert real(corrupt, 1)[1] == tensor_dim(1, 3)

    def broken(d, m):
        tau = real(d, m)
        return (tau[0], 0, *tau[2:]) if d == corrupt else tau

    monkeypatch.setattr(verify, "diagram_map", broken)
    rep = check_tensor_homomorphism(3, 1)
    assert not rep["pass"]
    failed = [a for a in rep["assertions"] if not a["pass"]]
    assert [a["name"] for a in failed] == ["diagram matrices multiply like diagrams"]
    assert any(w["product"] == list(corrupt) for w in failed[0]["witness"])
    assert all(list(corrupt) in (w["left"], w["product"]) for w in failed[0]["witness"])


def test_tensor_homomorphism_catches_a_corrupted_identity(monkeypatch):
    # the identity sends column 1 to zero; the products through it fail too
    one = identity(3)
    real = verify.diagram_map

    def broken(d, m):
        tau = real(d, m)
        return (tau[0], len(tau) - 1, *tau[2:]) if d == one else tau

    monkeypatch.setattr(verify, "diagram_map", broken)
    rep = check_tensor_homomorphism(3, 1)
    assert not rep["pass"]
    failed = [a["name"] for a in rep["assertions"] if not a["pass"]]
    assert failed == [
        "the identity acts as the identity matrix",
        "diagram matrices multiply like diagrams",
    ]


def test_tensor_homomorphism_refuses_past_the_cap():
    # the guard that the CLI runs before the certificate: the maps at (8, 1)
    # hold 1,441,729 * 257 entries
    with pytest.raises(SizeCapError) as exc:
        check_tensor_map_cap(1, 8, DEFAULT_MAX_CELLS)
    assert "tensor map entries" in str(exc.value)


def test_tensor_homomorphism_refuses_the_map_entries_at_once(monkeypatch):
    # (7, 1): phi has 5.1M nonzero entries, but the 130,922 maps of 2^7 + 1
    # entries each hold 16,888,938; the guard, run before the certificate as
    # the CLI runs it, refuses before any diagram map is built
    def no_map(d, m):
        raise AssertionError("a diagram map was built past the cap")

    monkeypatch.setattr(verify, "diagram_map", no_map)
    with pytest.raises(SizeCapError) as exc:
        check_tensor_map_cap(1, 7, DEFAULT_MAX_CELLS)
        check_tensor_homomorphism(7, 1)
    assert exc.value.value == monoid_order(7) * (2**7 + 1) == 16_888_938
    assert "tensor map entries |R_n| ((m+1)^n + 1) at m=1, n=7" in str(exc.value)


def test_factorization_catches_a_wrong_sigma(monkeypatch):
    target = (3, 1, 2)
    real = verify.factorize

    def broken(d):
        q = real(d)
        if d == target:
            q = q._replace(sigma=(2, 1, 3))
        return q

    assert real(target).sigma != (2, 1, 3)
    monkeypatch.setattr(verify, "factorize", broken)
    rep = check_factorization(3)
    assert not rep["pass"]
    failed = [a for a in rep["assertions"] if not a["pass"]]
    assert [a["name"] for a in failed] == ["compose inverts factorize on every diagram"]
    assert failed[0]["witness"] == [list(target)]


def test_factorization_count_catches_a_missing_diagram(monkeypatch):
    # with one diagram left out, some valid quadruple composes to nothing listed
    monkeypatch.setattr(verify, "all_diagrams", lambda n: all_diagrams(n)[1:])
    rep = check_factorization(3)
    assert not rep["pass"]
    failed = [a for a in rep["assertions"] if not a["pass"]]
    assert [a["name"] for a in failed] == ["valid quadruples are as many as diagrams"]
    assert failed[0]["witness"] == {"quadruples": 34, "diagrams": 33}


def test_specht_dimension_sum_reports():
    for n in (1, 2, 3, 4):
        rep = check_specht_dimension_sum(n)
        assert rep["pass"], rep
        _well_formed(rep)


def test_reports_serialize_to_json():
    rep = check_counting(2)
    text = json.dumps(jsonable(rep), sort_keys=True)
    assert json.loads(text)["pass"] is True
