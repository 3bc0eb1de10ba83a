"""The headline's levels decided from the characters of the Specht modules,
against the echelon route they replaced and under deliberate corruption."""

import itertools
from math import factorial

import pytest

from rookmonoid import groupoid, ideals, linalg
from rookmonoid.diagrams import all_permutations, perm_sign
from rookmonoid.groupoid import (
    characters,
    content_character,
    cycle_type,
    fixed_words,
    missed_words,
    tensor_character,
)
from rookmonoid.ideals import check_annihilator_ideal
from rookmonoid.specht import partitions_of

from oracles import annihilator_by_echelon_levels, kills_every_growth_word

DECIDES = "Specht characters decide every level"


def _assertion(rep, name):
    return next(a for a in rep["assertions"] if a["name"] == name)


def _failed(rep):
    return {a["name"] for a in rep["assertions"] if not a["pass"]}


@pytest.fixture
def fresh_characters():
    # the characters are cached per k; a corrupted table must not stay behind
    characters.cache_clear()
    yield
    characters.cache_clear()


@pytest.mark.parametrize("m, n", [(m, n) for n in range(1, 6) for m in range(n)])
def test_character_route_matches_the_echelon_route(m, n):
    rep = check_annihilator_ideal(m, n)
    assert rep["pass"], rep
    fills = _assertion(rep, "ideal fills the annihilator")["witness"]
    ann, ideal, alive = annihilator_by_echelon_levels(m, n)
    assert fills["annihilator_by_level"] == ann
    assert fills["ideal_by_level"] == ideal
    assert alive == []


def test_characters_take_their_known_values():
    # the trivial and sign characters, and fixed points minus one on (k-1, 1)
    for k in range(1, 7):
        chars = characters(k)
        assert chars.certified, k
        assert list(chars.table) == list(partitions_of(k))
        assert sum(chars.sizes) == factorial(k)
        for j, sigma in enumerate(all_permutations(k)):
            t = chars.types[chars.class_of[j]]
            assert t == cycle_type(sigma)
            assert chars.table[(k,)][chars.class_of[j]] == 1
            assert chars.table[(1,) * k][chars.class_of[j]] == perm_sign(sigma)
            if k > 1:
                fixed = sum(a == b for a, b in enumerate(sigma, start=1))
                assert chars.table[(k - 1, 1)][chars.class_of[j]] == fixed - 1
        assert chars.types[-1] == (1,) * k


def test_word_characters_count_the_fixed_words():
    # by brute force over every word of {1..m}^k and every permutation
    for m, k in itertools.product(range(4), range(6)):
        chars = characters(k)
        words = list(itertools.product(range(1, m + 1), repeat=k))
        mu = groupoid.balanced(m, k)
        for i, t in enumerate(chars.types):
            sigma = all_permutations(k)[chars.class_of.index(i)]
            fixed = [u for u in words if all(u[s - 1] == u[a] for a, s in enumerate(sigma))]
            assert tensor_character(m, k)[i] == len(fixed)
            content = [u for u in fixed if all(u.count(a + 1) == c for a, c in enumerate(mu))]
            assert content_character(m, k)[i] == fixed_words(t, mu) == len(content)


def test_a_wrong_character_value_fails_the_certificate(monkeypatch, fresh_characters):
    # the transpositions of S_3 act as the identity when the traces are read,
    # so chi_(2,1) takes 2 instead of 0 on them, and its norm is no longer 1
    original = groupoid.partner_map
    monkeypatch.setattr(
        groupoid,
        "partner_map",
        lambda g: original((1, 2, 3) if cycle_type(g) == (2, 1) else g),
    )
    chars = characters(3)
    assert not chars.certified
    assert chars.table[(2, 1)] == (-1, 2, 2)
    rep = check_annihilator_ideal(1, 4)
    assert DECIDES in _failed(rep)
    assert "annihilator equals the ideal as subspaces" in _failed(rep)
    assert _assertion(rep, DECIDES)["witness"]["uncertified"] == [3]
    assert not rep["pass"]


def test_a_tensor_character_at_the_wrong_m_fails_the_supports(monkeypatch):
    original = groupoid.tensor_character
    monkeypatch.setattr(ideals, "tensor_character", lambda m, k: original(m + 1, k))
    rep = check_annihilator_ideal(2, 4)
    assert _failed(rep) == {DECIDES, "annihilator equals the ideal as subspaces"}
    # V^(x)k with 3 letters contains the sign of S_3 and more from level 3 on
    assert _assertion(rep, DECIDES)["witness"] == {"uncertified": [], "supports_differ": [3, 4]}


def test_a_flipped_seed_entry_fails_to_act_as_zero(monkeypatch):
    original = groupoid.level_blocks

    def flipped(y):
        blocks = original(y)
        entry = next(iter(blocks[y.n].values()))
        j = next(iter(entry))
        entry[j] = -entry[j]
        return blocks

    monkeypatch.setattr(ideals, "level_blocks", flipped)
    rep = check_annihilator_ideal(2, 3)
    assert "ideal acts as zero on the tensor power" in _failed(rep)
    assert not rep["pass"]
    words = _assertion(rep, "ideal acts as zero on the tensor power")["witness"]
    assert words and all(w["level"] == 3 for w in words)


def test_a_seed_that_misses_a_balanced_word_names_it(monkeypatch):
    # 1 - s_1 on level 3 kills the words whose first two letters agree; of
    # the growth words of content (2, 1) it misses 121 and 122
    def swapped(y):
        blocks = [{} for _ in range(y.n + 1)]
        blocks[3] = {((1, 2, 3), (1, 2, 3)): {0: 1, 2: -1}}
        return blocks

    assert all_permutations(3)[2] == (2, 1, 3)
    monkeypatch.setattr(ideals, "level_blocks", swapped)
    rep = check_annihilator_ideal(2, 3)
    words = _assertion(rep, "ideal acts as zero on the tensor power")["witness"]
    assert words == [{"level": 3, "word": [1, 2, 1]}, {"level": 3, "word": [1, 2, 2]}]
    x = {0: 1, 2: -1}
    assert missed_words(2, 3, [x]) == [(1, 2, 1), (1, 2, 2)]
    assert not kills_every_growth_word(2, 3, x)
    assert not rep["pass"]


def test_the_annihilator_check_neither_saturates_nor_builds_level_ideals(monkeypatch, fresh_characters):
    def forbidden(*args, **kwargs):
        raise AssertionError("the headline must not saturate in F S_k")

    monkeypatch.setattr(groupoid, "saturate", forbidden)
    monkeypatch.setattr(groupoid, "level_ideal", forbidden)
    monkeypatch.setattr(linalg, "saturate", forbidden)
    assert not hasattr(ideals, "level_ideal") and not hasattr(ideals, "saturate")
    for n in range(1, 5):
        for m in range(n):
            assert check_annihilator_ideal(m, n)["pass"], (m, n)
