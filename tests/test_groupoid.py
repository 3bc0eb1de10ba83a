import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from rookmonoid import groupoid, ideals, linalg
from rookmonoid.algebra import (
    AlgebraElement,
    full_projector,
    tableau_quasi_idempotent,
    top_antisymmetrizer,
)
from rookmonoid.diagrams import (
    all_diagrams,
    diagram_index,
    identity,
    monoid_order,
    multiplication_maps,
    multiply,
    three_generators,
)
from rookmonoid.groupoid import (
    balanced,
    basis_change_failures,
    domain_groups,
    floor_blocks,
    floor_product,
    growth_words,
    level_blocks,
    level_ideal,
    missed_words,
    relabel,
    sweep,
)
from rookmonoid.ideals import block_ideal, check_annihilator_ideal, two_sided_ideal
from rookmonoid.specht import all_shapes, column_filled_tableau, row_filled_tableau
from rookmonoid.linalg import SpanBasis, SparseMatrix, nullspace
from rookmonoid.tensor import element_matrix, tensor_dim

import oracles
from oracles import (
    annihilator_by_phi_kernel,
    diagram_matrix,
    element_from_coordinates,
    floor_product_failures,
    floor_span,
    kills_every_growth_word,
    level_annihilator,
    restrictions,
    two_sided_ideal_by_saturation,
    unkilled_words,
)


def _assertion(rep, name):
    return next(a for a in rep["assertions"] if a["name"] == name)


def _failed(rep):
    return {a["name"] for a in rep["assertions"] if not a["pass"]}


@pytest.fixture
def fresh_certificate():
    # the certificate and its right maps are cached per n; a mutated run must
    # not leave its result behind, nor find one left by an earlier run
    for cache in (basis_change_failures, groupoid.right_generator_maps):
        cache.cache_clear()
    yield
    for cache in (basis_change_failures, groupoid.right_generator_maps):
        cache.cache_clear()


@pytest.fixture
def floor_certificate(monkeypatch):
    # the reports certify the basis change floor by floor, so that a flipped
    # Moebius sign reaches them
    monkeypatch.setattr(ideals, "basis_change_failures", floor_product_failures)


def test_level_route_matches_the_phi_kernel_route():
    for n in range(1, 5):
        for m in range(n):
            rep = check_annihilator_ideal(m, n)
            assert rep["pass"], rep
            fills = _assertion(rep, "ideal fills the annihilator")["witness"]
            assert (fills["annihilator"], fills["ideal"]) == annihilator_by_phi_kernel(m, n), (m, n)


def test_relabelling_composes_like_diagrams():
    # sigma_(t u) = sigma_t sigma_u whenever ran t = dom u
    diags = all_diagrams(3)
    for t, u in itertools.product(diags, repeat=2):
        ran_t = {b for b in t if b}
        dom_u = {a for a, b in enumerate(u, start=1) if b}
        if ran_t == dom_u:
            assert relabel(multiply(t, u)) == multiply(relabel(t), relabel(u)), (t, u)


@pytest.mark.parametrize("m, n", [(1, 3), (2, 3), (1, 4)])
def test_mobius_element_acts_on_its_range_support_only(m, n):
    # phi(floor(d)) v_w = [supp w = ran d] phi(d) v_w, and on that support the
    # digits move as sigma_d moves the letters of a word
    dim = tensor_dim(m, n)
    for d in all_diagrams(n):
        floor = AlgebraElement(n, sweep({d: 1}, -1))
        ran = {b for b in d if b}
        dom = [a for a, b in enumerate(d, start=1) if b]
        sigma = relabel(d)
        expect = {}
        for (row, col), v in diagram_matrix(d, m).entries.items():
            digits_in = [col // (m + 1) ** (n - i) % (m + 1) for i in range(1, n + 1)]
            digits_out = [row // (m + 1) ** (n - i) % (m + 1) for i in range(1, n + 1)]
            if {i + 1 for i, x in enumerate(digits_in) if x} != ran:
                continue
            word = [digits_in[b - 1] for b in sorted(ran)]
            assert [digits_out[a - 1] for a in dom] == [word[s - 1] for s in sigma]
            expect[(row, col)] = v
        got = element_matrix(floor, m)
        assert (got.rows, got.cols) == (dim, dim)
        assert got.entries == expect, d


def test_growth_words_decide_the_level_annihilator():
    # K_mu, the kernel on the growth words of balanced content, contains the
    # kernel on every word of {1..m}^k (fewer words, fewer conditions), so
    # equal dimensions mean equal kernels
    for m in range(5):
        for k in range(6):
            perms = sorted(itertools.permutations(range(1, k + 1)))
            entries, rows = {}, {}
            for u in itertools.product(range(1, m + 1), repeat=k):
                for j, sigma in enumerate(perms):
                    key = (u, tuple(u[s - 1] for s in sigma))
                    entries[(rows.setdefault(key, len(rows)), j)] = 1
            full = nullspace(SparseMatrix(max(len(rows), 1), len(perms), entries))
            assert level_annihilator(m, k) == len(full), (m, k)
    assert len(growth_words(3, 5)) == 1 + 15 + 25  # S(5,1) + S(5,2) + S(5,3)


def test_a_diagram_keeps_its_domain_when_its_range_lies_in_the_next():
    # dom(d e) = dom d exactly when ran d lies in dom e, so the certificate's
    # expected floors stay inside the domain of d
    for n in range(1, 5):
        for d, e in itertools.product(all_diagrams(n), repeat=2):
            dom_d = {a for a, b in enumerate(d, start=1) if b}
            dom_de = {a for a, b in enumerate(multiply(d, e), start=1) if b}
            inside = all(e[b - 1] for b in d if b)
            assert (dom_de == dom_d) == inside, (d, e)


@pytest.mark.parametrize("n", range(1, 6))
def test_sweep_matches_its_definition(n):
    # every diagram's floor, which the certificate takes from this definition
    # without building it, and the zeta sweep back to the diagram
    diags = all_diagrams(n)
    for d in diags:
        floor = sweep({d: 1}, -1)
        assert floor == {t: (-1) ** r for t, r in restrictions(d)}, d
        assert sweep(floor, 1) == {d: 1}, d
    if n == 5:
        return  # the slot-by-slot zeta below compares every pair of diagrams
    # small entries on a random support, so that sums cancel in both directions
    rng = random.Random(n)
    for _ in range(30):
        vec = {d: rng.randint(-2, 2) for d in rng.sample(diags, rng.randint(0, len(diags)))}
        zeta = {}
        for t in diags:
            total = sum(c for d, c in vec.items() if all(x in (0, y) for x, y in zip(t, d)))
            if total:
                zeta[t] = total
        floors = {}
        for d, c in vec.items():
            for t, r in restrictions(d):
                floors[t] = floors.get(t, 0) + (-1) ** r * c
        assert sweep(vec, 1) == zeta
        assert sweep(vec, -1) == {t: c for t, c in floors.items() if c}
        assert sweep(sweep(vec, 1), -1) == {d: c for d, c in vec.items() if c}


@pytest.mark.parametrize(
    "m, k, words",
    # content (2, 2, 1): 15 of the 41 growth words; (2, 2): 3 of 8; 1^4: one of 15
    [(3, 5, 15), (2, 4, 3), (4, 4, 1), (7, 4, 1), (1, 3, 1), (0, 3, 0), (0, 0, 1)],
)
def test_level_annihilator_reads_the_balanced_words_only(m, k, words, monkeypatch):
    inserted = []

    class Counting(SpanBasis):
        def insert(self, vec):
            inserted.append(len(vec))
            return super().insert(vec)

    monkeypatch.setattr(oracles, "SpanBasis", Counting)
    oracles.level_annihilator.__wrapped__(m, k)
    assert sum(inserted) == words * factorial(k)


def test_missed_words_reads_the_balanced_growth_words():
    # the identity kills no word, so every growth word whose sorted letter
    # counts form mu is missed, and no other; there are
    # k! / (prod mu_i! prod_j mult_j(mu)!) of them, none when m = 0 < k
    for m in range(7):
        for k in range(8):
            mu = balanced(m, k)
            words = [u for u in growth_words(m, k) if sorted(Counter(u).values(), reverse=True) == list(mu)]
            assert missed_words(m, k, [{0: 1}]) == words, (m, k)
            count = factorial(k) // math.prod(map(factorial, [*mu, *Counter(mu).values()]))
            assert len(words) == (0 if m == 0 < k else count), (m, k)


def _level_verdicts(m, blocks):
    """Per level, whether the entries kill V^(x)k by the all-growth-word
    reference and whether their ideal kills the sorted word of each content."""
    return [
        (
            all(kills_every_growth_word(m, k, x) for x in block.values()),
            not unkilled_words(m, k, level_ideal(k, block.values()).int_rows()),
        )
        for k, block in enumerate(blocks)
    ]


def test_sorted_words_of_the_ideal_agree_with_every_growth_word():
    for n in range(1, 6):
        for m in range(n):
            verdicts = _level_verdicts(m, level_blocks(top_antisymmetrizer(m + 1, n)))
            assert verdicts == [(True, True)] * (n + 1), (m, n)
            if m:
                # Y_m keeps the word 12...m alive from level m on
                verdicts = _level_verdicts(m, level_blocks(top_antisymmetrizer(m, n)))
                assert verdicts == [(k < m, k < m) for k in range(n + 1)], (m, n)
    # 1 + s_1 at (1, 2) keeps the word 11 alive by both readings
    assert _level_verdicts(1, [{}, {}, {((1, 2), (1, 2)): {0: 1, 1: 1}}]) == [
        (True, True),
        (True, True),
        (False, False),
    ]


def _flip_floor_entry(monkeypatch, target, cut):
    """Negate the entry of floor(target) at cut, in every Moebius sweep that
    builds floor(target)."""
    original = groupoid.sweep

    def flipped(vec, sign):
        out = original(vec, sign)
        if sign < 0 and target in vec:
            out[cut] = out.get(cut, 0) - 2 * vec[target] * original({target: 1}, -1)[cut]
        return out

    monkeypatch.setattr(groupoid, "sweep", flipped)


def test_a_flipped_moebius_sign_fails_the_certificate(monkeypatch, floor_certificate):
    target = (2, 3, 1)
    _flip_floor_entry(monkeypatch, target, (2, 3, 0))
    rep = check_annihilator_ideal(1, 3)
    assert _failed(rep) == {
        "groupoid basis change is certified at n",
        "annihilator equals the ideal as subspaces",
    }
    failing = _assertion(rep, "groupoid basis change is certified at n")["witness"]["failing"]
    # each failing product has the corrupted diagram as its left factor or result
    assert failing and all(
        target in (tuple(d), multiply(tuple(d), tuple(g))) for d, g in failing
    )


def test_three_generators_reach_every_diagram():
    assert three_generators(1) == ((0,),)
    assert three_generators(2) == ((2, 1), (0, 2))
    for n in range(1, 7):
        gens = three_generators(n)
        assert len(set(gens)) == len(gens) == min(n, 3), n
        order = monoid_order(n)
        assert basis_change_failures(n) == ((), True, order * len(gens), order), n


def test_permutations_alone_fail_the_certificate_by_reach(monkeypatch, fresh_certificate):
    # s_1 and the cycle obey every product rule but reach only S_n, so the
    # certificate must not take generation for granted
    monkeypatch.setattr(groupoid, "three_generators", lambda n: three_generators(n)[:-1])
    rep = check_annihilator_ideal(1, 3)
    assert _failed(rep) == {
        "groupoid basis change is certified at n",
        "annihilator equals the ideal as subspaces",
    }
    witness = _assertion(rep, "groupoid basis change is certified at n")["witness"]
    assert witness == {"failing": [], "unit": True, "reached": 6, "order": monoid_order(3)}


@pytest.mark.parametrize(
    "target, cut",
    # s_1 and p_1 both fix (0, 4, 3, 0), so only the cycle meets its floor
    [((0, 4, 3, 0), (0, 4, 0, 0)), ((3, 0, 0, 1), (0, 0, 0, 1))],
)
def test_a_flipped_sign_on_rank_two_fails_the_certificate(target, cut, monkeypatch, floor_certificate):
    _flip_floor_entry(monkeypatch, target, cut)
    rep = check_annihilator_ideal(1, 4)
    assert "groupoid basis change is certified at n" in _failed(rep)
    witness = _assertion(rep, "groupoid basis change is certified at n")["witness"]
    assert witness["failing"] and witness["unit"]
    assert witness["reached"] == witness["order"] == monoid_order(4)
    assert all(target in (tuple(d), multiply(tuple(d), tuple(g))) for d, g in witness["failing"])
    assert [target, (2, 3, 4, 1)] in [[tuple(d), tuple(g)] for d, g in witness["failing"]]


def test_failing_products_come_in_diagram_order(monkeypatch):
    # the floors are built one domain at a time, but the failing pairs of
    # flips in two domains still come as one pass over the diagrams gives them
    _flip_floor_entry(monkeypatch, (3, 0, 0, 1), (0, 0, 0, 1))
    _flip_floor_entry(monkeypatch, (2, 3, 0, 0), (2, 0, 0, 0))
    failing, unit, _, _ = floor_product_failures(4)
    order = {d: i for i, d in enumerate(all_diagrams(4))}
    keys = [(order[d], three_generators(4).index(g)) for d, g in failing]
    assert unit and keys == sorted(keys)
    domains = [tuple(map(bool, d)) for d, _ in failing]
    assert domains != sorted(domains, key=domains.index)  # the two domains interleave


def test_both_certificates_pass_at_small_n():
    # the index check on the deletions and the floor-by-floor products agree
    for n in range(1, 6):
        order = monoid_order(n)
        expected = ((), True, order * len(three_generators(n)), order)
        assert basis_change_failures(n) == floor_product_failures(n) == expected, n


def test_a_corrupted_right_map_fails_both_certificates(monkeypatch, fresh_certificate):
    # right multiplication by the cycle sends d to a wrong diagram of the
    # same domain; both certificates name d among their failing pairs, every
    # one of them with the cycle, in diagram order
    n, d, g, wrong = 4, (3, 0, 0, 1), (2, 3, 4, 1), (2, 0, 0, 4)
    assert multiply(d, g) == (4, 0, 0, 2)

    def corrupted(index, left, right):
        maps = [list(tau) for tau in multiplication_maps(index, left, right)]
        if g in right:
            maps[len(left) + right.index(g)][index[d]] = index[wrong]
        return tuple(map(tuple, maps))

    monkeypatch.setattr(groupoid, "multiplication_maps", corrupted)
    monkeypatch.setattr(oracles, "multiplication_maps", corrupted)
    order = {e: i for i, e in enumerate(all_diagrams(n))}
    for certificate in (basis_change_failures, floor_product_failures):
        failing, unit, _, reached = certificate(n)
        assert (d, g) in failing and unit and reached == monoid_order(n), certificate
        assert {h for _, h in failing} == {g}, certificate
        keys = [order[e] for e, _ in failing]
        assert keys == sorted(set(keys)), certificate
    rep = check_annihilator_ideal(1, n)
    assert "groupoid basis change is certified at n" in _failed(rep)


def test_a_dropped_block_entry_fails_to_fill_the_annihilator(monkeypatch):
    original = groupoid.level_blocks

    def dropped(y):
        blocks = original(y)
        top = blocks[y.n]
        del top[next(iter(top))]
        return blocks

    monkeypatch.setattr(ideals, "level_blocks", dropped)
    rep = check_annihilator_ideal(1, 2)
    assert "ideal fills the annihilator" in _failed(rep)
    assert not rep["pass"]
    fills = _assertion(rep, "ideal fills the annihilator")["witness"]
    assert fills["ideal_by_level"] == [0, 0, 0]
    assert fills["annihilator_by_level"] == [0, 0, 1]


def test_a_wrong_block_entry_of_the_right_dimension_fails_containment(monkeypatch):
    # at (1, 2) the one top entry is 1 - s_1, whose ideal is ann_2; 1 + s_1
    # spans an ideal of the same dimension that does not lie in ann_2, so the
    # sandwich's lower inclusion fails while the dimensions still agree
    original = groupoid.level_blocks

    def symmetrized(y):
        blocks = original(y)
        (entry,) = blocks[y.n].values()
        for j in entry:
            entry[j] = 1
        return blocks

    monkeypatch.setattr(ideals, "level_blocks", symmetrized)
    rep = check_annihilator_ideal(1, 2)
    assert _failed(rep) == {
        "ideal acts as zero on the tensor power",
        "annihilator equals the ideal as subspaces",
    }
    assert _assertion(rep, "ideal acts as zero on the tensor power")["witness"] == [
        {"level": 2, "word": [1, 1]}
    ]
    assert _assertion(rep, "ideal fills the annihilator")["pass"]


def test_a_kernel_larger_than_the_annihilator_fails_to_be_filled(monkeypatch):
    # the kernel on the one word of content (k) holds ann_k and more when
    # m > 1: its support is the trivial shape alone, not the tensor power's
    original = groupoid.content_character
    monkeypatch.setattr(ideals, "content_character", lambda m, k: original(1, k))
    rep = check_annihilator_ideal(2, 3)
    assert _failed(rep) == {
        "Specht characters decide every level",
        "annihilator dimension matches the Specht count",
        "ideal fills the annihilator",
        "annihilator equals the ideal as subspaces",
    }
    witness = _assertion(rep, "Specht characters decide every level")["witness"]
    assert witness == {"uncertified": [], "supports_differ": [2, 3]}
    fills = _assertion(rep, "ideal fills the annihilator")["witness"]
    assert fills["ideal_by_level"] == [0, 0, 0, 1]
    assert fills["annihilator_by_level"] == [0, 0, 1, 5]


def test_level_blocks_of_the_generator_start_at_level_m_plus_one():
    for n in range(2, 5):
        for m in range(1, n):
            blocks = groupoid.level_blocks(top_antisymmetrizer(m + 1, n))
            assert [bool(b) for b in blocks] == [k > m for k in range(n + 1)], (m, n)
            for k, block in enumerate(blocks):
                assert all(len(dom) == len(ran) == k for dom, ran in block)


def _saturated_floors(a):
    """The saturation oracle's ideal of a, moved to floor coordinates."""
    return floor_span(a.n, two_sided_ideal_by_saturation(a).basis.int_rows())


def test_level_ideal_matches_the_saturation():
    # the canonical echelon form makes equal spans equal bases, row for row
    for n in range(1, 5):
        gens = [top_antisymmetrizer(k, n) for k in range(1, n + 1)]
        for shape in all_shapes(n):
            for fill in (row_filled_tableau, column_filled_tableau):
                gens.append(tableau_quasi_idempotent(fill(shape, n)))
        for a in gens:
            assert two_sided_ideal(a).basis == _saturated_floors(a), (a, n)


def test_level_ideal_spans_several_levels():
    # 1 - p_1 + p_1 p_2 / 2 has terms on levels 2, 1 and 0 at n = 2
    a = AlgebraElement(2, {identity(2): 1, (0, 2): -1, (0, 0): Fraction(1, 2)})
    assert sum(map(bool, level_blocks(a))) == 3
    assert two_sided_ideal(a).basis == _saturated_floors(a)


@st.composite
def element_pair(draw, max_n):
    n = draw(st.integers(min_value=1, max_value=max_n))
    diags = all_diagrams(n)
    coeff = st.one_of(
        st.integers(min_value=-2, max_value=2),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
    )
    # few diagrams and small coefficients, so sums often cancel on a level
    support = st.sampled_from(diags[: draw(st.integers(min_value=1, max_value=len(diags)))])
    element = st.dictionaries(support, coeff, max_size=6).map(lambda t: AlgebraElement(n, t))
    return draw(element), draw(element)


@settings(max_examples=50, deadline=None)
@given(element_pair(3))
def test_level_ideal_matches_the_saturation_on_drawn_elements(pair):
    for a in pair:
        if not a.is_zero():
            assert two_sided_ideal(a).basis == _saturated_floors(a)


def _floor_coordinates(a):
    """The zeta ``sweep`` of an element, keyed by diagram index."""
    index = diagram_index(a.n)
    return {index[t]: c for t, c in sweep(a.terms, 1).items()}


def _check_product(x, y):
    got = floor_product(x.n, _floor_coordinates(x), domain_groups(x.n, _floor_coordinates(y)))
    product = x * y
    assert got == _floor_coordinates(product), (x, y)
    assert (not got) == product.is_zero(), (x, y)
    return product.is_zero()


def test_floor_product_matches_the_product_of_block_elements():
    # two echelon rows of one block ideal often multiply to nonzero, rows of
    # distinct blocks never; the full projector lives on level 0 alone.  The
    # rows are the saturation oracle's, in diagram coordinates, of the same
    # span as each block ideal
    for n in range(1, 5):
        rows = []
        for shape in all_shapes(n):
            e = tableau_quasi_idempotent(row_filled_tableau(shape, n))
            oracle = two_sided_ideal_by_saturation(e).basis.int_rows()
            assert floor_span(n, oracle) == block_ideal(shape, n).basis, (shape, n)
            rows += [element_from_coordinates(n, row) for row in oracle[:2]]
        rows += [full_projector(n), AlgebraElement.one(n)]
        zeros = [_check_product(x, y) for x in rows for y in rows]
        assert any(zeros) and not all(zeros), n
    assert level_blocks(full_projector(3))[0] == {((), ()): {0: 1}}


@settings(max_examples=200, deadline=None)
@given(element_pair(4))
def test_floor_product_matches_the_product_on_drawn_elements(pair):
    _check_product(*pair)


def test_block_ideal_rows_each_lie_in_one_cell():
    # every echelon row of a block ideal is floor of E(dom, ran) (x) x for one
    # pair of |lambda|-subsets, read directly off its floor coordinates, and
    # its Moebius sweep back to diagrams has those level blocks
    for n in range(1, 5):
        diags = all_diagrams(n)
        for shape in all_shapes(n):
            rows = block_ideal(shape, n).basis.int_rows()
            cells = Counter()
            for row in rows:
                hat = {diags[i]: c for i, c in row.items()}
                blocks = floor_blocks(n, hat)
                assert [len(b) for b in blocks] == [k == sum(shape) for k in range(n + 1)]
                cells[next(iter(blocks[sum(shape)]))] += 1
                assert level_blocks(AlgebraElement(n, sweep(hat, -1))) == blocks
            # each of the C(n,r)^2 cells holds the f_lambda^2 rows of J_lambda
            assert len(cells) == math.comb(n, sum(shape)) ** 2, (shape, n)
            assert set(cells.values()) == {len(rows) // len(cells)}, (shape, n)


def test_two_sided_ideals_run_no_moebius_sweep(monkeypatch):
    # the block path reads and writes floor coordinates; only the
    # certificate, cached here first, moves back to diagrams
    for n in range(1, 5):
        basis_change_failures(n)
    signs = []
    original = groupoid.sweep

    def zeta_only(vec, sign):
        signs.append(sign)
        if sign < 0:
            raise AssertionError("a Moebius sweep outside the certificate")
        return original(vec, sign)

    monkeypatch.setattr(groupoid, "sweep", zeta_only)
    block_ideal.cache_clear()
    try:
        for n in range(1, 5):
            assert ideals.check_block_decomposition(n)["pass"], n
            assert two_sided_ideal(top_antisymmetrizer(n, n)).dimension
    finally:
        block_ideal.cache_clear()
    assert signs and set(signs) == {1}


def test_ideal_of_blocks_clears_pivots_only_inside_level_ideals(monkeypatch):
    # the rows arrive in reduced echelon form, so every _cancel belongs to an
    # S_k saturation
    original_cancel, original_level = linalg._cancel, groupoid.level_ideal
    inside, cancels = [], []

    def level_ideal(k, seeds):
        inside.append(k)
        try:
            return original_level(k, seeds)
        finally:
            inside.pop()

    def cancel(*args):
        assert inside, "a pivot was cleared outside level_ideal"
        cancels.append(inside[-1])
        original_cancel(*args)

    monkeypatch.setattr(groupoid, "level_ideal", level_ideal)
    monkeypatch.setattr(linalg, "_cancel", cancel)
    for n in range(1, 5):
        gens = [top_antisymmetrizer(k, n) for k in range(1, n + 1)]
        gens += [tableau_quasi_idempotent(row_filled_tableau(s, n)) for s in all_shapes(n)]
        for a in gens:
            groupoid.ideal_of_blocks(n, level_blocks(a))
    assert cancels
