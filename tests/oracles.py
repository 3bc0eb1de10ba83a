"""Independent reference computations the tests freeze expectations against.

Everything here is deliberately brute force and shares no code path with the
routines under test.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, Mapping, Sequence

from rookmonoid.algebra import (
    AlgebraElement,
    Coeff,
    antisymmetrizer,
    element_coordinates,
    full_projector,
    symmetrizer,
    top_antisymmetrizer,
)
from rookmonoid.diagrams import (
    Diagram,
    Perm,
    Quadruple,
    all_diagrams,
    all_permutations,
    compose_quadruple,
    coset_reps,
    diagram_index,
    generator,
    identity,
    is_permutation,
    monoid_order,
    multiplication_maps,
    perm_length,
    reach,
    star,
    three_generators,
)
from rookmonoid import groupoid
from rookmonoid.groupoid import growth_words, level_blocks, level_ideal, sweep
from rookmonoid.ideals import IdealSpan
from rookmonoid.linalg import SpanBasis, SparseMatrix, apply_map, nullspace, row_space, saturate
from rookmonoid.reporting import assertion, report
from rookmonoid.specht import (
    Tableau,
    partitions_of,
    Tabloid,
    all_tableaux,
    all_tabloids,
    column_sets,
    polytabloid,
    vector_coordinates,
)
from rookmonoid.tensor import phi_matrix, tensor_dim


def transposition(n: int, i: int, j: int) -> Perm:
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"need distinct i, j in 1..{n}, got {i}, {j}")
    img = list(identity(n))
    img[i - 1], img[j - 1] = img[j - 1], img[i - 1]
    return tuple(img)


def generators(n: int) -> tuple[Diagram, ...]:
    """The 2n-1 monoid generators: s_1 .. s_n-1, then p_1 .. p_n.

    >>> generators(2)
    ((2, 1), (0, 2), (1, 0))
    """
    swaps = [generator(n, "s", i) for i in range(1, n)]
    return tuple(swaps + [generator(n, "p", i) for i in range(1, n + 1)])


def one_dimensional_ideals_by_all_generators(n: int) -> dict:
    """``ideals.check_one_dimensional_ideals`` on all 2n-1 generators of
    ``generators``, each labelled s_i or p_i, with the same assertions: the
    reference for the check on the three generators.  The three elements
    are looked up here at call time, so a test can substitute others."""
    everything = tuple(range(1, n + 1))
    cases = [
        ("symmetrizer", symmetrizer(everything, n), {"s": 1, "p": 0}),
        ("antisymmetrizer", antisymmetrizer(everything, n), {"s": -1, "p": 0}),
        ("projector", full_projector(n), {"s": 1, "p": 1}),
    ]
    gens = generators(n)
    maps = multiplication_maps(diagram_index(n), gens, gens)
    assertions = []
    for name, elem, eigen in cases:
        coords = element_coordinates(elem)
        j0, c0 = next(iter(coords.items()))

        def scaled(r):
            return {j: r * c for j, c in coords.items()} if r else {}

        outside, bad = [], []
        for d, left, right in zip(gens, maps, maps[len(gens):]):
            kind = "s" if is_permutation(d) else "p"
            # s_i and p_i both first move vertex i
            label = f"{kind}_{next(a for a, b in enumerate(d, start=1) if a != b)}"
            products = (apply_map(left, coords), apply_map(right, coords))
            if all(x == scaled(eigen[kind]) for x in products):
                continue
            bad.append(label)
            if any(scaled(x.get(j0, 0)) != {j: c0 * c for j, c in x.items()} for x in products):
                outside.append(label)
        assertions.append(
            assertion(
                f"{name} ideal is one-dimensional",
                not outside,
                {"outside": outside} if outside else {"dim": 1},
            )
        )
        assertions.append(
            assertion(
                f"{name} generator eigenvalues",
                not bad,
                {"expected": eigen} if not bad else {"violations": bad},
            )
        )
    return report("one-dimensional-ideals", {"n": n}, assertions)


def isolated_top(d: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a for a, b in enumerate(d, start=1) if b == 0)


def isolated_bottom(d: tuple[int, ...]) -> tuple[int, ...]:
    hit = set(d)
    return tuple(b for b in range(1, len(d) + 1) if b not in hit)


def compose_by_paths(d1: tuple[int, ...], d2: tuple[int, ...]) -> tuple[int, ...]:
    """Follow each top vertex of d1 to its bottom partner b, then through d2:
    0 when either step is missing.  The reference for the gather in
    ``diagrams.multiply``."""
    if len(d1) != len(d2):
        raise ValueError(f"size mismatch: {len(d1)} vs {len(d2)}")
    return tuple(d2[b - 1] if b else 0 for b in d1)


def restrictions(d: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every t <= d, that is d with some edges removed, with the number of
    edges removed.  The reference for ``groupoid.sweep``."""
    live = [a for a, b in enumerate(d) if b]
    for r in range(len(live) + 1):
        for cut in itertools.combinations(live, r):
            img = list(d)
            for a in cut:
                img[a] = 0
            yield tuple(img), r


def floor_product_failures(
    n: int,
) -> tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], bool, int, int]:
    """The basis-change certificate floor by floor: the reference for
    ``groupoid.basis_change_failures``, with the same return value.

    Builds floor(d) of every diagram by a Moebius ``groupoid.sweep``, one
    domain at a time, and compares floor(d) g with floor(d g) for each
    generator g of ``three_generators``, or with 0 when d g drops part of
    the domain of d.  The sweep and the index maps are looked up at call
    time, so a test can corrupt either; not cached, so a corrupted run
    leaves nothing behind."""
    diags = all_diagrams(n)
    index = diagram_index(n)
    gens = three_generators(n)
    right = multiplication_maps(index, (), gens)
    domains: dict[tuple[bool, ...], list[int]] = {}
    for i, d in enumerate(diags):
        domains.setdefault(tuple(map(bool, d)), []).append(i)
    bad = []
    for group in domains.values():
        floor = {i: {index[t]: c for t, c in groupoid.sweep({diags[i]: 1}, -1).items()} for i in group}
        for i in group:
            for j, tau in enumerate(right):
                if apply_map(tau, floor[i]) != floor.get(tau[i], {}):
                    bad.append((i, j))
    one = identity(n)
    reached = reach(right, index[one])
    partial_identities = itertools.product(*((0, a) for a in one))
    unit_holds = groupoid.sweep(dict.fromkeys(partial_identities, 1), -1) == {one: 1}
    failing = tuple((diags[i], gens[j]) for i, j in sorted(bad))
    return failing, unit_holds, len(diags) * len(gens), len(reached)


def kills_every_growth_word(m: int, k: int, x: dict[int, int]) -> bool:
    """Whether x in F S_k, in the coordinates of ``all_permutations(k)``,
    kills V^(x)k with dim V = m: x applied to each growth word u, one per
    relabelling orbit of letters, sums its coefficients over each output
    word u o sigma.  The reference for ``unkilled_words``, which reads one
    sorted word per content off the ideal instead."""
    perms = all_permutations(k)
    for u in growth_words(m, k):
        out: dict = {}
        for j, c in x.items():
            w = tuple(u[s - 1] for s in perms[j])
            out[w] = out.get(w, 0) + c
        if any(out.values()):
            return False
    return True


def product_by_terms(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """a b summed one term pair at a time through ``compose_by_paths``; the
    reference for ``AlgebraElement.__mul__``."""
    terms: dict = {}
    for d1, c1 in a.terms.items():
        for d2, c2 in b.terms.items():
            d = compose_by_paths(d1, d2)
            terms[d] = terms.get(d, 0) + c1 * c2
    return AlgebraElement(a.n, terms)


def act_on_tabloid_vector_by_terms(a: AlgebraElement, vec: dict) -> dict:
    """Each term of a renames the entries of each tabloid to their top
    partners, dropping a tabloid with an entry on an isolated bottom vertex;
    the reference for ``specht.act_on_tabloid_vector``, which acts on
    tabloid indices (compare through ``specht.vector_coordinates``)."""
    out: dict = {}
    for d, coeff in a.terms.items():
        partner = {b: top for top, b in enumerate(d, start=1) if b}
        for tb, c in vec.items():
            if all(e in partner for row in tb for e in row):
                image = tuple(tuple(sorted(partner[e] for e in row)) for row in tb)
                out[image] = out.get(image, 0) + coeff * c
    return {tb: c for tb, c in out.items() if c}


def expanded_quasi_idempotent(t: Tableau) -> AlgebraElement:
    """e_t multiplied out from its definition: the antisymmetrizer of each
    column, then the symmetrizer of each row, then p_i for each vertex i
    missing from the content.  The reference for
    ``algebra.tableau_quasi_idempotent``, which multiplies the smaller
    ``quasi_idempotent_factors`` instead."""
    n = t.n
    out = AlgebraElement.one(n)
    for col in column_sets(t):
        out = out * antisymmetrizer(col, n)
    for row in t.rows:
        out = out * symmetrizer(row, n)
    for i in range(1, n + 1):
        if i not in t.content:
            out = out * AlgebraElement.from_diagram(generator(n, "p", i))
    return out


def tabloid_of(t: Tableau) -> Tabloid:
    return tuple(tuple(sorted(row)) for row in t.rows)


def brute_quadruples(n: int):
    for r in range(n + 1):
        reps = coset_reps(n, r)
        fixed = tuple(range(1, r + 1))
        for d1 in reps:
            for d2 in reps:
                for tail in itertools.permutations(range(r + 1, n + 1)):
                    yield Quadruple(d1, d2, r, fixed + tail)


def brute_factorize(d: tuple[int, ...]) -> Quadruple:
    """The unique valid quadruple, found by exhausting all of them."""
    matches = [q for q in brute_quadruples(len(d)) if compose_quadruple(q) == d]
    assert len(matches) == 1, f"expected exactly one quadruple for {d}, got {len(matches)}"
    return matches[0]


def brute_sign(d: tuple[int, ...]) -> int:
    q = brute_factorize(d)
    ell = perm_length(q.d1) + perm_length(q.sigma) + perm_length(q.d2)
    return -1 if (q.r + ell) % 2 else 1


def act_on_tableau(d: tuple[int, ...], t: Tableau) -> Tableau | None:
    """Rename each entry to its top partner in the diagram; ``None`` when an
    entry has no partner (it sits on an isolated bottom vertex).  The
    reference for ``specht.act_on_tabloid``."""
    if len(d) != t.n:
        raise ValueError(f"size mismatch: {len(d)} vs {t.n}")
    partner = {b: a for a, b in enumerate(d, start=1) if b}
    if any(e not in partner for row in t.rows for e in row):
        return None
    rows = tuple(tuple(partner[e] for e in row) for row in t.rows)
    return Tableau(t.shape, t.n, rows)


def standard_tableau_count(shape: tuple[int, ...]) -> int:
    """Count fillings of the shape by 1..r increasing along rows and columns,
    by direct enumeration."""
    r = sum(shape)
    if r == 0:
        return 1
    count = 0
    bounds = list(itertools.accumulate(shape))
    for arrangement in itertools.permutations(range(1, r + 1)):
        rows = [
            arrangement[start - k:start] for k, start in zip(shape, bounds)
        ]
        if any(row[i] >= row[i + 1] for row in rows for i in range(len(row) - 1)):
            continue
        ok = True
        for upper, lower in zip(rows, rows[1:]):
            if any(upper[i] >= lower[i] for i in range(len(lower))):
                ok = False
                break
        if ok:
            count += 1
    return count


def element_star(a: AlgebraElement) -> AlgebraElement:
    """Flip every diagram; an anti-automorphism of the algebra."""
    return AlgebraElement(a.n, {star(d): c for d, c in a.terms.items()})


def matrix_rank(m: SparseMatrix) -> int:
    return row_space(m).dimension


def matrix_is_zero(m: SparseMatrix) -> bool:
    return not m.entries


def mat_vec(m: SparseMatrix, x: dict) -> dict:
    """The product m x as a dict of its nonzero entries."""
    out: dict = {}
    for (r, c), v in m.entries.items():
        if c in x:
            out[r] = out.get(r, 0) + v * x[c]
    return {r: v for r, v in out.items() if v}


def transpose(m: SparseMatrix) -> SparseMatrix:
    return SparseMatrix(m.cols, m.rows, {(c, r): v for (r, c), v in m.entries.items()})


def matmul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.cols} vs {b.rows}")
    b_rows = b.row_dicts()
    out: dict[tuple[int, int], Coeff] = {}
    for (r, k), va in a.entries.items():
        for c, vb in b_rows.get(k, {}).items():
            acc = out.get((r, c), 0) + va * vb
            if acc:
                out[(r, c)] = acc
            else:
                out.pop((r, c), None)
    return SparseMatrix(a.rows, b.cols, out)


def tensor_index(digits: Sequence[int], m: int) -> int:
    """Big-endian position of a digit string in the tensor power."""
    out = 0
    for d in digits:
        if not 0 <= d <= m:
            raise ValueError(f"digit {d} outside 0..{m}")
        out = out * (m + 1) + d
    return out


def diagram_entries(d: Sequence[int], m: int) -> Iterator[tuple[int, int]]:
    """The (row, column) positions of the 1s in one diagram's matrix, digit
    by digit: the reference definition of the action for
    ``tensor.diagram_map``."""
    hit = set(d) - {0}
    # isolated bottom vertices only accept digit 0
    ranges = [range(m + 1) if b in hit else range(1) for b in range(1, len(d) + 1)]
    for digits in itertools.product(*ranges):
        out_digits = tuple(digits[b - 1] if b else 0 for b in d)
        yield tensor_index(out_digits, m), tensor_index(digits, m)


def diagram_matrix(d: Sequence[int], m: int) -> SparseMatrix:
    """The 0/1 matrix of one diagram on the tensor power."""
    dim = tensor_dim(m, len(d))
    return SparseMatrix(dim, dim, dict.fromkeys(diagram_entries(d, m), 1))


def element_from_coordinates(
    n: int, coords: Mapping[int, Coeff]
) -> AlgebraElement:
    diags = all_diagrams(n)
    return AlgebraElement(n, {diags[i]: c for i, c in coords.items() if c})


def floor_span(n: int, rows: Iterable[Mapping[int, Coeff]]) -> SpanBasis:
    """The span of ``rows``, vectors in diagram coordinates, in the floor
    coordinates an ``IdealSpan`` holds: the zeta ``sweep`` of each row
    (d = sum over t <= d of floor(t)), inserted into a fresh echelon span.
    For an element, pass its one row of ``element_coordinates``.  The
    change of basis is the one ``groupoid.basis_change_failures``
    certifies; comparing through it keeps the saturation oracles in
    diagram coordinates."""
    diags, index = all_diagrams(n), diagram_index(n)
    basis = SpanBasis(monoid_order(n))
    for row in rows:
        hat = sweep({diags[i]: c for i, c in row.items()}, 1)
        basis.insert({index[t]: c for t, c in hat.items()})
    return basis


def two_sided_ideal_by_saturation(a: AlgebraElement) -> IdealSpan:
    """The span of ``a`` saturated breadth-first under multiplication by
    every generator on both sides, in all of F R_n.  The saturated span is
    closed under the generators, hence under the whole monoid: it is the
    ideal.  The reference for the level-by-level ``two_sided_ideal``; it
    shares ``saturate`` with it, but not the basis change or the levels."""
    if a.is_zero():
        raise ValueError("the zero element generates the zero ideal")
    n = a.n
    gens = generators(n)
    maps = multiplication_maps(diagram_index(n), gens, gens)
    return IdealSpan(saturate(monoid_order(n), maps, [element_coordinates(a)]))


def two_sided_ideal_exhaustive(a: AlgebraElement) -> IdealSpan:
    """Span of every product D1 * a * D2; quadratic in the monoid order, for
    cross-checking the other constructions at small sizes."""
    if a.is_zero():
        raise ValueError("the zero element generates the zero ideal")
    n = a.n
    basis = SpanBasis(monoid_order(n))
    diags = all_diagrams(n)
    for d1 in diags:
        left = AlgebraElement.from_diagram(d1) * a
        for d2 in diags:
            basis.insert(element_coordinates(left * AlgebraElement.from_diagram(d2)))
    return IdealSpan(basis)


def annihilator_by_phi_kernel(m: int, n: int) -> tuple[int, int]:
    """The annihilator's dimension as the kernel of phi over all of R_n, and
    the dimension of the ideal Y_{m+1} generates, saturated in all of F R_n;
    asserts every kernel vector lies in that ideal.  The whole-algebra route
    the level-by-level check replaced, kept to cross-check it: it shares
    ``nullspace`` and ``saturate`` with that check, but not the basis
    change or the levels."""
    kernel = nullspace(phi_matrix(m, n))
    ideal = two_sided_ideal_by_saturation(top_antisymmetrizer(m + 1, n))
    assert all(ideal.basis.contains(vec) for vec in kernel), (m, n)
    return len(kernel), ideal.dimension


def specht_basis_by_polytabloids(shape: tuple[int, ...], n: int) -> SpanBasis:
    """Echelon span of the polytabloid of every tableau of the shape, one
    per filling; the reference for the swap saturation in
    ``specht.specht_basis``."""
    basis = SpanBasis(len(all_tabloids(shape, n)))
    for t in all_tableaux(shape, n):
        basis.insert(vector_coordinates(polytabloid(t), shape, n))
    return basis


@lru_cache(maxsize=None)
def level_annihilator(m: int, k: int) -> int:
    """dim K_mu, the kernel of F S_k on the words in {1..m}^k of content mu,
    the balanced partition of k into min(m, k) parts, by elimination.

    Those words lie in V^(x)k with dim V = m, so K_mu contains ann_k; for
    m = 0 and k >= 1 there are none, and K_mu is all of F S_k.  Relabelling
    letters keeps the content and commutes with S_k, so the growth words of
    content mu decide K_mu: x kills u when it sums to 0 on each fibre
    {sigma : u o sigma = w}, so dim K_mu is k! minus the rank of the
    fibres' indicator rows.  The reference for the character supports of
    ``ideals.check_annihilator_ideal``.  Cached.
    """
    p = min(m, k)
    mu = [len(range(i, k, p)) for i in range(p)]
    perms = all_permutations(k)
    span = SpanBasis(factorial(k))
    for u in growth_words(m, k):
        if sorted(Counter(u).values(), reverse=True) == mu:
            fibres: dict[tuple[int, ...], dict[int, int]] = {}
            for j, sigma in enumerate(perms):
                fibres.setdefault(tuple(u[s - 1] for s in sigma), {})[j] = 1
            for row in fibres.values():
                span.insert(row)
    return factorial(k) - span.dimension


def unkilled_words(m: int, k: int, rows: Sequence[Mapping[int, int]]) -> list[tuple[int, ...]]:
    """The sorted words 1^nu_1 2^nu_2 ..., one for each partition nu of k
    into at most m parts, that some x in ``rows`` fails to kill.

    If ``rows`` span a two-sided ideal I of F S_k, none means I <= ann_k:
    x in I acting on u o tau is a product of x and tau, again in I, acting
    on u, and relabelling letters commutes with S_k, so the sorted word of
    each partition stands for every word in {1..m}^k.
    """
    perms = all_permutations(k)
    unkilled = []
    for nu in [nu for nu in partitions_of(k) if len(nu) <= m]:
        u = tuple(a for a, c in enumerate(nu, start=1) for _ in range(c))
        ids: dict[tuple[int, ...], int] = {}
        word = [ids.setdefault(tuple(u[s - 1] for s in sigma), len(ids)) for sigma in perms]
        for x in rows:
            out = [0] * len(ids)
            for j, c in x.items():
                out[word[j]] += c
            if any(out):
                unkilled.append(u)
                break
    return unkilled


def annihilator_by_echelon_levels(m: int, n: int) -> tuple[list[int], list[int], list[dict]]:
    """Per level k, dim K_mu (``level_annihilator``) and dim I_k, I_k the
    saturation of Y's level-k entries (``groupoid.level_ideal``), and the
    sorted words I_k fails to kill (``unkilled_words``): the two k!-column
    echelon forms the character supports replaced, kept to compare with them
    level by level."""
    ann, ideal, alive = [], [], []
    for k, block in enumerate(level_blocks(top_antisymmetrizer(m + 1, n))):
        rows = level_ideal(k, block.values())
        ann.append(level_annihilator(m, k))
        ideal.append(rows.dimension)
        alive += [{"level": k, "word": list(u)} for u in unkilled_words(m, k, rows.int_rows())]
    return ann, ideal, alive
