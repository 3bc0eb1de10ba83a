"""Two-sided ideals of the monoid algebra and the structure checks built on
them.

An ideal is held as an echelon span in floor coordinates: entry i is the
coefficient of floor(``all_diagrams(n)[i]``) in the groupoid basis.  It is
built level by level there (``groupoid.ideal_of_blocks``), not by
saturating under the generators, and two of its basis elements multiply by
the product rule of that basis (``groupoid.floor_product``).  A generator
times a diagram is a single diagram, so each generator acts on diagram
coordinates as a precomputed index map, which the one-dimensional ideal
check applies.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from functools import lru_cache
from math import comb, factorial
from operator import mul
from typing import NamedTuple

from . import specht
from .algebra import (
    AlgebraElement,
    antisymmetrizer,
    element_coordinates,
    full_projector,
    quasi_idempotent_factors,
    symmetrizer,
    tableau_quasi_idempotent,
    top_antisymmetrizer,
)
from .diagrams import diagram_index, monoid_order, multiplication_maps, three_generators
from .groupoid import (
    basis_change_failures,
    characters,
    content_character,
    domain_groups,
    floor_product,
    ideal_of_blocks,
    level_blocks,
    missed_words,
    right_generator_maps,
    tensor_character,
)
from .linalg import SpanBasis, apply_map
from .reporting import assertion, report
from .tensor import phi_rank

DEFAULT_SEED = 20260822
SAMPLE_PAIRS = 300


@lru_cache(maxsize=None)
def _generator_maps(n: int) -> tuple[tuple[int, ...], ...]:
    """Index maps for left, then right, multiplication by each of
    ``three_generators(n)``; the right ones are the shared
    ``groupoid.right_generator_maps`` table."""
    return multiplication_maps(diagram_index(n), three_generators(n), ()) + right_generator_maps(n)


class IdealSpan(NamedTuple):
    """A two-sided ideal as the echelon span of its floor coordinates:
    entry i is the coefficient of floor(``all_diagrams(n)[i]``)."""

    basis: SpanBasis

    @property
    def dimension(self) -> int:
        return self.basis.dimension


def two_sided_ideal(a: AlgebraElement) -> IdealSpan:
    """The two-sided ideal ``a`` generates, in floor coordinates, from the
    S_k ideals of its level blocks (``groupoid.ideal_of_blocks``, which
    gives the argument).  The echelon form is canonical, so the basis is the
    one any other construction of the same span yields."""
    if a.is_zero():
        raise ValueError("the zero element generates the zero ideal")
    return IdealSpan(ideal_of_blocks(a.n, level_blocks(a)))


@lru_cache(maxsize=None)
def block_ideal(shape: specht.Shape, n: int) -> IdealSpan:
    """The two-sided ideal generated by the quasi-idempotent of the canonical
    row-filled tableau of the shape.  Cached; treat as read-only."""
    t = specht.row_filled_tableau(tuple(shape), n)
    return two_sided_ideal(tableau_quasi_idempotent(t))


def annihilator_dimension_formula(m: int, n: int) -> int:
    """Independent prediction: sum of squared Specht dimensions over the
    shapes with more than m rows."""
    return sum(
        specht.specht_dimension(shape, n) ** 2
        for shape in specht.all_shapes(n)
        if len(shape) >= m + 1
    )


def check_one_dimensional_ideals(n: int) -> dict:
    """The full symmetrizer, full antisymmetrizer, and all-deleting projector
    each span a one-dimensional two-sided ideal, with the advertised
    generator eigenvalues: every s_i acts as ``eigen["s"]`` and every p_i
    as ``eigen["p"]``, on either side.

    Both claims are checked on the generators s_1, c and p_1 of
    ``three_generators``, c the n-cycle, which generate R_n.  So span{e} is
    a two-sided ideal, of dimension 1, exactly when g e and e g are
    multiples of e for these three g.  For the eigenvalues, c is a product
    of the n - 1 swaps s_1 .. s_n-1, so it acts as ``eigen["s"]`` ** (n - 1)
    when they act as advertised.  Conversely, let c e = mu e; mu != 0, since
    c is invertible and e != 0, so w = c^k has w e = mu^k e and
    w^-1 e = mu^-k e.  Conjugating by the powers of c carries s_1 to every
    s_i and p_1 to every p_i: with w^-1 s_1 w = s_i and s_1 e = lambda e,
    s_i e = w^-1 s_1 (mu^k e) = lambda mu^k w^-1 e = lambda e, and likewise
    for p_i, and on the right with e c.  So s_1 and p_1 fix the advertised
    eigenvalues of every s_i and p_i, on each side.  The cycle's
    eigenvalue is checked under its own label ``c``; at n = 2 the cycle is
    s_1, and at n = 1 only p_1 is left."""
    everything = tuple(range(1, n + 1))
    cases = [
        ("symmetrizer", symmetrizer(everything, n), {"s": 1, "p": 0}),
        ("antisymmetrizer", antisymmetrizer(everything, n), {"s": -1, "p": 0}),
        ("projector", full_projector(n), {"s": 1, "p": 1}),
    ]
    gens = three_generators(n)
    labels = ("s_1", "c")[: len(gens) - 1] + ("p_1",)
    maps = _generator_maps(n)
    assertions = []
    for name, elem, eigen in cases:
        coords = element_coordinates(elem)
        j0, c0 = next(iter(coords.items()))
        expected = {"s_1": eigen["s"], "c": eigen["s"] ** (n - 1), "p_1": eigen["p"]}

        def scaled(r):
            return {j: r * c for j, c in coords.items()} if r else {}

        outside, bad = [], []
        for label, left, right in zip(labels, maps, maps[len(gens):]):
            # the coordinates of g e and e g; a product equal to the expected
            # multiple of e passes both assertions
            products = (apply_map(left, coords), apply_map(right, coords))
            expect = scaled(expected[label])
            if all(x == expect for x in products):
                continue
            bad.append(label)
            # x is a multiple of e exactly when c0 x = x_j0 e, c0 = e_j0 != 0
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


def _certificate_assertion(n: int) -> dict:
    """That ``basis_change_failures`` certifies the groupoid basis at n, on
    which every level-by-level check rests."""
    bad_products, unit_holds, products, reached = basis_change_failures(n)
    order = monoid_order(n)
    certified = not bad_products and unit_holds and reached == order
    return assertion(
        "groupoid basis change is certified at n",
        certified,
        {"products": products, "reached": reached}
        if certified
        else {
            "failing": [[list(d), list(g)] for d, g in bad_products[:5]],
            "unit": unit_holds,
            "reached": reached,
            "order": order,
        },
    )


def block_pairs(
    sizes: list[tuple[specht.Shape, int]], seed: int | None
) -> list[tuple[specht.Shape, int, specht.Shape, int]]:
    """Pairs (s1, i, s2, j) of basis indices i < size of s1, j < size of s2
    from distinct blocks s1 != s2, ordered by s1, s2, i, j: all of them when
    ``seed`` is None, else the ``SAMPLE_PAIRS`` that
    ``random.Random(seed).sample`` draws from that list.

    ``sample`` picks positions from the length alone, so sampling
    ``range(total)`` picks the same positions; each is decoded through the
    running counts of the (s1, s2) groups instead of listing every pair.
    """
    groups = [(s1, k1, s2, k2) for s1, k1 in sizes for s2, k2 in sizes if s1 != s2]
    starts = list(itertools.accumulate((k1 * k2 for _, k1, _, k2 in groups), initial=0))
    total = starts[-1]
    picks = range(total) if seed is None else random.Random(seed).sample(range(total), SAMPLE_PAIRS)
    pairs = []
    for p in picks:
        g = bisect_right(starts, p) - 1
        s1, _, s2, k2 = groups[g]
        i, j = divmod(p - starts[g], k2)
        pairs.append((s1, i, s2, j))
    return pairs


def check_block_decomposition(n: int, *, seed: int = DEFAULT_SEED) -> dict:
    """The block ideals are pairwise orthogonal and their dimensions, the
    squared Specht dimensions, add up to the monoid order.

    Both facts are read in the groupoid basis, so its certificate at n comes
    first.  Each block ideal is built from S_k ideals (``two_sided_ideal``),
    and orthogonality multiplies echelon basis elements of distinct blocks
    in their floor coordinates (``groupoid.floor_product``, with each right
    factor's ``domain_groups`` built once): every pair for n <= 3, and
    ``SAMPLE_PAIRS`` seeded pairs beyond that."""
    exhaustive = n <= 3
    shapes = specht.all_shapes(n)
    blocks = {shape: block_ideal(shape, n) for shape in shapes}

    dims = {shape: blocks[shape].dimension for shape in shapes}
    expected = {
        shape: specht.specht_dimension(shape, n) ** 2 for shape in shapes
    }
    dim_witness = {
        ",".join(map(str, shape)) or "empty": [dims[shape], expected[shape]]
        for shape in shapes
    }
    assertions = [
        _certificate_assertion(n),
        assertion(
            "block dimension is the squared Specht dimension",
            dims == expected,
            dim_witness,
        ),
        assertion(
            "block dimensions sum to the monoid order",
            sum(dims.values()) == monoid_order(n),
            {"sum": sum(dims.values()), "order": monoid_order(n)},
        ),
    ]

    rows = {shape: blocks[shape].basis.int_rows() for shape in shapes}
    pairs = block_pairs(
        [(shape, len(rows[shape])) for shape in shapes], None if exhaustive else seed
    )
    # each right factor grouped once, however many pairs it is in
    right = {(s2, j) for _, _, s2, j in pairs}
    groups = {(s, j): domain_groups(n, rows[s][j]) for s, j in right}
    bad = [
        {"left": ",".join(map(str, s1)), "right": ",".join(map(str, s2))}
        for s1, i, s2, j in pairs
        if floor_product(n, rows[s1][i], groups[s2, j])
    ]
    assertions.append(
        assertion(
            "products across distinct blocks vanish",
            not bad,
            bad[:5] if bad else {"pairs_checked": len(pairs), "exhaustive": exhaustive},
        )
    )
    return report(
        "verify-blocks",
        {"n": n, "exhaustive": exhaustive, "seed": seed},
        assertions,
    )


def _act_by_factors(factors, vec: dict) -> dict:
    """Apply the element whose factors (in product order) have the
    (``specht.tabloid_map``, coefficient) pairs in ``factors`` to an
    index-keyed tabloid vector, right factor first, stopping at the first
    zero vector."""
    for terms in reversed(factors):
        if not vec:
            break
        vec = specht.act_on_tabloid_vector(terms, vec)
    return vec


def check_specht_orthogonality(
    n: int, *, seed: int = DEFAULT_SEED, sample_tableaux: int = 1
) -> dict:
    """A tableau's quasi-idempotent kills every Specht module of a different
    shape and acts nontrivially on its own shape.

    One tableau per shape decides the first claim for all of them.  Read a
    permutation w of 1..n as the map a -> w(a), so that
    w x w^-1 relabels every entry of x by w (in the product of
    ``AlgebraElement``, (d1 d2)[a] = d2[d1[a]], that is w^-1 * x * w).  The
    factors of ``quasi_idempotent_factors(t)`` multiply to
    e_t = prod_C A_C . prod_R (P_R prod_{i in R} (1 - p_i)) . prod_{i not in
    content} p_i, and each chain multiplies to its permutation sum whatever
    the order of its labels.  Relabelling by w sends the columns, rows and
    content of t to those of wt, A_C to A_(w(C)) = w A_C w^-1, P_R to
    P_(w(R)) = w P_R w^-1 and p_i to p_(w(i)) = w p_i w^-1, so
    e_(wt) = w e_t w^-1.  S^mu is an F R_n-module, so
    e_t S^mu = 0 gives e_(wt) S^mu = w e_t (w^-1 S^mu) = 0.  S_n is
    transitive on the fillings of one shape, so the tableau checked may be
    any one of them (James, LNM 682, 1978, section 4).

    Each quasi-idempotent acts on the echelon basis of each Specht module,
    which it kills exactly when it kills the module.  It acts one factor of
    ``quasi_idempotent_factors`` at a time, right factor first: the
    Jucys-Murphy chains of the rows and columns, whose terms are the
    identity and transpositions, and deletion factors that only filter a
    tabloid, never the expanded e_t with its |R_k|-term row symmetrizers.
    Each term acts through its ``specht.tabloid_map``, built once per call
    for each (diagram, shape): only the identity, the C(n,2) transpositions
    and the n deletions occur.  A shape's tableaux are sampled (seeded)
    only when it has more than ``sample_tableaux`` of them, which must be
    at least 1; the default of one per shape is exhaustive by the argument
    above.
    """
    if sample_tableaux < 1:
        raise ValueError(f"need sample_tableaux >= 1, got {sample_tableaux}")
    shapes = specht.all_shapes(n)
    rng = random.Random(seed)
    bases = {shape: specht.specht_basis(shape, n).int_rows() for shape in shapes}
    maps: dict = {}

    def kills(factors, shape) -> bool:
        """Whether the element with these factors kills the Specht module of
        ``shape``."""
        e_t = []
        for f in factors:
            for d in f.terms:
                if (d, shape) not in maps:
                    maps[d, shape] = specht.tabloid_map(d, shape, n)
            e_t.append([(maps[d, shape], c) for d, c in f.terms.items()])
        return not any(_act_by_factors(e_t, vec) for vec in bases[shape])

    assertions = []
    for shape in shapes:
        tableaux = list(specht.all_tableaux(shape, n))
        if len(tableaux) > sample_tableaux:
            tableaux = rng.sample(tableaux, sample_tableaux)
        bad = []
        for t in tableaux:
            e_t = quasi_idempotent_factors(t)
            for other in shapes:
                if other != shape and not kills(e_t, other):
                    bad.append(
                        {
                            "tableau": [list(r) for r in t.rows],
                            "other_shape": list(other),
                        }
                    )
        label = ",".join(map(str, shape)) or "empty"
        assertions.append(
            assertion(
                f"quasi-idempotent of shape ({label}) kills the other shapes",
                not bad,
                bad[:3] if bad else {"tableaux_checked": len(tableaux)},
            )
        )
        canonical = specht.row_filled_tableau(shape, n)
        survives = not kills(quasi_idempotent_factors(canonical), shape)
        assertions.append(
            assertion(f"shape ({label}) is not killed by its own quasi-idempotent", survives)
        )
    return report("verify-lemma-3-10", {"n": n, "seed": seed}, assertions)


def check_absorption(m: int, n: int) -> dict:
    """The top antisymmetrizer on m+1 vertices rescales the quasi-idempotent
    of every column-filled tableau with more than m rows by (m+1)!.

    One pass over ``quasi_idempotent_factors`` f_1, .., f_k builds both
    e = f_1 ... f_k and y e = (...((y f_1) f_2) ...) f_k, the same element
    by associativity, without multiplying y by the expanded e."""
    if not 0 <= m < n:
        raise ValueError(f"need 0 <= m < n, got m={m}, n={n}")
    y = top_antisymmetrizer(m + 1, n)
    scale = factorial(m + 1)
    tall = [s for s in specht.all_shapes(n) if len(s) >= m + 1]
    assertions = [
        assertion(
            "some shape has more than m rows",
            bool(tall),
            {"count": len(tall)},
        )
    ]
    bad = []
    for shape in tall:
        e, ye = AlgebraElement.one(n), y
        for f in quasi_idempotent_factors(specht.column_filled_tableau(shape, n)):
            e, ye = e * f, ye * f
        if ye != e.scale(scale):
            bad.append(",".join(map(str, shape)) or "empty")
    assertions.append(
        assertion(
            "antisymmetrizer acts as (m+1)! on tall quasi-idempotents",
            not bad,
            bad if bad else {"shapes_checked": len(tall), "scale": scale},
        )
    )
    return report("verify-lemma-4-4", {"m": m, "n": n}, assertions)


def check_faithful_action(m: int, n: int) -> dict:
    """With at least n unmarked basis vectors the representation matrix has
    full column rank, so the action on the tensor power is faithful."""
    if m < n:
        raise ValueError(f"need m >= n for the faithful case, got m={m}, n={n}")
    order = monoid_order(n)
    observed = phi_rank(m, n)
    assertions = [
        assertion(
            "representation map has full rank",
            observed == order,
            {"rank": observed, "order": order},
        ),
        assertion("annihilator is zero", order - observed == 0, {"nullity": order - observed}),
    ]
    return report("verify-schur-weyl", {"m": m, "n": n, "mode": "faithful"}, assertions)


def check_annihilator_ideal(m: int, n: int) -> dict:
    """The annihilator of the tensor power is the two-sided ideal generated
    by the top antisymmetrizer Y on m+1 vertices.

    The check runs level by level in the groupoid basis, under which F R_n
    is the sum over k of M_{C(n,k)}(F S_k); ``basis_change_failures``
    certifies that isomorphism at n.

    Tensor side: if v_w has its nonzero digits exactly on S, then
    phi(floor(d)) v_w = [S = ran d] phi(d) v_w.  For phi(t) v_w is nonzero
    only when S lies in ran t, and then equals phi(d) v_w for every t <= d,
    since an edge of d missing from t carries digit 0 either way.  Those t
    match the sets R with S <= R <= ran d, so
    phi(floor(d)) v_w = phi(d) v_w * sum of (-1)^(|ran d| - |R|), which is
    phi(d) v_w when S = ran d and 0 otherwise.  Reading the digits on the
    support as a word in {1..m}^k, floor(t) moves support ran t to dom t and
    acts on the word as sigma_t acts on V^(x)k.  So the annihilator is the
    sum over k of M(ann_k), ann_k the kernel of F S_k on V^(x)k.

    Ideal side: in a product of matrix algebras over unital rings, the
    ideal Y generates is the sum over k of M(I_k), I_k the ideal of F S_k
    generated by the entries of Y's level-k block, whose echelon rows are
    the seeds.

    So the claim holds exactly when I_k = ann_k for every k <= n.  By
    ``characters(k)`` both are sums of blocks End(W_lambda), and a kernel
    is the sum over the shapes its module lacks.  Let K_mu be the kernel on
    the words of content mu = ``balanced(m, k)``, and U_mu, U the supports
    of those words and of V^(x)k; U = U_mu makes K_mu = ann_k (Young's rule
    says why, James, LNM 682, 1978, section 14; the check does not rely on
    it).  I_k <= K_mu when the seeds kill the growth words of content mu
    (``missed_words``), and K_mu <= I_k when each lambda outside U_mu has a
    seed x of nonzero trace sum x_sigma chi_lambda(sigma), so that
    rho_lambda(x) != 0; a zero trace can only fail the check.  The
    witnesses give dim K_mu as the annihilator's dimension and the shapes
    the seeds reach as the ideal's; totals weigh level k by C(n,k)^2 and
    are compared with the Specht count of shapes with more than m rows.
    """
    if not 0 <= m < n:
        raise ValueError(f"need 0 <= m < n, got m={m}, n={n}")
    certificate = _certificate_assertion(n)
    blocks = level_blocks(top_antisymmetrizer(m + 1, n))
    alive, ann_dims, ideal_dims, uncertified, unequal = [], [], [], [], []
    for k, block in enumerate(blocks):
        chars = characters(k)
        outside = chars.table.keys() - chars.support(content_character(m, k))
        if chars.support(tensor_character(m, k)) != chars.table.keys() - outside:
            unequal.append(k)
        if not chars.certified:
            uncertified.append(k)
        span = SpanBasis(factorial(k))
        for x in block.values():
            span.insert(x)
        seeds = span.int_rows()
        alive += [{"level": k, "word": list(u)} for u in missed_words(m, k, seeds)]
        class_sums = [[0] * len(chars.types) for _ in seeds]  # trace = sums . chi
        for sums, x in zip(class_sums, seeds):
            for j, c in x.items():
                sums[chars.class_of[j]] += c
        reached = {
            shape
            for shape, chi in chars.table.items()
            if any(sum(map(mul, sums, chi)) for sums in class_sums)
        }
        ann_dims.append(sum(int(chars.table[s][-1]) ** 2 for s in outside))
        ideal_dims.append(sum(int(chars.table[s][-1]) ** 2 for s in reached))
    annihilator = sum(comb(n, k) ** 2 * d for k, d in enumerate(ann_dims))
    ideal_dim = sum(comb(n, k) ** 2 * d for k, d in enumerate(ideal_dims))
    expected_dim = annihilator_dimension_formula(m, n)
    fills = ideal_dims == ann_dims
    decided = not uncertified and not unequal
    assertions = [
        certificate,
        assertion(
            "Specht characters decide every level",
            decided,
            {"uncertified": uncertified, "supports_differ": unequal},
        ),
        assertion("ideal acts as zero on the tensor power", not alive, alive[:5] or None),
        assertion(
            "annihilator dimension matches the Specht count",
            annihilator == expected_dim,
            {"annihilator": annihilator, "specht_count": expected_dim},
        ),
        assertion(
            "ideal fills the annihilator",
            fills,
            {
                "ideal": ideal_dim,
                "annihilator": annihilator,
                "ideal_by_level": ideal_dims,
                "annihilator_by_level": ann_dims,
            },
        ),
        assertion(
            "annihilator equals the ideal as subspaces",
            certificate["pass"] and decided and not alive and fills,
        ),
    ]
    return report(
        "verify-schur-weyl",
        {"m": m, "n": n, "mode": "annihilator"},
        assertions,
    )
