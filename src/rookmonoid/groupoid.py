"""The groupoid (Moebius) basis of the monoid algebra, level by level.

For a diagram d set  floor(d) = sum over t <= d of (-1)^(rk d - rk t) t,
where t <= d means t is d with some edges removed.  Then
floor(d) floor(e) = floor(d e) when ran d = dom e, and 0 otherwise, so
floor(d) -> E(dom d, ran d) (x) sigma_d is an algebra isomorphism

    F R_n  =  direct sum over k of  M_{C(n,k)}(F S_k).

Here sigma_d in S_k is d read through the order-preserving relabellings of
dom d and ran d onto 1..k, composed like ``diagrams.multiply``.  Moebius
inversion gives d = sum over t <= d of floor(t), so an element
y = sum c_d d has coordinates  y^(t) = sum over d >= t of c_d.  (B. Steinberg,
"Moebius functions and semigroup representation theory", J. Combin. Theory
Ser. A 113 (2006); L. Solomon, J. Algebra 256 (2002).)  ``sweep`` is the one
change between the two coordinates: the zeta transform one way, the Moebius
transform back, which only the certificate's unit check runs.

Level k of the tensor power is the action of F S_k on V^(x)k, where V leaves
out the marked vector.  Its two-sided ideals are read off the characters of
the Specht modules (``characters``): which irreducibles a module of words
contains, and which of them an element acts on (``check_annihilator_ideal``).

An element's two-sided ideal is read off the same levels: it is built from
S_k ideals and held in floor coordinates (``ideal_of_blocks``).  Products
in floor coordinates follow the product rule above, one pair of diagrams at
a time (``floor_product``).
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .algebra import AlgebraElement, Coeff
from .diagrams import (
    Diagram,
    Perm,
    all_diagrams,
    all_permutations,
    diagram_index,
    gather,
    generator,
    identity,
    monoid_order,
    multiplication_maps,
    padded,
    reach,
    three_generators,
)
from .linalg import SpanBasis, saturate
from .specht import (
    Shape,
    act_on_tabloid,
    all_tabloids,
    partitions_of,
    partner_map,
    specht_basis,
    tabloid_index,
)

Block = dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, int]]


def sweep(vec: Mapping[Diagram, int], sign: int) -> dict[Diagram, int]:
    """The zeta (sign 1) or Moebius (sign -1) transform of a vector keyed by
    diagrams: entry t of the zeta transform is the sum of vec[d] over d >= t,
    and the Moebius transform is its inverse.  t <= d compares slot by slot
    (t[a] is 0 or d[a]), so pass a adds sign times each entry with slot a
    live onto the diagram with slot a cleared; the passes commute.  Zero
    entries are left out.
    """
    out = dict(vec)
    for a in range(len(next(iter(vec), ()))):
        for d, c in list(out.items()):
            if d[a]:
                t = d[:a] + (0,) + d[a + 1 :]
                out[t] = out.get(t, 0) + sign * c
    for t in [t for t, c in out.items() if not c]:
        del out[t]
    return out


@lru_cache(maxsize=None)
def right_generator_maps(n: int) -> tuple[tuple[int, ...], ...]:
    """The index maps on ``diagram_index(n)`` of right multiplication by
    each of ``three_generators(n)``, in that order: one table per n for the
    basis-change certificate, ``verify.check_tensor_homomorphism`` and
    ``ideals.check_one_dimensional_ideals``.  Cached; treat as read-only."""
    return multiplication_maps(diagram_index(n), (), three_generators(n))


@lru_cache(maxsize=None)
def basis_change_failures(
    n: int,
) -> tuple[tuple[tuple[Diagram, Diagram], ...], bool, int, int]:
    """Certificate that floor is an isomorphism onto the matrix algebras.

    Returns, for the generators g of ``three_generators`` (s_1, the n-cycle
    and p_1): the pairs (d, g), d in diagram order, with (p_a d) g !=
    p_a (d g) for some deletion p_a, read off the index maps of left
    multiplication by the p_a and right multiplication by g; whether
    1 = sum over A of floor(id_A); the number of products checked,
    |R_n| * 3; and how many diagrams the identity ``reach``es under right
    multiplication by the generators.  No pairs, True and all reached mean
    certified.

    p_a d is d with slot a cleared.  For S inside A = dom d let
    d|_S = (product over a in A - S of p_a) d, so that
    floor(d) = sum over S of (-1)^|A - S| d|_S.  Induction on |A - S|,
    applying the check to d|_S at a slot a in S, gives (d|_S) g = (d g)|_S.
    So floor(d) g = sum over S of (-1)^|A - S| (d g)|_S.  That is
    floor(d g) when d g keeps the domain A, and 0 otherwise: for a in A
    outside dom(d g), p_a fixes every (d g)|_S, so the terms of S and of
    S - {a}, a in S, are equal with opposite signs.

    Reaching every diagram makes every e a word in the generators, so
    induction on the length of e extends the generator rule to
    floor(d) e = floor(d e) when ran d lies in dom e, and 0 otherwise.
    Expanding floor(e) = sum over t <= e of +-t, the surviving t have
    ran d <= dom t <= dom e and d t = d e, and their signs cancel unless
    ran d = dom e: that is the product rule.  The unit check makes the
    isomorphism unital; it is the one Moebius ``sweep`` here.  No floor is
    built: the signs above are the definition of floor, and the test suite
    checks ``sweep`` against that definition on every diagram at n <= 5.
    """
    diags = all_diagrams(n)
    index = diagram_index(n)
    gens = three_generators(n)
    deletions = [generator(n, "p", a) for a in range(1, n + 1)]
    clears, right = multiplication_maps(index, deletions, ()), right_generator_maps(n)
    bad = {
        (i, j)
        for j, tau in enumerate(right)
        for clear in clears
        for i, (c, t) in enumerate(zip(clear, tau))
        if tau[c] != clear[t]
    }
    one = identity(n)
    reached = reach(right, index[one])
    partial_identities = itertools.product(*((0, a) for a in one))
    unit_holds = sweep(dict.fromkeys(partial_identities, 1), -1) == {one: 1}
    failing = tuple((diags[i], gens[j]) for i, j in sorted(bad))
    return failing, unit_holds, len(diags) * len(gens), len(reached)


def domain_groups(n: int, y: Mapping[int, Coeff]) -> dict[frozenset[int], list]:
    """The right factor of ``floor_product``: the floor coordinates of y
    grouped by the domain of their diagrams, each entry as its
    ``diagrams.padded`` diagram and coefficient.  Group an element once when
    it is a right factor more than once."""
    diags = all_diagrams(n)
    groups: dict[frozenset[int], list] = {}
    for j, c in y.items():
        e = diags[j]
        dom = frozenset(a for a, b in enumerate(e, start=1) if b)
        groups.setdefault(dom, []).append((padded(e), c))
    return groups


def floor_product(
    n: int, x: Mapping[int, Coeff], y_groups: Mapping[frozenset[int], list]
) -> dict[int, Coeff]:
    """The floor coordinates of x y from those of x and the
    ``domain_groups`` of y: entry i is the coefficient of
    floor(``all_diagrams(n)[i]``), and zero entries are left out.
    floor(d) floor(e) = floor(d e) when ran d = dom e and 0 otherwise
    (``basis_change_failures`` certifies it at n), so each d in x meets the
    group of ran d.
    """
    index, lefts = diagram_index(n), _left_factors(n)
    out: dict[int, Coeff] = {}
    for i, a in x.items():
        ran, product = lefts[i]
        for pad, c in y_groups.get(ran, ()):
            k = index[product(pad)]
            out[k] = out.get(k, 0) + a * c
    return {k: c for k, c in out.items() if c}


def relabel(t: Sequence[int]) -> Perm:
    """sigma_t: t read through the order-preserving relabellings of its
    domain and range onto 1..k."""
    slot = {b: j for j, b in enumerate(sorted(b for b in t if b), start=1)}
    return tuple(slot[b] for b in t if b)


@lru_cache(maxsize=None)
def _perm_index(k: int) -> dict[Perm, int]:
    return {w: i for i, w in enumerate(all_permutations(k))}


@lru_cache(maxsize=None)
def _left_factors(n: int) -> tuple[tuple[frozenset[int], Callable], ...]:
    """For each diagram of ``all_diagrams(n)``, in order, its range and its
    ``diagrams.gather``: what ``floor_product`` reads of a left factor.
    Equal ranges share one frozenset."""
    ranges: dict[frozenset[int], frozenset[int]] = {}
    out = []
    for d in all_diagrams(n):
        ran = frozenset(d) - {0}
        out.append((ranges.setdefault(ran, ran), gather(d)))
    return tuple(out)


def level_blocks(y: AlgebraElement) -> list[Block]:
    """The level blocks of y: the ``floor_blocks`` of its zeta ``sweep``."""
    return floor_blocks(y.n, sweep(y.terms, 1))


def floor_blocks(n: int, hat: Mapping[Diagram, int]) -> list[Block]:
    """The level-k blocks of sum hat[t] floor(t), k = 0..n.  Block k maps
    (dom, ran) to the entry sum of hat[t] sigma_t over the t of rank k with
    that domain and range, in the coordinates of ``all_permutations(k)``;
    ``hat`` holds no zero entries, nor do the blocks."""
    blocks: list[Block] = [{} for _ in range(n + 1)]
    for t, c in hat.items():
        dom = tuple(a for a, b in enumerate(t, start=1) if b)
        ran = tuple(sorted(b for b in t if b))
        sigma = relabel(t)
        entry = blocks[len(dom)].setdefault((dom, ran), {})
        entry[_perm_index(len(dom))[sigma]] = c
    return blocks


def growth_words(m: int, k: int) -> list[tuple[int, ...]]:
    """One word in {1..m}^k per orbit of letter relabelling: the restricted
    growth strings, whose letters first appear in the order 1, 2, 3, ..."""
    words: list[tuple[int, ...]] = [()]
    for _ in range(k):
        words = [
            w + (a,)
            for w in words
            for a in range(1, min(m, max(w, default=0) + 1) + 1)
        ]
    return words


def balanced(m: int, k: int) -> tuple[int, ...]:
    """mu, the balanced partition of k into min(m, k) parts; () when m = 0."""
    return tuple(len(range(i, k, min(m, k))) for i in range(min(m, k)))


def cycle_type(sigma: Perm) -> tuple[int, ...]:
    """The cycle lengths of a permutation, largest first."""
    seen: set[int] = set()
    lengths = []
    for a in sigma:
        length = 0
        while a not in seen:
            seen.add(a)
            a = sigma[a - 1]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


class Characters(NamedTuple):
    """chi_lambda for each shape lambda of k on the classes of S_k (one
    cycle type each, the identity's last), the class sizes, the class of
    each permutation of ``all_permutations(k)``, and the certificate."""

    types: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]
    class_of: tuple[int, ...]
    table: dict[Shape, tuple[Fraction, ...]]
    certified: bool

    def support(self, values: Sequence[int]) -> set[Shape]:
        """The shapes whose character meets the class function ``values``:
        the W_lambda that a module with that character contains."""
        return {
            s
            for s, chi in self.table.items()
            if sum(z * x * y for z, x, y in zip(self.sizes, chi, values))
        }


@lru_cache(maxsize=None)
def characters(k: int) -> Characters:
    """The characters chi_lambda of S_k, lambda a partition of k, on one
    permutation g per cycle type: the certificate that decides level k.

    W_lambda = ``specht_basis(lambda, k)`` is held in reduced echelon form,
    so g r has coordinate (g r)[p] / r[p] on the row r with pivot p, and
    chi_lambda(g) is the sum of those over the rows.

    F S_k is semisimple (Maschke), the sum of End(W) over its irreducibles
    W, whose dimensions squared add up to k!.  In characteristic 0,
    <chi, chi> = 1 makes W_lambda absolutely irreducible and
    <chi_lambda, chi_nu> = 0 makes two of them non-isomorphic, so with
    sum f_lambda^2 = k! they are all, and every two-sided ideal is the sum
    of the End(W_lambda) over its support (Serre, Linear Representations of
    Finite Groups, 2.3-2.4).  ``certified`` says those three facts hold.
    Cached; treat as read-only.
    """
    perms = all_permutations(k)
    cycles = [cycle_type(sigma) for sigma in perms]
    types = tuple(sorted(set(cycles), reverse=True))
    class_of = tuple(map(types.index, cycles))
    sizes = tuple(class_of.count(i) for i in range(len(types)))
    table = {}
    for shape in partitions_of(k):
        basis, tabloids, index = specht_basis(shape, k), all_tabloids(shape, k), tabloid_index(shape, k)
        table[shape] = tuple(
            sum(
                Fraction(r.get(index[act_on_tabloid(partner_map(g), tabloids[p])], 0), r[p])
                for p, r in zip(basis.pivots(), basis.int_rows())
            )
            for g in (perms[class_of.index(i)] for i in range(len(types)))
        )
    certified = sum(chi[-1] ** 2 for chi in table.values()) == factorial(k) and all(
        sum(z * x * y for z, x, y in zip(sizes, a, b)) == factorial(k) * (s == t)
        for s, a in table.items()
        for t, b in table.items()
    )
    return Characters(types, sizes, class_of, table, certified)


def tensor_character(m: int, k: int) -> list[int]:
    """The character of V^(x)k, dim V = m, on each class of
    ``characters(k)``: g fixes the m^(cycles of g) words constant on its
    cycles."""
    return [m ** len(t) for t in characters(k).types]


def content_character(m: int, k: int) -> list[int]:
    """The character of the words of content ``balanced(m, k)`` on each
    class of ``characters(k)``: the number of them g fixes."""
    return [fixed_words(t, balanced(m, k)) for t in characters(k).types]


def fixed_words(cycles: Sequence[int], content: tuple[int, ...]) -> int:
    """The words with content[i] letters i + 1 that a permutation with these
    cycle lengths fixes: each cycle carries one letter."""
    if not cycles:
        return 1
    a = cycles[0]
    return sum(
        fixed_words(cycles[1:], content[:i] + (c - a,) + content[i + 1 :])
        for i, c in enumerate(content)
        if c >= a
    )


def missed_words(m: int, k: int, seeds: Sequence[Mapping[int, int]]) -> list[tuple[int, ...]]:
    """The growth words of content ``balanced(m, k)`` that some x in
    ``seeds`` fails to kill.  None means the ideal the seeds generate kills
    every word of that content: the kernel of a module is a two-sided
    ideal, and relabelling letters commutes with S_k."""
    mu, perms = list(balanced(m, k)), all_permutations(k)
    missed = []
    for u in growth_words(m, k):
        if sorted(Counter(u).values(), reverse=True) == mu:
            for x in seeds:
                out: Counter = Counter()
                for j, c in x.items():
                    out[tuple(u[s - 1] for s in perms[j])] += c
                if any(out.values()):
                    missed.append(u)
                    break
    return missed


@lru_cache(maxsize=None)
def _swap_maps(k: int) -> tuple[tuple[int, ...], ...]:
    swaps = [generator(k, "s", i) for i in range(1, k)]
    return multiplication_maps(_perm_index(k), swaps, swaps)


def level_ideal(k: int, seeds: Iterable[Mapping[int, int]]) -> SpanBasis:
    """The two-sided ideal of F S_k generated by ``seeds``: their span
    saturated under the adjacent swaps on both sides."""
    return saturate(factorial(k), _swap_maps(k), seeds)


def _level_diagram(n: int, dom: Sequence[int], ran: Sequence[int], sigma: Perm) -> Diagram:
    """The diagram t with domain dom, range ran and sigma_t = sigma."""
    img = [0] * n
    for a, s in zip(dom, sigma):
        img[a - 1] = ran[s - 1]
    return tuple(img)


def ideal_of_blocks(n: int, blocks: Sequence[Block]) -> SpanBasis:
    """The two-sided ideal of F R_n generated by an element whose level
    blocks are ``blocks``, in floor coordinates: entry i is the coefficient
    of floor(``all_diagrams(n)[i]``).

    floor is an algebra isomorphism onto the sum over k of M_{C(n,k)}(F S_k)
    (``basis_change_failures`` certifies it at n).  In a product of matrix
    algebras over unital rings, the ideal an element generates is the sum
    over k of M(J_k), J_k the ideal of F S_k generated by the entries of its
    level-k block: the unit of each factor picks out its level, and
    E(a, dom) x E(ran, b) moves the (dom, ran) entry anywhere.  So the
    ideal is spanned by floor of E(dom, ran) (x) x, that is
    sum over sigma of x_sigma floor(t), t = ``_level_diagram(dom, ran, sigma)``,
    over every pair of k-subsets dom, ran and every echelon row x of J_k.
    ran is sorted, so within one (dom, ran) the t follow the order of their
    sigma, and distinct (dom, ran) meet disjoint t: the rows arrive in
    reduced echelon form, and no insert clears a pivot.
    """
    index = diagram_index(n)
    basis = SpanBasis(monoid_order(n))
    for k, block in enumerate(blocks):
        if not block:
            continue
        rows = level_ideal(k, block.values()).int_rows()
        perms = all_permutations(k)
        subsets = list(itertools.combinations(range(1, n + 1), k))
        for dom in subsets:
            for ran in subsets:
                cols = [index[_level_diagram(n, dom, ran, sigma)] for sigma in perms]
                for x in rows:
                    basis.insert({cols[j]: c for j, c in x.items()})
    return basis
