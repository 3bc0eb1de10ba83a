"""Rook diagrams: partial injections of {1, ..., n} under composition.

A diagram is encoded as a tuple ``img`` of n integers.  ``img[a-1] = b`` with
b > 0 means the diagram joins top vertex a to bottom vertex b; ``img[a-1] = 0``
means top vertex a is isolated.  Distinct tops go to distinct bottoms, so the
encoding is exactly a partial injection written in one-line notation with 0
for "undefined".

Permutations are the diagrams of full rank and act on the right:
(i)(vw) = ((i)v)w.  Composing diagrams stacks the left factor on top of the
right factor and follows paths, which restricts to that convention on
permutations.  A path from top vertex a ends at d2[d1[a]], or nowhere when
either step is missing, so the product is one gather: d1's entries read off
the padded right factor ``(0,) + d2``, whose slot 0 holds the missing step.

>>> multiply((0, 2), (2, 1))
(0, 1)
>>> star((2, 0))
(0, 1)
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .reporting import assertion, report

Diagram = tuple[int, ...]
Perm = tuple[int, ...]


class Quadruple(NamedTuple):
    """Canonical factorization d1^-1 * (rank n-r projector) * sigma * d2."""

    d1: Perm
    d2: Perm
    r: int
    sigma: Perm


def is_diagram(img: Sequence[int]) -> bool:
    """True if ``img`` encodes a partial injection.

    >>> is_diagram((0, 2)), is_diagram((1, 1))
    (True, False)
    """
    n, zeros = len(img), img.count(0)
    # in range, and the n - zeros live entries distinct: every step runs in C
    return (not n or (min(img) >= 0 and max(img) <= n)) and len(set(img)) == n - zeros + (zeros > 0)


def is_permutation(img: Sequence[int]) -> bool:
    return is_diagram(img) and 0 not in img


def identity(n: int) -> Perm:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return tuple(range(1, n + 1))


def generator(n: int, kind: str, i: int) -> Diagram:
    """The generator s_i (adjacent swap) or p_i (vertex deletion) of rank n.

    >>> generator(3, "s", 1)
    (2, 1, 3)
    >>> generator(3, "p", 2)
    (1, 0, 3)
    """
    img = list(identity(n))
    if kind == "s":
        if not 1 <= i <= n - 1:
            raise ValueError(f"swap index must be in 1..{n - 1}, got {i}")
        img[i - 1], img[i] = img[i], img[i - 1]
    elif kind == "p":
        if not 1 <= i <= n:
            raise ValueError(f"deletion index must be in 1..{n}, got {i}")
        img[i - 1] = 0
    else:
        raise ValueError(f"generator kind must be 's' or 'p', got {kind!r}")
    return tuple(img)


def three_generators(n: int) -> tuple[Diagram, ...]:
    """s_1, the n-cycle (2, 3, ..., n, 1) and p_1, which generate R_n:
    s_1 and the n-cycle generate S_n, and p_1 conjugated by S_n gives every
    p_i.  Duplicates are dropped: at n = 2 the cycle is s_1, and at n = 1
    only p_1 is left.

    >>> three_generators(3)
    ((2, 1, 3), (2, 3, 1), (0, 2, 3))
    >>> three_generators(2)
    ((2, 1), (0, 2))
    """
    swaps = (generator(n, "s", 1), (*range(2, n + 1), 1)) if n > 1 else ()
    return (*dict.fromkeys(swaps), generator(n, "p", 1))


def gather(d1: Sequence[int]) -> Callable[[tuple[int, ...]], Diagram]:
    """The left factor d1 as a function of the padded right factor:
    ``gather(d1)(padded(d2)) == multiply(d1, d2)``.  Build it once per left
    factor to compose that factor with many right factors."""
    if len(d1) > 1:
        return itemgetter(*d1)
    if d1:  # itemgetter(b) returns a bare entry, not a 1-tuple
        b = d1[0]
        return lambda right: (right[b],)
    return lambda right: ()


def padded(d2: Sequence[int]) -> tuple[int, ...]:
    """``(0,) + d2``: slot b holds the image of bottom vertex b, and slot 0
    the 0 of an isolated top vertex of the left factor."""
    return (0, *d2)


def multiply(d1: Sequence[int], d2: Sequence[int]) -> Diagram:
    """Compose two diagrams, d1 acting first.

    Stacking d1 above d2, top vertex a survives only when its path runs
    through both factors: (d1 d2)[a] = d2[d1[a]], read by ``gather``.

    >>> multiply((0, 2), (2, 1))
    (0, 1)
    """
    if len(d1) != len(d2):
        raise ValueError(f"size mismatch: {len(d1)} vs {len(d2)}")
    return gather(d1)(padded(d2))


def star(d: Sequence[int]) -> Diagram:
    """The inverse partial injection (flip the diagram upside down)."""
    img = [0] * len(d)
    for a, b in enumerate(d, start=1):
        if b:
            img[b - 1] = a
    return tuple(img)


def rank(d: Sequence[int]) -> int:
    return sum(1 for b in d if b)


def monoid_order(n: int) -> int:
    """Number of partial injections of {1..n}: sum of C(n,r)^2 r!."""
    return sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))


def rank_class_size(n: int, r: int) -> int:
    """Number of diagrams with exactly r isolated top vertices."""
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= {n}, got {r}")
    return math.comb(n, r) ** 2 * math.factorial(n - r)


def _rank_class_unsorted(n: int, r: int) -> Iterable[Diagram]:
    k = n - r
    vertices = range(1, n + 1)
    for tops in itertools.combinations(vertices, k):
        for bots in itertools.combinations(vertices, k):
            for image in itertools.permutations(bots):
                img = [0] * n
                for a, b in zip(tops, image):
                    img[a - 1] = b
                yield tuple(img)


@lru_cache(maxsize=None)
def rank_class(n: int, r: int) -> tuple[Diagram, ...]:
    """All diagrams with r isolated tops, sorted lexicographically."""
    return tuple(sorted(_rank_class_unsorted(n, r)))


@lru_cache(maxsize=None)
def all_diagrams(n: int) -> tuple[Diagram, ...]:
    """Every diagram of size n in lexicographic order."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out = itertools.chain.from_iterable(
        _rank_class_unsorted(n, r) for r in range(n + 1)
    )
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def diagram_index(n: int) -> dict[Diagram, int]:
    """Position of each diagram in the canonical ``all_diagrams`` order."""
    return {d: i for i, d in enumerate(all_diagrams(n))}


def all_permutations(n: int) -> tuple[Perm, ...]:
    return tuple(sorted(itertools.permutations(range(1, n + 1))))


def multiplication_maps(
    index: Mapping[Diagram, int], left: Sequence[Diagram], right: Sequence[Diagram]
) -> tuple[tuple[int, ...], ...]:
    """Index maps on the keys of ``index`` (element -> position, such as
    ``diagram_index(n)``) of left multiplication by each of ``left``, then
    right multiplication by each of ``right``; the keys must be closed under
    them.  Each left factor is ``gather``ed once and each right factor
    ``padded`` once, as ``multiply`` would for every product."""
    maps = [tuple(index[get(padded(d))] for d in index) for get in map(gather, left)]
    maps += [tuple(index[gather(d)(pad)] for d in index) for pad in map(padded, right)]
    return tuple(maps)


def reach(maps: Sequence[Sequence[int]], start: int) -> set[int]:
    """The indices reached from ``start`` under the index maps ``maps``."""
    reached, todo = {start}, [start]
    while todo:
        i = todo.pop()
        new = {tau[i] for tau in maps} - reached
        reached |= new
        todo += new
    return reached


def coset_reps(n: int, r: int) -> tuple[Perm, ...]:
    """Permutations increasing on 1..r and on r+1..n, sorted lexicographically.

    These are the minimal-length representatives used on both sides of the
    canonical factorization; there are C(n, r) of them.
    """
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= {n}, got {r}")
    reps = []
    for head in itertools.combinations(range(1, n + 1), r):
        tail = [v for v in range(1, n + 1) if v not in head]
        reps.append(head + tuple(tail))
    return tuple(sorted(reps))


def inverse(w: Sequence[int]) -> Perm:
    if not is_permutation(w):
        raise ValueError(f"not a permutation: {w}")
    return star(w)


def perm_length(w: Sequence[int]) -> int:
    """Coxeter length: the number of inversions."""
    n = len(w)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j]
    )


def perm_sign(w: Sequence[int]) -> int:
    return -1 if perm_length(w) % 2 else 1


def factorize(d: Sequence[int]) -> Quadruple:
    """Write a diagram as d1^-1 * (r-fold deletion) * sigma * d2.

    d1 lists the isolated top vertices in increasing order followed by the
    remaining tops in increasing order; d2 does the same for bottom vertices.
    sigma fixes 1..r and records, slot by slot, where each surviving top's
    partner sits inside d2.  The result is the unique such quadruple with
    d1, d2 among ``coset_reps(n, r)`` and sigma fixing 1..r.

    >>> factorize((2, 0))
    Quadruple(d1=(2, 1), d2=(1, 2), r=1, sigma=(1, 2))
    """
    if not is_diagram(d):
        raise ValueError(f"not a diagram: {d}")
    n = len(d)
    iso_top = [a for a in range(1, n + 1) if d[a - 1] == 0]
    live_top = [a for a in range(1, n + 1) if d[a - 1] != 0]
    hit = set(d)
    iso_bot = [b for b in range(1, n + 1) if b not in hit]
    live_bot = [b for b in range(1, n + 1) if b in hit]
    r = len(iso_top)
    d1 = tuple(iso_top + live_top)
    d2 = tuple(iso_bot + live_bot)
    slot_in_d2 = {b: k for k, b in enumerate(d2, start=1)}
    sigma = list(range(1, n + 1))
    for j in range(r + 1, n + 1):
        sigma[j - 1] = slot_in_d2[d[d1[j - 1] - 1]]
    return Quadruple(d1, d2, r, tuple(sigma))


def compose_quadruple(q: Quadruple) -> Diagram:
    n = len(q.d1)
    deletion = tuple([0] * q.r + list(range(q.r + 1, n + 1)))
    out = multiply(inverse(q.d1), deletion)
    out = multiply(out, q.sigma)
    return multiply(out, q.d2)


def diagram_length(d: Sequence[int]) -> int:
    """Sum of the lengths of the three permutations in the factorization."""
    q = factorize(d)
    return perm_length(q.d1) + perm_length(q.sigma) + perm_length(q.d2)


def diagram_sign(d: Sequence[int]) -> int:
    """(-1)^(isolated tops + length).  Restricts to the usual sign on
    permutations but is not multiplicative on the whole monoid."""
    return -1 if (d.count(0) + diagram_length(d)) % 2 else 1


def verify_presentation(n: int) -> dict:
    """Check every defining relation of the monoid on the generators.

    Returns a report with one assertion per relation family; witnesses list
    the violating instances.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 for a generating set, got {n}")

    def s(i: int) -> Diagram:
        return generator(n, "s", i)

    def p(i: int) -> Diagram:
        return generator(n, "p", i)

    def chain(*ds: Diagram) -> Diagram:
        out = ds[0]
        for d in ds[1:]:
            out = multiply(out, d)
        return out

    one = identity(n)
    families = [
        (
            "s_i s_i = 1",
            [((i,), chain(s(i), s(i)), one) for i in range(1, n)],
        ),
        (
            "s_i s_j = s_j s_i for |i-j| > 1",
            [
                ((i, j), chain(s(i), s(j)), chain(s(j), s(i)))
                for i in range(1, n)
                for j in range(i + 2, n)
            ],
        ),
        (
            "s_i s_i+1 s_i = s_i+1 s_i s_i+1",
            [
                ((i,), chain(s(i), s(i + 1), s(i)), chain(s(i + 1), s(i), s(i + 1)))
                for i in range(1, n - 1)
            ],
        ),
        (
            "p_i p_i = p_i",
            [((i,), chain(p(i), p(i)), p(i)) for i in range(1, n + 1)],
        ),
        (
            "p_i p_j = p_j p_i",
            [
                ((i, j), chain(p(i), p(j)), chain(p(j), p(i)))
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
            ],
        ),
        (
            "s_i p_i = p_i+1 s_i",
            [((i,), chain(s(i), p(i)), chain(p(i + 1), s(i))) for i in range(1, n)],
        ),
        (
            "s_i p_j = p_j s_i for |i-j| > 1",
            [
                ((i, j), chain(s(i), p(j)), chain(p(j), s(i)))
                for i in range(1, n)
                for j in range(1, n + 1)
                if abs(i - j) > 1
            ],
        ),
        (
            "p_i s_i p_i = p_i p_i+1",
            [
                ((i,), chain(p(i), s(i), p(i)), chain(p(i), p(i + 1)))
                for i in range(1, n)
            ],
        ),
    ]

    assertions = []
    for name, instances in families:
        bad = [
            {"indices": list(idx), "lhs": list(lhs), "rhs": list(rhs)}
            for idx, lhs, rhs in instances
            if lhs != rhs
        ]
        witness = bad[:5] if bad else {"instances": len(instances)}
        assertions.append(assertion(name, not bad, witness))
    return report("verify-presentation", {"n": n}, assertions)
