"""The monoid algebra: rational linear combinations of rook diagrams.

Elements multiply by convolving supports through diagram composition.  The
product builds one ``diagrams.gather`` per left term and one padded tuple
per right term, so each of its term pairs costs one C-level gather.  The
module also builds the distinguished elements the structure theory runs on:
full symmetrizers and antisymmetrizers over a chosen vertex subset, the
all-deleting projector, and the quasi-idempotent attached to a tableau, as
a list of small factors and as their product.
All of these have integer coefficients, so they are built, and multiply,
over Python ints; ``Fraction`` coefficients enter only when a caller passes
a non-integer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from . import specht
from .diagrams import (
    Diagram,
    all_permutations,
    diagram_index,
    gather,
    generator,
    identity,
    is_diagram,
    padded,
    perm_sign,
    rank_class,
)


Coeff = int | Fraction


def _exact(c) -> Coeff:
    """An int or Fraction as given; anything else through ``Fraction``."""
    return c if type(c) is int or isinstance(c, Fraction) else Fraction(c)


class AlgebraElement:
    """A finitely supported map from diagrams to nonzero rationals, each an
    int or a Fraction."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Diagram, Coeff] | None = None):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self.n = n
        clean: dict[Diagram, Coeff] = {}
        for d, c in (terms or {}).items():
            if len(d) != n:
                raise ValueError(f"diagram {d} has size {len(d)}, expected {n}")
            c = _exact(c)
            if c:
                clean[tuple(d)] = c
        self.terms = clean

    @classmethod
    def from_diagram(cls, d: Sequence[int], coeff: Coeff = 1) -> "AlgebraElement":
        if not is_diagram(d):
            raise ValueError(f"not a diagram: {d}")
        return cls(len(d), {tuple(d): coeff})

    @classmethod
    def one(cls, n: int) -> "AlgebraElement":
        return cls(n, {identity(n): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def _require_same_size(self, other: "AlgebraElement") -> None:
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same_size(other)
        terms = dict(self.terms)
        for d, c in other.terms.items():
            acc = terms.get(d, 0) + c
            if acc:
                terms[d] = acc
            else:
                terms.pop(d, None)
        out = AlgebraElement(self.n)
        out.terms = terms
        return out

    def __neg__(self) -> "AlgebraElement":
        out = AlgebraElement(self.n)
        out.terms = {d: -c for d, c in self.terms.items()}
        return out

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, c: Coeff) -> "AlgebraElement":
        c = _exact(c)
        out = AlgebraElement(self.n)
        if c:
            out.terms = {d: c * v for d, v in self.terms.items()}
        return out

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            self._require_same_size(other)
            right = [(padded(d2), c2) for d2, c2 in other.terms.items()]
            terms: dict[Diagram, Coeff] = {}
            for d1, c1 in self.terms.items():
                product = gather(d1)
                for p2, c2 in right:
                    d = product(p2)
                    terms[d] = terms.get(d, 0) + c1 * c2
            out = AlgebraElement(self.n)
            out.terms = {d: c for d, c in terms.items() if c}
            return out
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return f"AlgebraElement(n={self.n}, 0)"
        parts = ", ".join(
            f"{c}*{d}" for d, c in sorted(self.terms.items())[:4]
        )
        more = "" if len(self.terms) <= 4 else f", ... {len(self.terms)} terms"
        return f"AlgebraElement(n={self.n}, {parts}{more})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"coeff": str(c), "diagram": list(d)}
                for d, c in sorted(self.terms.items())
            ],
        }


def _embed(small: Diagram, labels: tuple[int, ...], n: int) -> Diagram:
    """Transport a diagram on {1..k} to the vertex set ``labels`` inside a
    size-n diagram that is the identity elsewhere."""
    img = list(identity(n))
    for a_small, b_small in enumerate(small, start=1):
        a = labels[a_small - 1]
        img[a - 1] = labels[b_small - 1] if b_small else 0
    return tuple(img)


def _subset_labels(subset, n: int) -> tuple[int, ...]:
    labels = tuple(sorted(set(subset)))
    if not labels:
        raise ValueError("subset must be nonempty")
    if len(labels) != len(tuple(subset)):
        raise ValueError(f"subset has repeats: {subset}")
    if labels[0] < 1 or labels[-1] > n:
        raise ValueError(f"subset {subset} not inside 1..{n}")
    return labels


def _permutation_terms(labels: tuple[int, ...], n: int, *, signed: bool) -> dict[Diagram, int]:
    """The permutations of ``labels`` transported into size n, each with
    coefficient 1, or with its sign (computed on {1..k}) when ``signed``."""
    return {
        _embed(w, labels, n): perm_sign(w) if signed else 1
        for w in all_permutations(len(labels))
    }


def symmetrizer(subset: Sequence[int], n: int) -> AlgebraElement:
    """Alternating-rank sum over the sub-rook-monoid on ``subset``.

    Permutation terms enter with coefficient 1, and the diagrams with r
    deleted vertices enter with (-1)^r r!.  Its two-sided ideal is spanned by
    itself: every generator acts on it as 1 (swaps inside the subset) or 0
    (deletions inside the subset).
    """
    labels = _subset_labels(subset, n)
    k = len(labels)
    terms = _permutation_terms(labels, n, signed=False)
    for r in range(1, k + 1):
        coeff = (-1) ** r * math.factorial(r)
        for small in rank_class(k, r):
            terms[_embed(small, labels, n)] = coeff
    out = AlgebraElement(n)
    out.terms = terms
    return out


def antisymmetrizer(subset: Sequence[int], n: int) -> AlgebraElement:
    """Signed sum over the permutations of ``subset`` together with the
    signed single-deletion diagrams; swaps inside the subset act as -1 and
    deletions as 0.  Signs are computed on {1..k} before transport.  It is
    (sum of sgn(w) w)(1 - sum of p_b), and w p_b is w with the slot holding
    b cleared: each single-deletion diagram once, with its ``diagram_sign``
    -sgn(w).  Those terms follow the permutations, sorted."""
    labels = _subset_labels(subset, n)
    k = len(labels)
    terms = _permutation_terms(labels, n, signed=True)
    signs = zip(all_permutations(k), terms.values())  # the order terms were built in
    cleared = sorted((w[:a] + (0,) + w[a + 1 :], -s) for w, s in signs for a in range(k))
    for small, s in cleared:
        terms[_embed(small, labels, n)] = s
    out = AlgebraElement(n)
    out.terms = terms
    return out


def full_projector(n: int) -> AlgebraElement:
    """The product of every deletion generator: the rank-zero diagram.
    Absorbs all generators from both sides."""
    return AlgebraElement.from_diagram((0,) * n)


def top_antisymmetrizer(k: int, n: int) -> AlgebraElement:
    """Antisymmetrizer over the initial segment {1..k}."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    return antisymmetrizer(range(1, k + 1), n)


def tableau_quasi_idempotent(t: specht.Tableau) -> AlgebraElement:
    """e_t: column antisymmetrizers, then row symmetrizers, then deletion of
    every vertex missing from the tableau's content, multiplied out as the
    product of ``quasi_idempotent_factors(t)``, which gives the same
    element.  Nonzero for every tableau."""
    out = AlgebraElement.one(t.n)
    for f in quasi_idempotent_factors(t):
        out = out * f
    return out


def quasi_idempotent_factors(t: specht.Tableau) -> list[AlgebraElement]:
    """Factors of e_t in product order: for each column C the signed
    permutation sum A_C over C, for each row R the permutation sum P_R over
    R and then 1 - p_i for each i in R, and last p_i for each vertex missing
    from the content.  Each permutation sum is written as its Jucys-Murphy
    chain, so a factor has at most max(k, 2) terms for the longest row or
    column of k vertices.

    Chains: over l_1 < ... < l_k, with L_j the sum of the transpositions
    (l_i l_j) for i < j, the sum of the permutations of the l_i is
    (1 + L_2)(1 + L_3) ... (1 + L_k), and the signed sum is
    (1 - L_2) ... (1 - L_k) (Jucys).  By induction on j, with S_j the
    permutations of l_1 .. l_j: S_j is the disjoint union of S_(j-1) and
    the cosets S_(j-1) (l_i l_j) for i < j, since w = sigma (l_i l_j) with
    sigma in S_(j-1) has w[l_j] = l_i, so the j cosets are disjoint and
    hold j (j-1)! permutations; and sgn(sigma (l_i l_j)) = -sgn(sigma).  A
    permutation sum over one vertex is the identity and has no factor.

    Their product is e_t, the product of antisymmetrizer(C) over the
    columns, symmetrizer(R) over the rows and p_i over the missing
    vertices.  Rows: symmetrizer(R) = P_R prod_{i in R} (1 - p_i).
    Write id_B for the identity on B that deletes the rest of R.  With
    (d1 d2)[a] = d2[d1[a]], pi id_B is pi cut down to the vertices it sends
    into B, so its range is B.  The product over R expands to
    sum_B (-1)^(k - |B|) id_B, and a partial injection on R with r deleted
    vertices and range B equals pi id_B for exactly r! permutations pi (the
    r vertices outside its domain go onto R minus B in any order): the
    symmetrizer's coefficient (-1)^r r!.

    Columns: antisymmetrizer(C) is A_C plus terms pi p_j, pi a permutation
    of C and j in C (p_i pi = pi p_(pi(i))).  For j in the content, p_j
    kills the product X of the factors of e_t right of antisymmetrizer(C):
    it commutes past every factor that fixes j, p_j P_R = sum over pi of
    pi p_(pi(j)) for j's row R, and p_l (1 - p_l) = 0.  So
    antisymmetrizer(C) X = A_C X, and the columns need no deletion factor.

    On a tabloid T, 1 - p_i keeps T when i is in T's content and kills it
    otherwise, and p_i the other way round.
    """
    n = t.n
    one = identity(n)

    def chain(subset, sign: int) -> list[AlgebraElement]:
        labels = sorted(subset)
        out = []
        for j in range(1, len(labels)):
            terms = {one: 1}
            for i in range(j):
                terms[_embed((2, 1), (labels[i], labels[j]), n)] = sign
            out.append(AlgebraElement(n, terms))
        return out

    factors = []
    for col in specht.column_sets(t):
        factors += chain(col, -1)
    for row in t.rows:
        factors += chain(row, 1)
        factors += [AlgebraElement(n, {one: 1, generator(n, "p", i): -1}) for i in row]
    content = t.content
    factors += [
        AlgebraElement.from_diagram(generator(n, "p", i))
        for i in range(1, n + 1)
        if i not in content
    ]
    return factors


def element_coordinates(a: AlgebraElement) -> dict[int, Coeff]:
    """Coordinates of an element in the canonical diagram order."""
    index = diagram_index(a.n)
    return {index[d]: c for d, c in a.terms.items()}
