"""Size guards for computations whose cost is decided by a closed formula.

The command line calls these guards before any work: a computation that
would hold or multiply more than ``DEFAULT_MAX_CELLS`` cells is refused up
front with a ``SizeCapError`` naming the offending quantity, so a runaway
parameter fails in microseconds instead of hours, and ``--max-cells`` raises
the cap.  Library functions are unguarded and compute what they are asked.
"""

from __future__ import annotations

from math import comb, factorial, prod
from typing import Iterator

from .diagrams import monoid_order
from .specht import Shape, all_shapes, conjugate

DEFAULT_MAX_CELLS = 10_000_000


class SizeCapError(RuntimeError):
    def __init__(self, quantity: str, value: int, cap: int):
        self.quantity = quantity
        self.value = value
        self.cap = cap
        super().__init__(
            f"refusing: {quantity} = {value} exceeds the size cap {cap}"
        )


def check_cap(quantity: str, value: int, cap: int) -> None:
    if value > cap:
        raise SizeCapError(quantity, value, cap)


def check_order_cap(n: int, max_cells: int) -> None:
    """Refuse listing the monoid when its order exceeds ``max_cells``."""
    check_cap(f"rook monoid order at n={n}", monoid_order(n), max_cells)


def phi_entry_count(m: int, n: int) -> int:
    """Nonzero entries of phi: each of the C(n,k)^2 k! diagrams of rank k
    has (m+1)^k."""
    return sum(comb(n, k) ** 2 * factorial(k) * (m + 1) ** k for k in range(n + 1))


def check_tensor_cap(m: int, n: int, max_cells: int) -> None:
    """Refuse tensor matrices with more than ``max_cells`` cells, and phi
    with more than ``max_cells`` nonzero entries."""
    check_cap(
        f"tensor matrix cells (m+1)^(2n) at m={m}, n={n}",
        (m + 1) ** (2 * n),
        max_cells,
    )
    check_cap(
        f"phi matrix entries sum_k C(n,k)^2 k! (m+1)^k at m={m}, n={n}",
        phi_entry_count(m, n),
        max_cells,
    )


def check_tensor_map_cap(m: int, n: int, max_cells: int) -> None:
    """Refuse the tensor homomorphism certificate when the diagram maps it
    holds, (m+1)^n + 1 entries for each of the |R_n| diagrams, exceed
    ``max_cells``."""
    check_cap(
        f"tensor map entries |R_n| ((m+1)^n + 1) at m={m}, n={n}",
        monoid_order(n) * ((m + 1) ** n + 1),
        max_cells,
    )


def check_symmetrizer_cap(kind: str, r: int, n: int, max_cells: int) -> None:
    """Refuse printing the ``sym`` or ``anti`` element on r of n vertices
    when its JSON has more than ``max_cells`` cells: each term holds a
    coefficient and n images, and there are |R_r| terms for ``sym`` and
    (r+1)! for ``anti``."""
    terms = monoid_order(r) if kind == "sym" else factorial(r + 1)
    check_cap(
        f"{kind} output cells terms*(n+1) at r={r}, n={n}", terms * (n + 1), max_cells
    )


def quasi_idempotent_pairs(shape: Shape, n: int, terms: int = 1) -> int:
    """A bound on the term pairs multiplied when an element of ``terms``
    terms is multiplied by the ``quasi_idempotent_factors`` f_i of a tableau
    of the shape, one at a time; from 1 that is ``tableau_quasi_idempotent``.
    f_i has |f_i| terms: 2, 3, .., h for the Jucys-Murphy chain over a
    column of h vertices, 2, 3, .., k for that over a row of k vertices and
    then 2 for each of its k factors 1 - p_i, and 1 for each missing
    vertex, and the product before f_i has at most
    min(terms prod_{j<i} |f_j|, |R_n|) terms."""
    sizes = [size for h in conjugate(tuple(shape)) for size in range(2, h + 1)]
    for k in shape:
        sizes += list(range(2, k + 1)) + [2] * k
    sizes += [1] * (n - sum(shape))
    order = monoid_order(n)
    pairs = 0
    for size in sizes:
        pairs += min(terms, order) * size
        terms *= size
    return pairs


def check_quasi_idempotent_cap(shape: Shape, n: int, max_cells: int) -> None:
    """Refuse building the quasi-idempotent of a tableau of the shape when
    ``quasi_idempotent_pairs`` exceeds ``max_cells``."""
    label = ",".join(map(str, shape)) or "empty"
    check_cap(
        f"quasi-idempotent term pairs at shape ({label}), n={n}",
        quasi_idempotent_pairs(shape, n),
        max_cells,
    )


def level_work(n: int) -> int:
    """Entries the level-by-level annihilator check stores at n: the
    certificate's index maps over R_n, n deletions and three generators, and
    ``specht_entries(n)`` for the Specht modules at n that the Specht count
    reads and again for the W_lambda, lambda of k <= n, that the characters
    read (term by term no more than at n)."""
    return (n + 3) * monoid_order(n) + 2 * specht_entries(n)


def check_level_cap(m: int, n: int, max_cells: int) -> None:
    check_cap(f"groupoid level work at m={m}, n={n}", level_work(n), max_cells)


def _tall_shapes(r: int, rows: int, widest: int) -> Iterator[Shape]:
    """The shapes of r boxes with at least ``rows`` rows of at most
    ``widest`` boxes, visiting no other shape."""
    if r == 0:
        yield ()
    for a in range(min(r, widest), 0, -1):
        if r - a >= rows - 1:
            yield from ((a,) + tail for tail in _tall_shapes(r - a, rows - 1, a))


def check_absorption_cap(m: int, n: int, max_cells: int) -> None:
    """Refuse ``check_absorption`` when its term pairs exceed ``max_cells``:
    per shape with more than m rows, ``quasi_idempotent_pairs`` for e and
    again from y's (m+2)! terms for y e.  The count stops at the first shape
    that takes it past the cap, and the refusal gives the pairs counted so
    far, so an absurd n is refused without listing its shapes."""
    pairs = 0
    for r in range(m + 1, n + 1):
        for shape in _tall_shapes(r, m + 1, r):
            pairs += quasi_idempotent_pairs(shape, n)
            pairs += quasi_idempotent_pairs(shape, n, factorial(m + 2))
            check_cap(f"absorption term pairs at m={m}, n={n}", pairs, max_cells)


def check_orthogonality_cap(n: int, max_cells: int) -> None:
    """Refuse ``check_specht_orthogonality`` when the tableaux it lists,
    C(n,r) r! per shape of r boxes, plus the entries of the tabloid maps it
    holds, one per tabloid of every shape for each of the identity, the
    C(n,2) transpositions and the n deletions, exceed ``max_cells``.  The
    monoid order goes first only so that an absurd n is refused before its
    shapes are listed."""
    check_order_cap(n, max_cells)
    tableaux = sum(comb(n, sum(s)) * factorial(sum(s)) for s in all_shapes(n))
    entries = (comb(n, 2) + n + 1) * tabloid_count(n)
    check_cap(f"tableaux plus tabloid map entries at n={n}", tableaux + entries, max_cells)


def standard_tableaux(shape: Shape) -> int:
    """f_lambda, the number of standard tableaux of the shape, by the hook
    length formula."""
    cols = conjugate(tuple(shape))
    hooks = prod(row - j + cols[j] - i - 1 for i, row in enumerate(shape) for j in range(row))
    return factorial(sum(shape)) // hooks


def block_entries(n: int) -> int:
    """A bound on the entries the echelon rows of every block ideal at n
    store: the block of shape lambda, r boxes, holds C(n,r)^2 copies of the
    reduced echelon rows of an S_r ideal of dimension D = f_lambda^2
    (``groupoid.ideal_of_blocks``), each meeting only its own pivot and the
    r! - D non-pivot columns."""
    total = 0
    for shape in all_shapes(n):
        r, d = sum(shape), standard_tableaux(shape) ** 2
        total += comb(n, r) ** 2 * d * (factorial(r) - d + 1)
    return total


def check_block_cap(n: int, max_cells: int) -> None:
    """Refuse the block decomposition at n when the monoid order, then
    ``block_entries``, exceeds ``max_cells``; the order goes first, so an
    absurd n is refused before its shapes are listed."""
    check_order_cap(n, max_cells)
    check_cap(f"block ideal echelon entries at n={n}", block_entries(n), max_cells)


def tabloid_count(n: int) -> int:
    """The tabloids of every shape at n, C(n,r) r! / prod(lambda_i!) for a
    shape lambda of r boxes, without listing the shapes: g[s] sums
    s! / prod(lambda_i!) over the shapes of s boxes with rows of at most j
    boxes."""
    g = [1] + [0] * n
    for j in range(1, n + 1):
        for s in range(j, n + 1):
            g[s] += comb(s, j) * g[s - j]
    return sum(comb(n, r) * g[r] for r in range(n + 1))


def specht_entries(n: int) -> int:
    """Entries of the swap maps of every Specht basis at n: n - 1 maps over
    each shape's tabloids, more than its echelon rows hold."""
    return (n - 1) * tabloid_count(n)


def check_specht_cap(n: int, max_cells: int) -> None:
    """Refuse the Specht bases of every shape at n when ``specht_entries``
    exceeds ``max_cells``."""
    check_cap(f"Specht swap-map entries at n={n}", specht_entries(n), max_cells)
