"""The diagram action on n-fold tensor powers of a pointed vector space.

The underlying space has basis v_0, v_1, ..., v_m where v_0 is the marked
vector; the tensor power has dimension (m+1)^n with basis indexed by digit
strings.  A basis column v_{i_1 ... i_n} (digits read along the bottom row)
maps to zero unless every isolated bottom vertex b of the diagram carries
digit i_b = 0; otherwise the output digit at top vertex a is the input digit
at its partner, and 0 at isolated tops.  Matrices are 0/1 and the assignment
is multiplicative, giving a representation of the whole monoid algebra.

Digit strings are linearized big-endian: v_{i_1 ... i_n} sits at position
sum of i_j (m+1)^(n-j).
"""

from __future__ import annotations

from typing import Sequence

from .algebra import AlgebraElement
from .diagrams import all_diagrams, monoid_order
from .linalg import SparseMatrix, SpanBasis, nullspace, row_space


def tensor_dim(m: int, n: int) -> int:
    if m < 0 or n < 1:
        raise ValueError(f"need m >= 0 and n >= 1, got m={m}, n={n}")
    return (m + 1) ** n


def diagram_map(d: Sequence[int], m: int) -> tuple[int, ...]:
    """phi(d) as a map on the dim = (m+1)^n basis indices: entry i is the
    row of the 1 in column i, or dim for a zero column; entry dim is dim.
    An edge from top a to bottom b moves digit x in 0..m from input slot b
    to output slot a, adding x (m+1)^(n-b) to the column and x (m+1)^(n-a)
    to the row; isolated bottoms carry digit 0.

    >>> diagram_map((0, 2), 1)
    (0, 1, 4, 4, 4)
    """
    n = len(d)
    dim = tensor_dim(m, n)
    cols, rows = [0], [0]
    for a, b in enumerate(d, start=1):
        if b:
            step_in, step_out = (m + 1) ** (n - b), (m + 1) ** (n - a)
            cols = [c + x * step_in for x in range(m + 1) for c in cols]
            rows = [r + x * step_out for x in range(m + 1) for r in rows]
    out = [dim] * (dim + 1)
    for c, r in zip(cols, rows):
        out[c] = r
    return tuple(out)


def _entries(d: Sequence[int], m: int) -> list[tuple[int, int]]:
    """The (row, column) positions of the 1s in one diagram's matrix."""
    tau = diagram_map(d, m)
    dim = len(tau) - 1
    return [(r, c) for c, r in enumerate(tau) if r != dim]


def element_matrix(a: AlgebraElement, m: int) -> SparseMatrix:
    """Matrix of an algebra element; exact cancellation included."""
    dim = tensor_dim(m, a.n)
    acc: dict[tuple[int, int], int] = {}
    for d, coeff in a.terms.items():
        for key in _entries(d, m):
            val = acc.get(key, 0) + coeff
            if val:
                acc[key] = val
            else:
                acc.pop(key, None)
    return SparseMatrix(dim, dim, acc)


def phi_matrix(m: int, n: int) -> SparseMatrix:
    """The representation map as one matrix: row index runs over (output,
    input) basis pairs vectorized row-major, columns over the canonical
    diagram order."""
    dim = tensor_dim(m, n)
    diags = all_diagrams(n)
    entries: dict[tuple[int, int], int] = {}
    for col, d in enumerate(diags):
        for out_i, in_i in _entries(d, m):
            entries[(out_i * dim + in_i, col)] = 1
    return SparseMatrix(dim * dim, len(diags), entries)


def phi_rank(m: int, n: int) -> int:
    """Rank of the representation map on the monoid algebra."""
    return row_space(phi_matrix(m, n)).dimension


def annihilator_basis(m: int, n: int) -> SpanBasis:
    """Echelon basis, in diagram coordinates, of the elements acting as zero
    on the tensor power."""
    kernel = nullspace(phi_matrix(m, n))
    basis = SpanBasis(monoid_order(n))
    for vec in kernel:
        basis.insert(vec)
    return basis
